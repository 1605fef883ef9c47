"""Fault-injection harness for the distributed campaign stack.

The oracle side of this reproduction is tested adversarially; this module
lets the *distributed* side be tested the same way.  It provides three tools,
used by ``tests/test_fault_injection.py`` and the ``python -m
repro.distributed fuzz`` smoke command:

* :class:`FaultyProxy` — a frame-aware TCP proxy between campaign clients and
  an index server.  A *fault plan* (a callable receiving the frame index and
  the raw frame bytes) decides per client→server frame whether to forward,
  drop, delay, truncate or corrupt it, or to kill the connection outright —
  the network misbehaving on schedule.
* :class:`ScriptedClient` — a raw protocol client that can speak the
  handshake and individual verbs (or arbitrary bytes) without running a
  campaign, for driving the server off the happy path: register-then-vanish,
  sync-then-die, tampered tags.
* :func:`fuzz_server` — throws batches of malformed frames (garbage, bad
  magic, hostile lengths, truncations, flipped MAC bits, wrong keys) at a
  live server and verifies it survives and still answers.

Everything here is deterministic given a seed, so fault regression tests are
reproducible.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.distributed import protocol
from repro.distributed.protocol import (
    MAC_BYTES,
    MAGIC,
    JsonFrameCodec,
    client_handshake,
)
from repro.errors import TransportError

# A fault plan maps (frame_index, frame_bytes) -> action tuple:
#   ("pass",) | ("drop",) | ("close",) | ("delay", seconds)
#   | ("truncate", byte_count) | ("corrupt", byte_offset)
FaultPlan = Callable[[int, bytes], Tuple[Any, ...]]


def passthrough(index: int, frame: bytes) -> Tuple[str]:
    """The do-nothing fault plan: every frame is forwarded untouched."""
    return ("pass",)


def flip_byte(data: bytes, offset: int) -> bytes:
    """One bit-flip at *offset* (modulo the length) — the minimal corruption."""
    offset %= len(data)
    return data[:offset] + bytes([data[offset] ^ 0x01]) + data[offset + 1 :]


def tamper_mac(frame: bytes) -> bytes:
    """Flip one bit inside a frame's authentication tag."""
    return flip_byte(frame, len(MAGIC) + 4)


def truncate_frame(frame: bytes, keep: int) -> bytes:
    """The first *keep* bytes of a frame — a mid-frame connection cut."""
    return frame[:keep]


class ScriptedClient:
    """A hand-driven protocol connection for off-happy-path tests."""

    def __init__(
        self,
        host: str,
        port: int,
        auth_key: Optional[bytes] = None,
        handshake: bool = True,
        timeout: float = 30.0,
    ) -> None:
        self.codec = JsonFrameCodec(auth_key)
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.settimeout(timeout)
        if handshake:
            try:
                client_handshake(self.sock, self.codec)
            except TransportError:
                self.close()
                raise

    def __enter__(self) -> "ScriptedClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def send(self, message: Any) -> None:
        self.codec.send(self.sock, message)

    def send_raw(self, data: bytes) -> None:
        self.sock.sendall(data)

    def recv(self) -> Any:
        return self.codec.recv(self.sock)

    def request(self, message: Any) -> Any:
        return self.codec.request(self.sock, message)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _read_frame(sock: socket.socket) -> Optional[bytes]:
    """One raw frame off *sock*; None on clean EOF.

    Four leading bytes that are not the magic are passed on as they are, for
    the server to reject.
    """
    head = protocol._recv_exact(sock, 4)
    if head != MAGIC:
        return head
    length_bytes = protocol._recv_exact(sock, 4)
    if length_bytes is None:
        return head
    length = int.from_bytes(length_bytes, "big")
    if length > protocol.MAX_FRAME_BYTES:
        raise TransportError(f"refusing to proxy a {length}-byte frame")
    rest = protocol._recv_exact(sock, MAC_BYTES + length)
    return head + length_bytes + (rest or b"")


class FaultyProxy:
    """A TCP proxy that injects faults into client→server protocol frames.

    Server→client traffic is pumped verbatim; client→server traffic is read
    frame by frame and each frame is submitted to the fault plan.  Frame
    indices count per connection, starting at 0 (frame 0 is the HELLO).
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: Optional[FaultPlan] = None,
        host: str = "127.0.0.1",
    ) -> None:
        self.upstream = (upstream_host, upstream_port)
        self.plan = plan or passthrough
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(16)
        self.host, self.port = self._listener.getsockname()[:2]
        self._closing = False
        self._sockets: List[socket.socket] = []
        self._lock = threading.Lock()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="faulty-proxy-accept"
        )
        self._accept_thread.start()

    def __enter__(self) -> "FaultyProxy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                downstream, _ = self._listener.accept()
            except OSError:
                return
            try:
                upstream = socket.create_connection(self.upstream, timeout=10.0)
            except OSError:
                downstream.close()
                continue
            with self._lock:
                self._sockets.extend((downstream, upstream))
            threading.Thread(
                target=self._pump_frames,
                args=(downstream, upstream),
                daemon=True,
                name="faulty-proxy-c2s",
            ).start()
            threading.Thread(
                target=self._pump_raw,
                args=(upstream, downstream),
                daemon=True,
                name="faulty-proxy-s2c",
            ).start()

    def _pump_frames(self, source: socket.socket, sink: socket.socket) -> None:
        index = 0
        try:
            while True:
                frame = _read_frame(source)
                if frame is None:
                    break
                action = self.plan(index, frame)
                index += 1
                verb = action[0]
                if verb == "drop":
                    continue
                if verb == "close":
                    break
                if verb == "delay":
                    time.sleep(action[1])
                    sink.sendall(frame)
                    continue
                if verb == "truncate":
                    sink.sendall(truncate_frame(frame, action[1]))
                    break
                if verb == "corrupt":
                    sink.sendall(flip_byte(frame, action[1]))
                    continue
                sink.sendall(frame)
        except (TransportError, OSError):
            pass
        finally:
            self._shutdown_pair(source, sink)

    def _pump_raw(self, source: socket.socket, sink: socket.socket) -> None:
        try:
            while True:
                chunk = source.recv(1 << 16)
                if not chunk:
                    break
                sink.sendall(chunk)
        except OSError:
            pass
        finally:
            self._shutdown_pair(source, sink)

    def _shutdown_pair(self, *socks: socket.socket) -> None:
        # shutdown() before close(): a pump thread blocked in recv() on the
        # peer socket holds its file description open, which would defer the
        # FIN (and the fault the test is waiting for) until a timeout fires.
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        self._closing = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            sockets, self._sockets = self._sockets, []
        self._shutdown_pair(*sockets)


# ------------------------------------------------------------------- fuzzing


def _random_bytes(rng: random.Random, count: int) -> bytes:
    return bytes(rng.getrandbits(8) for _ in range(count))


_FRAME_KINDS = (
    "garbage",
    "bad-magic",
    "hostile-length",
    "tampered-mac",
    "corrupt-body",
    "truncated",
    "wrong-key",
    "pickle-v1",
)


def _malformed_frame(rng: random.Random, kind: str, hello: bytes) -> bytes:
    """One malformed frame of the given kind; *hello* is a valid frame."""
    if kind == "garbage":
        return _random_bytes(rng, rng.randint(1, 512))
    if kind == "bad-magic":
        return b"TQS9" + _random_bytes(rng, rng.randint(1, 128))
    if kind == "hostile-length":
        return MAGIC + (0x7FFFFFFF).to_bytes(4, "big") + _random_bytes(rng, 64)
    if kind == "tampered-mac":
        return tamper_mac(hello)
    if kind == "corrupt-body":
        return flip_byte(hello, rng.randrange(len(MAGIC) + 4 + MAC_BYTES, len(hello)))
    if kind == "truncated":
        return truncate_frame(hello, rng.randint(1, len(hello) - 1))
    if kind == "wrong-key":
        wrong = JsonFrameCodec(b"not-the-server-key-" + _random_bytes(rng, 8))
        return wrong.encode((protocol.HELLO, protocol.PROTOCOL_VERSION))
    return (12).to_bytes(4, "big") + _random_bytes(rng, 12)  # pickle-v1


def fuzz_server(
    host: str,
    port: int,
    frames: int = 50,
    seed: int = 0,
    auth_key: Optional[bytes] = None,
    reply_timeout: float = 3.0,
) -> Dict[str, int]:
    """Throw *frames* malformed frames at a live index server.

    Every frame goes down a fresh connection; the server must reject each one
    without dying.  When *auth_key* is given, a final authenticated probe
    (HELLO handshake plus a TICK exchange) asserts the server still answers
    real clients.  Returns per-kind counts; raises :class:`TransportError`
    the moment the server stops accepting connections.
    """
    rng = random.Random(seed)
    hello = JsonFrameCodec(auth_key).encode((protocol.HELLO, protocol.PROTOCOL_VERSION))
    sent: Dict[str, int] = {}
    for index in range(frames):
        kind = _FRAME_KINDS[rng.randrange(len(_FRAME_KINDS))]
        payload = _malformed_frame(rng, kind, hello)
        try:
            sock = socket.create_connection((host, port), timeout=reply_timeout)
        except OSError as exc:
            raise TransportError(
                f"server stopped accepting connections after {index} "
                f"malformed frames: {exc}"
            ) from exc
        try:
            sock.settimeout(reply_timeout)
            sock.sendall(payload)
            try:
                sock.recv(1 << 16)  # drain any rejection; EOF/timeout are fine
            except OSError:
                pass
        finally:
            try:
                sock.close()
            except OSError:
                pass
        sent[kind] = sent.get(kind, 0) + 1
    if auth_key is not None:
        with ScriptedClient(host, port, auth_key=auth_key) as probe:
            reply = probe.request((protocol.TICK, -1))
            if reply != (protocol.OK,):
                raise TransportError(f"post-fuzz probe expected OK, got {reply!r}")
    return sent
