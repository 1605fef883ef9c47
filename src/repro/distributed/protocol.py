"""Wire protocol of the distributed KQE index server.

The parallel campaign runner's synchronization protocol is stale-synchronous
and transport-agnostic: workers ship batches of (embedding, canonical label)
pairs at hour boundaries, and each sync's reply is the coordinator's broadcast
of the other workers' entries from the *previous* scheduled round (empty at
the first), so a worker waits only for a peer that has not yet shipped that
round.  This module pins down the one TCP encoding of that protocol, version 5
(:class:`JsonFrameCodec`)::

    +-------+----------------+------------------+----------------------+
    | magic | 4-byte big-    | 32-byte HMAC-    | UTF-8 JSON message   |
    | TQS2  | endian length  | SHA256 tag       | (typed, wire.py)     |
    +-------+----------------+------------------+----------------------+

The tag authenticates ``magic || length || body`` under a shared secret, so a
frame cannot be forged, truncated or bit-flipped without detection; the body is
a typed JSON object whose schema lives in :mod:`repro.distributed.wire`, with
index-entry batches packed as base64 float32 blobs.  Connections open with a
HELLO exchange (:func:`client_handshake`) that must carry exactly
:data:`PROTOCOL_VERSION`, so mismatched peers fail with a clear error instead
of a corrupt stream.  The HELLO_OK reply carries a per-connection server nonce
that both ends mix into every subsequent tag (:meth:`JsonFrameCodec.bind`), so
a frame captured on one connection does not authenticate on another — replay
cannot kill a campaign.  Malformed or unauthenticated input (including frames
without the magic, such as a legacy pickle client's) raises
:class:`~repro.errors.ProtocolError` — servers reject the connection and keep
serving.  Nothing received from a socket is ever unpickled.

Messages are plain tuples whose first element is one of the verb constants
below; payloads are stdlib/dataclass objects so both ends only need this
package importable.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import socket
import struct
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.errors import ProtocolError, TransportError

# Serialized index entries: (embedding as a plain list, canonical label).
IndexEntry = Tuple[List[float], str]

# Client -> server verbs.
HELLO = "hello"
REGISTER = "register"
SYNC = "sync"
TICK = "tick"
REPORT = "report"
ERROR = "error"
SHUTDOWN = "shutdown"
STATS = "stats"

# Server -> client replies.
HELLO_OK = "hello-ok"
REGISTERED = "registered"
BROADCAST = "broadcast"
OK = "ok"
ABORT = "abort"
STATS_OK = "stats-ok"

# A frame bigger than this is a corrupt length prefix, not a real batch: even a
# pathological campaign ships a few thousand 64-float embeddings per round.
MAX_FRAME_BYTES = 256 * 1024 * 1024

# Framing: magic, a 4-byte length prefix, the authentication tag, then the
# JSON body.  Index-entry batches ride packed (see wire.encode_entries_packed).
# A HELLO carrying any version but PROTOCOL_VERSION is refused: a v4 peer
# expects each sync to return the same round's broadcast.
MAGIC = b"TQS2"
PROTOCOL_VERSION = 5
MAC_BYTES = hashlib.sha256().digest_size

_HEADER = struct.Struct(">I")


@dataclass
class SyncBroadcast:
    """The coordinator's answer to one worker's sync: the other workers' news
    from the previous scheduled round.

    ``entries`` is what the worker must fold into its local graph index;
    ``suppressed`` counts the entries the coordinator's novelty pruning held
    back because their canonical label was already known to this worker — the
    payload reduction the pruning buys, surfaced so it is measurable.
    ``next_budget`` is the budget policy's per-hour allocation for this worker
    from the next hour on (None when the campaign runs without budget
    rebalancing, i.e. keep the current budget).
    """

    entries: List[IndexEntry] = field(default_factory=list)
    suppressed: int = 0
    next_budget: Optional[int] = None


class _MidStreamEOFError(TransportError):
    """Connection closed with a partial read on the wire (internal marker).

    Lets the frame reader classify truncation as *malformed input*
    (:class:`~repro.errors.ProtocolError`) without matching on error text.
    """


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly *count* bytes; None on a clean EOF before the first byte."""
    chunks: List[bytes] = []
    remaining = count
    while remaining > 0:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except socket.timeout as exc:
            raise TransportError(
                f"receive timed out after {sock.gettimeout()}s"
            ) from exc
        except OSError as exc:
            raise TransportError(f"receive failed: {exc}") from exc
        if not chunk:
            if not chunks:
                return None
            raise _MidStreamEOFError(
                f"connection closed mid-frame ({count - remaining}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_component(
    sock: socket.socket, count: int, what: str, allow_eof: bool = False
) -> Optional[bytes]:
    """Read one frame component; a partial read means a truncated frame.

    Socket-level failures (timeouts, resets) stay :class:`TransportError`;
    a peer that closes mid-frame produced *malformed input* and gets a
    :class:`~repro.errors.ProtocolError` so servers treat it as a bad client,
    not a dead transport.  With *allow_eof* a clean EOF before the first byte
    returns None (only sensible for the frame's leading component).
    """
    try:
        data = _recv_exact(sock, count)
    except _MidStreamEOFError as exc:
        raise ProtocolError(f"frame truncated while reading its {what}: {exc}") from exc
    if data is None and not allow_eof:
        raise ProtocolError(
            f"frame truncated: connection closed before its {what} "
            f"({count} bytes expected)"
        )
    return data


class JsonFrameCodec:
    """Protocol v5: HMAC-SHA256-authenticated JSON frames, no pickle.

    *auth_key* is the shared secret both ends must hold; ``None`` (or empty)
    falls back to an unkeyed tag that still catches corruption and framing
    bugs but authenticates nothing — fine on localhost, not across hosts.

    A codec instance belongs to one connection: after the handshake both ends
    :meth:`bind` it to the server's connection nonce, which is mixed into
    every later tag so captured frames do not replay across connections.
    """

    def __init__(self, auth_key: Optional[bytes] = None) -> None:
        self._key = bytes(auth_key or b"")
        self._binding = b""

    def bind(self, nonce: str) -> None:
        """Mix the connection's HELLO_OK nonce into all subsequent tags."""
        self._binding = nonce.encode("ascii")

    def _tag(self, header: bytes, body: bytes) -> bytes:
        material = self._binding + header + body
        return hmac.new(self._key, material, hashlib.sha256).digest()

    def encode(self, message: Any) -> bytes:
        """The full frame for *message*, as bytes (used by the fault harness)."""
        from repro.distributed import wire

        body = json.dumps(
            wire.encode_message(message),
            separators=(",", ":"),
            sort_keys=True,
        ).encode("utf-8")
        if len(body) > MAX_FRAME_BYTES:
            raise TransportError(
                f"refusing to send a {len(body)}-byte frame "
                f"(limit {MAX_FRAME_BYTES}); batch your entries"
            )
        header = MAGIC + _HEADER.pack(len(body))
        return header + self._tag(header, body) + body

    def send(self, sock: socket.socket, message: Any) -> None:
        try:
            sock.sendall(self.encode(message))
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def recv(self, sock: socket.socket, allow_eof: bool = False) -> Any:
        magic = _recv_component(sock, len(MAGIC), "magic", allow_eof=True)
        if magic is None:
            if allow_eof:
                return None
            raise TransportError("connection closed while waiting for a frame")
        if magic != MAGIC:
            raise ProtocolError(
                f"not a protocol frame (leading bytes {magic!r}); the peer "
                "may be a legacy pickle client or sending garbage"
            )
        header = _recv_component(sock, _HEADER.size, "length prefix")
        (length,) = _HEADER.unpack(header)
        # Bound memory *before* any allocation: a corrupt or hostile length
        # prefix must never make the reader buffer gigabytes.
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame length {length} exceeds {MAX_FRAME_BYTES}; "
                "corrupt or hostile stream"
            )
        tag = _recv_component(sock, MAC_BYTES, "authentication tag")
        body = _recv_component(sock, length, "body")
        if not hmac.compare_digest(tag, self._tag(magic + header, body)):
            raise ProtocolError(
                "frame authentication failed (HMAC mismatch); check that both "
                "ends share the same auth key — and that the frame was not "
                "replayed from another connection"
            )
        try:
            obj = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
        from repro.distributed import wire

        return wire.decode_message(obj)

    def request(self, sock: socket.socket, message: Any) -> Any:
        """One request/response round trip."""
        self.send(sock, message)
        return self.recv(sock)


def load_auth_key(path: str) -> bytes:
    """Read a shared auth key from *path* (surrounding whitespace stripped)."""
    try:
        with open(path, "rb") as handle:
            key = handle.read().strip()
    except OSError as exc:
        raise TransportError(f"cannot read auth key file {path!r}: {exc}") from exc
    if not key:
        raise TransportError(f"auth key file {path!r} is empty")
    return key


def client_handshake(sock: socket.socket, codec: JsonFrameCodec) -> None:
    """Open a connection: HELLO out, HELLO_OK (or a reason) back.

    On success the codec is bound to the server's connection nonce (replay
    protection).  Raises :class:`TransportError` with a diagnosis when the
    server rejects the version, speaks a different protocol, or holds a
    different auth key.
    """
    codec.send(sock, (HELLO, PROTOCOL_VERSION))
    try:
        reply = codec.recv(sock)
    except ProtocolError as exc:
        raise TransportError(
            f"handshake reply was rejected ({exc}); is the index server "
            f"running protocol v{PROTOCOL_VERSION}, and do both ends share "
            "the same auth key?"
        ) from exc
    except TransportError as exc:
        raise TransportError(
            f"index server closed the connection during the handshake "
            f"({exc}); is it running protocol v{PROTOCOL_VERSION}?"
        ) from exc
    if reply[0] == ABORT:
        raise TransportError(f"index server rejected the handshake: {reply[1]}")
    if reply[0] != HELLO_OK or reply[1] != PROTOCOL_VERSION:
        raise TransportError(f"unexpected handshake reply {reply!r}")
    codec.bind(reply[2])
