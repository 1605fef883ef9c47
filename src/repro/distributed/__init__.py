"""Distributed campaign infrastructure: the KQE index server over TCP.

The paper's Figure-10 scale-out keeps one central KQE graph index while N
clients explore independently.  This package makes that deployment real:

* :mod:`repro.distributed.protocol` — the one wire encoding behind the
  REGISTER / SYNC / REPORT / SHUTDOWN verbs of the bulk-synchronous protocol:
  protocol v3, HMAC-authenticated JSON frames opened by a HELLO handshake.
* :mod:`repro.distributed.wire` — the typed JSON codecs of the protocol: every
  campaign payload (embeddings, shard specs, reports, budgets) has an explicit
  schema, and decoding validates it.
* :mod:`repro.distributed.coordinator` — the transport-agnostic central-index
  state machine with per-worker novelty pruning, shared with the in-process
  ``multiprocessing`` pool so TCP and local runs are bit-identical.
* :mod:`repro.distributed.server` — :class:`IndexServer`, a threaded TCP
  server hosting the coordinator for remote campaign clients, with per-shard
  liveness tracking and optional eviction of dead clients.
* :mod:`repro.distributed.client` — :class:`RemoteSyncTransport` (the
  :class:`~repro.core.parallel.SyncTransport` implementation over a socket)
  and :func:`run_remote_client`, the full remote worker.
* :mod:`repro.distributed.testing` — the fault-injection harness (a
  frame-mangling proxy, scripted clients and a protocol fuzzer).
* :mod:`repro.distributed.cli` — ``python -m repro.distributed``
  (``serve`` / ``client`` / ``verify-local`` / ``fuzz``).
"""

from repro.distributed.coordinator import CentralCoordinator
from repro.distributed.protocol import (
    IndexEntry,
    JsonFrameCodec,
    SyncBroadcast,
    load_auth_key,
)

__all__ = [
    "CentralCoordinator",
    "IndexEntry",
    "JsonFrameCodec",
    "SyncBroadcast",
    "load_auth_key",
]
