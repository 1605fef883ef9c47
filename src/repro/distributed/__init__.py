"""Distributed campaign infrastructure: the KQE index server over TCP.

The paper's Figure-10 scale-out keeps one central KQE graph index while N
clients explore independently.  This package makes that deployment real:

* :mod:`repro.distributed.protocol` — the one wire encoding behind the
  REGISTER / SYNC / REPORT / SHUTDOWN verbs of the stale-synchronous protocol
  (a SYNC ships this hour's batch and receives the previous round's
  broadcast): protocol v5, HMAC-authenticated JSON frames opened by a HELLO
  handshake.
* :mod:`repro.distributed.wire` — the typed JSON codecs of the protocol: every
  campaign payload (embeddings, shard specs, reports, budgets) has an explicit
  schema, and decoding validates it.
* :mod:`repro.distributed.coordinator` — the central-index state machine with
  per-worker novelty pruning.
* :mod:`repro.distributed.server` — :class:`IndexServer`, a threaded TCP
  server hosting the coordinator for campaign clients — remote ones, or the
  local pool's worker processes over loopback — with per-shard liveness
  tracking and optional eviction of dead clients, and
  :func:`~repro.distributed.server.host_campaign`, the one lifecycle that
  hosts a campaign on it for both the local pool and ``serve``.
* :mod:`repro.distributed.client` — :class:`RemoteSyncTransport` (the
  worker's :class:`~repro.core.parallel.SyncTransport` over a socket) and
  :func:`run_remote_client`, the one worker body, which remote clients and
  the local pool's worker processes run alike.
* :mod:`repro.distributed.testing` — the fault-injection harness (a
  frame-mangling proxy, scripted clients and a protocol fuzzer).
* :mod:`repro.distributed.cli` — ``python -m repro.distributed``
  (``run`` / ``serve`` / ``client`` / ``verify-local`` / ``fuzz`` /
  ``stats``).
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
