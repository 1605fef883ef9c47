"""Typed JSON codecs for the wire protocol of the distributed index server.

:mod:`repro.distributed.protocol` moves the sync protocol's messages as tagged
tuples; this module is the explicit schema that turns each of them into a
plain JSON object and back.
Every payload the campaign ships (embeddings, shard specs, hourly samples, bug
incidents, budget vectors) has a dedicated encoder/decoder pair, and decoding
*validates*: a field of the wrong type, a missing key or an unknown verb
raises :class:`~repro.errors.ProtocolError` instead of surfacing later as an
``AttributeError`` deep inside the coordinator.

Fidelity matters more than compactness here: the distributed determinism
contract says a TCP campaign must be bit-identical to the in-process pool, so
the codecs must round-trip every value exactly.  Floats survive because
``json`` serializes them via ``repr`` (shortest round-tripping form); tuples
are restored where the in-memory types use tuples (``fired_bug_ids``, index
entries); and dataclasses are rebuilt field by field so ``==`` holds across
one encode/decode cycle.

The imports of campaign/parallel dataclasses are deferred into the decoders:
:mod:`repro.core.parallel` imports this package's protocol module, so a
module-level import here would be a cycle.
"""

from __future__ import annotations

import base64
import math
import sys
from array import array
from dataclasses import fields
from typing import Any, Dict, List, NoReturn, Optional, Sequence, Tuple, get_type_hints

from repro.distributed.protocol import (
    ABORT,
    BROADCAST,
    ERROR,
    HELLO,
    HELLO_OK,
    OK,
    REGISTER,
    REGISTERED,
    REPORT,
    SHUTDOWN,
    STATS,
    STATS_OK,
    SYNC,
    TICK,
    IndexEntry,
    SyncBroadcast,
)
from repro.errors import ProtocolError

_SAMPLE_FIELDS = (
    "hour",
    "queries_generated",
    "queries_executed",
    "isomorphic_sets",
    "bug_count",
    "bug_type_count",
    "generations_rejected",
)


# ---------------------------------------------------------------- validation


def _fail(where: str, detail: str) -> NoReturn:
    raise ProtocolError(f"invalid {where}: {detail}")


def _obj(value: Any, where: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        _fail(where, f"expected an object, got {type(value).__name__}")
    return value


def _get(obj: Dict[str, Any], key: str, where: str) -> Any:
    if key not in obj:
        _fail(where, f"missing field {key!r}")
    return obj[key]


def _int(value: Any, where: str) -> int:
    # bool is an int subclass; a true/false where a count belongs is a bug.
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(where, f"expected an integer, got {type(value).__name__}")
    return value


def _opt_int(value: Any, where: str) -> Optional[int]:
    return None if value is None else _int(value, where)


def _str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        _fail(where, f"expected a string, got {type(value).__name__}")
    return value


def _opt_str(value: Any, where: str) -> Optional[str]:
    return None if value is None else _str(value, where)


def _bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        _fail(where, f"expected a boolean, got {type(value).__name__}")
    return value


def _float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(where, f"expected a number, got {type(value).__name__}")
    return float(value)


def _list(value: Any, where: str) -> List[Any]:
    if not isinstance(value, list):
        _fail(where, f"expected an array, got {type(value).__name__}")
    return value


def _int_field(obj: Dict[str, Any], key: str, where: str) -> int:
    return _int(_get(obj, key, where), f"{where} {key}")


def _str_field(obj: Dict[str, Any], key: str, where: str) -> str:
    return _str(_get(obj, key, where), f"{where} {key}")


# ------------------------------------------------------------ payload codecs


#: A packed entry batch bigger than this is a corrupt or hostile length pair,
#: never a real sync round; checked *before* any base64 or array allocation.
MAX_PACKED_FLOATS = 32 * 1024 * 1024


def encode_entries_packed(entries: Sequence[IndexEntry]) -> Dict[str, Any]:
    """Index entries as one base64 little-endian float32 blob + label list.

    Embeddings are float32-quantized at the ship boundary
    (:meth:`repro.kqe.store.EntryBatch.to_wire`), so the float32 re-encode
    here is exact.  Requires a rectangular batch (one embedder, one
    dimensionality — every real sync round); raggedness is a caller bug.
    """
    labels: List[str] = []
    values = array("f")
    dims = len(entries[0][0]) if entries else 0
    for vector, label in entries:
        if len(vector) != dims:
            _fail(
                "packed index entries",
                f"ragged batch: expected {dims}-component vectors, "
                f"got {len(vector)}",
            )
        values.extend(vector)
        labels.append(label)
    if sys.byteorder == "big":  # pragma: no cover - no big-endian CI leg
        values.byteswap()
    return {
        "packed": 1,
        "count": len(labels),
        "dims": dims,
        "data": base64.b64encode(values.tobytes()).decode("ascii"),
        "labels": labels,
    }


def decode_entries_packed(value: Any, where: str = "index entries") -> List[IndexEntry]:
    obj = _obj(value, where)
    if obj.get("packed") != 1:
        _fail(where, f"unknown packed-batch version {obj.get('packed')!r}")
    count = _int(_get(obj, "count", where), f"{where} count")
    dims = _int(_get(obj, "dims", where), f"{where} dims")
    data = _str(_get(obj, "data", where), f"{where} data")
    labels = _list(_get(obj, "labels", where), f"{where} labels")
    # Every length is validated against every other *before* any allocation:
    # a forged count/dims pair must neither balloon memory nor silently
    # truncate, and the base64 text length must match the claimed blob size
    # exactly (base64 encodes 3 bytes per 4 characters, padded).
    if count < 0 or dims < 0 or count * dims > MAX_PACKED_FLOATS:
        _fail(where, f"implausible packed batch shape {count}x{dims}")
    if len(labels) != count:
        _fail(where, f"{len(labels)} labels for {count} packed vectors")
    blob_bytes = count * dims * 4
    expected_chars = 4 * ((blob_bytes + 2) // 3)
    if len(data) != expected_chars:
        _fail(
            where,
            f"packed blob is {len(data)} base64 chars, expected "
            f"{expected_chars} for {count}x{dims} float32s",
        )
    try:
        blob = base64.b64decode(data, validate=True)
    except (ValueError, TypeError) as exc:
        _fail(where, f"packed blob is not valid base64: {exc}")
    if len(blob) != blob_bytes:
        _fail(where, f"packed blob decoded to {len(blob)} bytes, not {blob_bytes}")
    values = array("f")
    values.frombytes(blob)
    if sys.byteorder == "big":  # pragma: no cover - no big-endian CI leg
        values.byteswap()
    flat = values.tolist()
    for component in flat:
        if not math.isfinite(component):
            _fail(where, "packed vector component is not finite")
    label_names = [_str(label, f"{where} label") for label in labels]
    return [
        (flat[row * dims : (row + 1) * dims], label_names[row])
        for row in range(count)
    ]


def encode_broadcast(broadcast: SyncBroadcast) -> Dict[str, Any]:
    return {
        "entries": encode_entries_packed(broadcast.entries),
        "suppressed": broadcast.suppressed,
        "next_budget": broadcast.next_budget,
    }


def decode_broadcast(value: Any) -> SyncBroadcast:
    obj = _obj(value, "sync broadcast")
    where = "sync broadcast"
    return SyncBroadcast(
        entries=decode_entries_packed(
            _get(obj, "entries", where), f"{where} entries"
        ),
        suppressed=_int_field(obj, "suppressed", where),
        next_budget=_opt_int(_get(obj, "next_budget", where), f"{where} next_budget"),
    )


#: The value validator of each campaign-config field type.
_CAMPAIGN_FIELD_DECODERS: Dict[Any, Any] = {
    str: _str,
    int: _int,
    bool: _bool,
    float: _float,
    Optional[int]: _opt_int,
}


def _reject_unknown(obj: Dict[str, Any], names: Any, where: str) -> None:
    """Fail on any key of *obj* outside *names*: a retired key fails loudly."""
    unknown = sorted(set(obj) - set(names))
    if unknown:
        _fail(where, f"unknown field(s) {unknown}")


def encode_campaign_config(config: Any) -> Dict[str, Any]:
    """The fields of ``CampaignConfig``, in declaration order."""
    from repro.core.campaign import config_values

    return config_values(config)


def decode_campaign_config(value: Any) -> Any:
    """Check each declared field by its type; a retired key fails loudly."""
    from repro.core.campaign import CampaignConfig

    obj = _obj(value, "campaign config")
    where = "campaign config"
    types = get_type_hints(CampaignConfig)
    names = [declared.name for declared in fields(CampaignConfig)]
    _reject_unknown(obj, names, where)
    return CampaignConfig(**{
        name: _CAMPAIGN_FIELD_DECODERS[types[name]](
            _get(obj, name, where), f"{where} {name}"
        )
        for name in names
    })


def encode_shard_spec(spec: Any) -> Dict[str, Any]:
    return {
        "shard_id": spec.shard_id,
        "kind": spec.kind,
        "config": encode_campaign_config(spec.config),
        "dialect": spec.dialect,
        "baseline": spec.baseline,
        "backend": spec.backend,
    }


def decode_shard_spec(value: Any) -> Any:
    from repro.core.parallel import ShardSpec

    obj = _obj(value, "shard spec")
    where = "shard spec"
    _reject_unknown(obj, [declared.name for declared in fields(ShardSpec)],
                    where)
    return ShardSpec(
        shard_id=_int_field(obj, "shard_id", where),
        kind=_str_field(obj, "kind", where),
        config=decode_campaign_config(_get(obj, "config", where)),
        dialect=_str_field(obj, "dialect", where),
        baseline=_str_field(obj, "baseline", where),
        backend=_str_field(obj, "backend", where),
    )


def encode_sample(sample: Any) -> Dict[str, Any]:
    return {name: getattr(sample, name) for name in _SAMPLE_FIELDS}


def decode_sample(value: Any) -> Any:
    from repro.core.campaign import HourlySample

    obj = _obj(value, "hourly sample")
    fields = {name: _int_field(obj, name, "hourly sample") for name in _SAMPLE_FIELDS}
    return HourlySample(**fields)


def encode_incident(incident: Any) -> Dict[str, Any]:
    return {
        "dbms": incident.dbms,
        "query_sql": incident.query_sql,
        "hint_name": incident.hint_name,
        "detection_mode": incident.detection_mode,
        "query_canonical_label": incident.query_canonical_label,
        "fired_bug_ids": list(incident.fired_bug_ids),
        "expected_rows": incident.expected_rows,
        "observed_rows": incident.observed_rows,
        "minimized_sql": incident.minimized_sql,
    }


def decode_incident(value: Any) -> Any:
    from repro.core.bug_report import BugIncident

    obj = _obj(value, "bug incident")
    where = "bug incident"
    fired = _list(_get(obj, "fired_bug_ids", where), f"{where} fired_bug_ids")
    return BugIncident(
        dbms=_str_field(obj, "dbms", where),
        query_sql=_str_field(obj, "query_sql", where),
        hint_name=_str_field(obj, "hint_name", where),
        detection_mode=_str_field(obj, "detection_mode", where),
        query_canonical_label=_str_field(obj, "query_canonical_label", where),
        fired_bug_ids=tuple(
            _int(bug_id, f"{where} fired_bug_ids element") for bug_id in fired
        ),
        expected_rows=_int_field(obj, "expected_rows", where),
        observed_rows=_int_field(obj, "observed_rows", where),
        minimized_sql=_opt_str(
            _get(obj, "minimized_sql", where), f"{where} minimized_sql"
        ),
    )


def encode_worker_report(report: Any) -> Dict[str, Any]:
    return {
        "shard_id": report.shard_id,
        "tool": report.tool,
        "dbms": report.dbms,
        "dataset": report.dataset,
        "samples": [encode_sample(sample) for sample in report.samples],
        "hourly_new_labels": [list(labels) for labels in report.hourly_new_labels],
        "hourly_incidents": [
            [encode_incident(incident) for incident in incidents]
            for incidents in report.hourly_incidents
        ],
        "unsynced_entries": encode_entries_packed(report.unsynced_entries),
        "hourly_budgets": list(report.hourly_budgets),
        "entries_shipped": report.entries_shipped,
        "broadcast_entries_received": report.broadcast_entries_received,
        "broadcast_entries_suppressed": report.broadcast_entries_suppressed,
        "telemetry": encode_snapshot(report.telemetry),
    }


def decode_worker_report(value: Any) -> Any:
    from repro.core.parallel import WorkerReport

    obj = _obj(value, "worker report")
    where = "worker report"
    labels = [
        [_str(label, f"{where} label") for label in _list(hour, f"{where} labels")]
        for hour in _list(_get(obj, "hourly_new_labels", where), where)
    ]
    incidents = [
        [decode_incident(incident) for incident in _list(hour, f"{where} incidents")]
        for hour in _list(_get(obj, "hourly_incidents", where), where)
    ]
    budgets = _list(_get(obj, "hourly_budgets", where), f"{where} hourly_budgets")
    return WorkerReport(
        shard_id=_int_field(obj, "shard_id", where),
        tool=_str_field(obj, "tool", where),
        dbms=_str_field(obj, "dbms", where),
        dataset=_str_field(obj, "dataset", where),
        samples=[
            decode_sample(sample)
            for sample in _list(_get(obj, "samples", where), f"{where} samples")
        ],
        hourly_new_labels=labels,
        hourly_incidents=incidents,
        unsynced_entries=decode_entries_packed(
            _get(obj, "unsynced_entries", where), f"{where} unsynced_entries"
        ),
        hourly_budgets=[_int(budget, f"{where} hourly budget") for budget in budgets],
        entries_shipped=_int_field(obj, "entries_shipped", where),
        broadcast_entries_received=_int_field(obj, "broadcast_entries_received", where),
        broadcast_entries_suppressed=_int_field(
            obj, "broadcast_entries_suppressed", where
        ),
        # Tolerate reports from peers predating the telemetry subsystem.
        telemetry=decode_snapshot(obj.get("telemetry"), f"{where} telemetry"),
    )


# --------------------------------------------------------- telemetry codecs


def _validate_snapshot(value: Any, where: str = "telemetry snapshot") -> Dict[str, Any]:
    """Validate one metrics-snapshot dict into its canonical wire form.

    The schema matches :meth:`repro.obs.MetricsSnapshot.to_dict`: integer
    counters, float gauges, and histograms as ``{bounds, counts, sum, count}``
    with one more count than bounds (the +Inf overflow bucket).
    """
    obj = _obj(value, where)
    counters = {
        _str(key, f"{where} counter name"): _int(val, f"{where} counter value")
        for key, val in _obj(_get(obj, "counters", where), f"{where} counters").items()
    }
    gauges = {
        _str(key, f"{where} gauge name"): _float(val, f"{where} gauge value")
        for key, val in _obj(_get(obj, "gauges", where), f"{where} gauges").items()
    }
    histograms: Dict[str, Any] = {}
    raw = _obj(_get(obj, "histograms", where), f"{where} histograms")
    for key, state in raw.items():
        name = _str(key, f"{where} histogram name")
        state_obj = _obj(state, f"{where} histogram {name!r}")
        bounds = [
            _float(bound, f"{where} histogram bound")
            for bound in _list(_get(state_obj, "bounds", where), f"{where} bounds")
        ]
        counts = [
            _int(count, f"{where} histogram bucket count")
            for count in _list(_get(state_obj, "counts", where), f"{where} counts")
        ]
        if len(counts) != len(bounds) + 1:
            _fail(where, f"histogram {name!r} needs len(bounds)+1 counts")
        histograms[name] = {
            "bounds": bounds,
            "counts": counts,
            "sum": _float(_get(state_obj, "sum", where), f"{where} histogram sum"),
            "count": _int(_get(state_obj, "count", where), f"{where} histogram count"),
        }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def encode_snapshot(value: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """A metrics snapshot dict for the wire (validated; None passes through)."""
    return None if value is None else _validate_snapshot(value)


def decode_snapshot(
    value: Any, where: str = "telemetry snapshot"
) -> Optional[Dict[str, Any]]:
    return None if value is None else _validate_snapshot(value, where)


def _json_safe(value: Any, where: str, depth: int = 0) -> Any:
    """Allow exactly the JSON value domain, with bounded nesting."""
    if depth > 12:
        _fail(where, "nesting too deep")
    if value is None or isinstance(value, (str, bool, int, float)):
        return value
    if isinstance(value, list):
        return [_json_safe(item, where, depth + 1) for item in value]
    if isinstance(value, dict):
        return {
            _str(key, f"{where} key"): _json_safe(item, where, depth + 1)
            for key, item in value.items()
        }
    _fail(where, f"unsupported type {type(value).__name__}")


def encode_stats(value: Any) -> Dict[str, Any]:
    """The STATS reply payload: an arbitrary (but JSON-only) stats object."""
    return _obj(_json_safe(value, "stats payload"), "stats payload")


def decode_stats(value: Any) -> Dict[str, Any]:
    return _obj(_json_safe(value, "stats payload"), "stats payload")


# ------------------------------------------------------------ message codecs


def encode_message(message: Any) -> Dict[str, Any]:
    """One tagged-tuple protocol message as a JSON-ready object.

    Every index-entry batch in the message rides as one base64 float32 blob.
    """
    if not isinstance(message, tuple) or not message:
        raise ProtocolError(f"cannot encode non-message {message!r}")
    verb = message[0]
    if verb == HELLO:
        return {"verb": verb, "version": message[1]}
    if verb == HELLO_OK:
        return {"verb": verb, "version": message[1], "nonce": message[2]}
    if verb == REGISTER:
        return {"verb": verb, "shard_id": message[1]}
    if verb == SYNC:
        obj = {
            "verb": verb,
            "shard_id": message[1],
            "hour": message[2],
            "entries": encode_entries_packed(message[3]),
        }
        # Optional telemetry piggyback; omitted entirely when absent so the
        # frame stays byte-identical to pre-telemetry campaigns.
        if len(message) > 4 and message[4] is not None:
            obj["telemetry"] = encode_snapshot(message[4])
        return obj
    if verb == TICK:
        return {"verb": verb, "shard_id": message[1]}
    if verb == REPORT:
        return {"verb": verb, "report": encode_worker_report(message[1])}
    if verb == ERROR:
        return {"verb": verb, "shard_id": message[1], "text": message[2]}
    if verb == SHUTDOWN:
        return {"verb": verb}
    if verb == STATS:
        return {"verb": verb}
    if verb == STATS_OK:
        return {"verb": verb, "stats": encode_stats(message[1])}
    if verb == REGISTERED:
        spec = message[1]
        return {
            "verb": verb,
            "spec": None if spec is None else encode_shard_spec(spec),
            "sync_hours": list(message[2]),
        }
    if verb == BROADCAST:
        return {"verb": verb, "broadcast": encode_broadcast(message[1])}
    if verb == OK:
        return {"verb": verb}
    if verb == ABORT:
        return {"verb": verb, "reason": message[1]}
    raise ProtocolError(f"cannot encode message with unknown verb {verb!r}")


def decode_message(obj: Any) -> Tuple[Any, ...]:
    """Validate one received JSON object back into its tagged tuple."""
    obj = _obj(obj, "protocol message")
    verb = _str(_get(obj, "verb", "protocol message"), "protocol verb")
    if verb == HELLO:
        return (verb, _int(_get(obj, "version", verb), "protocol version"))
    if verb == HELLO_OK:
        return (
            verb,
            _int(_get(obj, "version", verb), "protocol version"),
            _str(_get(obj, "nonce", verb), "handshake nonce"),
        )
    if verb == REGISTER:
        return (verb, _opt_int(_get(obj, "shard_id", verb), "register shard_id"))
    if verb == SYNC:
        base = (
            verb,
            _int(_get(obj, "shard_id", verb), "sync shard_id"),
            _int(_get(obj, "hour", verb), "sync hour"),
            decode_entries_packed(_get(obj, "entries", verb), "sync entries"),
        )
        if obj.get("telemetry") is not None:
            return base + (decode_snapshot(obj["telemetry"], "sync telemetry"),)
        return base
    if verb == TICK:
        return (verb, _int(_get(obj, "shard_id", verb), "tick shard_id"))
    if verb == REPORT:
        return (verb, decode_worker_report(_get(obj, "report", verb)))
    if verb == ERROR:
        return (
            verb,
            _int(_get(obj, "shard_id", verb), "error shard_id"),
            _str(_get(obj, "text", verb), "error text"),
        )
    if verb == SHUTDOWN:
        return (verb,)
    if verb == STATS:
        return (verb,)
    if verb == STATS_OK:
        return (verb, decode_stats(_get(obj, "stats", verb)))
    if verb == REGISTERED:
        spec = _get(obj, "spec", verb)
        hours = _list(_get(obj, "sync_hours", verb), "registered sync_hours")
        return (
            verb,
            None if spec is None else decode_shard_spec(spec),
            [_int(hour, "registered sync hour") for hour in hours],
        )
    if verb == BROADCAST:
        return (verb, decode_broadcast(_get(obj, "broadcast", verb)))
    if verb == OK:
        return (verb,)
    if verb == ABORT:
        return (verb, _str(_get(obj, "reason", verb), "abort reason"))
    raise ProtocolError(f"unknown protocol verb {verb!r}")
