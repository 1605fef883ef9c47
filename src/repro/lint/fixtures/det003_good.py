# repro-lint: path=repro/distributed/server.py
"""Clean counterpart: a campaign fingerprint from canonical inputs only."""
import hashlib

MEMO = {}


def campaign_fingerprint(shards, params):
    pieces = [repr(shards), repr(params)]
    pieces.extend(f"{k}={MEMO[k]}" for k in sorted(MEMO))
    return hashlib.sha256("|".join(pieces).encode()).hexdigest()


def schedule_digest(hours):
    parts = [str(hour) for hour in sorted(hours.keys())]
    return hashlib.sha256(",".join(parts).encode()).hexdigest()


def lookup(snapshots, header):
    return snapshots.get(header["fingerprint"])
