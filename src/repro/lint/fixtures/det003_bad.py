# repro-lint: path=repro/distributed/server.py
"""Deliberately broken: non-canonical inputs feeding a campaign fingerprint."""
import hashlib

MEMO = {}


def campaign_fingerprint(shards, params):
    tag = id(shards)
    salt = hash(params)
    pieces = [str(tag), str(salt)]
    pieces.extend(f"{k}={v}" for k, v in MEMO.items())
    return hashlib.sha256("|".join(pieces).encode()).hexdigest()


def schedule_digest(hours):
    parts = [str(hour) for hour in hours.keys()]
    return hashlib.sha256(",".join(parts).encode()).hexdigest()


def lookup(snapshots, header):
    # id()/hash() are banned everywhere in server.py, not just key builders.
    return snapshots.get(id(header))
