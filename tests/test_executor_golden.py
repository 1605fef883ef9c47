"""Golden digests of the row executor, plus the laziness of its fault seams.

Every ``Engine.execute_with_report`` call of a few seeded campaigns is hashed:
result columns, rows (values and their Python types, in emission order),
fired bug ids and plan text.  The digests were recorded before the executor
moved from dictionary rows to compiled tuple plans, so a change to the
executor that alters any row, fired id or plan line fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import CampaignSpec, run_campaign
from repro.catalog import Column, DatabaseSchema, ForeignKey, TableSchema
from repro.engine import Engine
from repro.engine.dialects import SIM_MARIADB, SIM_MYSQL
from repro.expr import ColumnRef, column
from repro.optimizer import hash_join_hints, standard_hint_sets
from repro.plan import JoinStep, JoinType, QuerySpec, SelectItem, TableRef
from repro.sqlvalue import NULL, bigint, varchar
from repro.storage import Database

CAMPAIGNS = {
    "tqs-mysql": CampaignSpec(kind="tqs", dialect="SimMySQL", dataset_rows=30,
                              hours=4, queries_per_hour=15, seed=3),
    "tqs-mariadb": CampaignSpec(kind="tqs", dialect="SimMariaDB",
                                dataset="kddcup", dataset_rows=30, hours=4,
                                queries_per_hour=15, seed=4),
    "tqs-tidb": CampaignSpec(kind="tqs", dialect="SimTiDB", dataset="tpch",
                             dataset_rows=30, hours=4, queries_per_hour=15,
                             seed=6),
    "diff-widened": CampaignSpec(kind="differential", backend="sqlite",
                                 dataset_rows=20, hours=8, queries_per_hour=24,
                                 seed=5, setop_probability=0.4,
                                 scalar_subquery_probability=0.3,
                                 cte_probability=0.25),
}

#: (number of execute_with_report calls, sha256 over them) per campaign.
GOLDEN = {
    "tqs-mysql": (
        715, "acab35b281cca802cb03a3ff68d2218eeead0a7936eda528e79001cd4efdf0d8"),
    "tqs-mariadb": (
        720, "646789ed69cbeba7cc8aca11f9b35b8695af954afecb5d6fabcbbf033d0a0ca1"),
    "tqs-tidb": (
        736, "fbedd9e3730e42406331b296def36955f7757633302690c4cfa6165a224cca6e"),
    "diff-widened": (
        410, "55db2fcc46c7ae08251185766f628132196278062ca4fe75683d65a148fbbacf"),
}


def _typed(value):
    return (type(value).__name__, repr(value))


def executor_digest(spec: CampaignSpec, monkeypatch) -> tuple:
    """(calls, sha256) over every execute_with_report call of a campaign."""
    digest = hashlib.sha256()
    calls = []
    original = Engine.execute_with_report

    def recording(engine, query, hints=None):
        report = original(engine, query, hints)
        record = (
            report.result.columns,
            tuple(tuple(_typed(v) for v in row) for row in report.result.rows),
            report.fired_bug_ids,
            report.plan_description,
        )
        digest.update(repr(record).encode())
        calls.append(1)
        return report

    monkeypatch.setattr(Engine, "execute_with_report", recording)
    run_campaign(spec)
    return len(calls), digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_executor_digest_matches_the_recorded_one(name, monkeypatch):
    assert executor_digest(CAMPAIGNS[name], monkeypatch) == GOLDEN[name]


# ------------------------------------------------------------------ laziness


def _two_table_db(left_keys, right_keys, key_type=None) -> Database:
    key_type = key_type or varchar(8)
    left = TableSchema("l", [Column("id", bigint()), Column("k", key_type)],
                       implicit_key=("id",))
    right = TableSchema("r", [Column("k", key_type), Column("v", bigint())],
                        implicit_key=("k",))
    db = Database(DatabaseSchema([left, right], [ForeignKey("l", ("k",), "r", ("k",))]))
    for index, key in enumerate(left_keys):
        db.insert("l", {"id": index, "k": key})
    for index, key in enumerate(right_keys):
        db.insert("r", {"k": key, "v": index})
    return db


def _join_query(join_type: JoinType) -> QuerySpec:
    select = [SelectItem(column("l", "id"))]
    if join_type.exposes_right_columns:
        select.append(SelectItem(column("r", "v")))
    return QuerySpec(
        base=TableRef("l", "l"),
        joins=[JoinStep(TableRef("r", "r"), join_type,
                        left_key=ColumnRef("l", "k"),
                        right_key=ColumnRef("r", "k"))],
        select=select,
        distinct=False,
    )


def _seam_bug_ids(dialect, seam):
    return {bug.bug_id for bug in dialect.active_faults().bugs if bug.seam == seam}


def _fired(db, dialect, join_type):
    engine = Engine(db, dialect=dialect)
    fired = set()
    for hints in standard_hint_sets() + [hash_join_hints()]:
        fired |= set(engine.execute_with_report(_join_query(join_type),
                                                hints).fired_bug_ids)
    return fired


@pytest.mark.parametrize("join_type", [JoinType.INNER, JoinType.SEMI])
def test_all_null_keys_fire_no_join_key_bug(join_type):
    # SimMySQL's join_key bugs fire on INNER/SEMI joins over exact-numeric
    # keys, but only once a non-NULL key goes through the key function.
    key_ids = _seam_bug_ids(SIM_MYSQL, "join_key")
    with_keys = _two_table_db([1, 2, NULL], [1, NULL], key_type=bigint())
    assert _fired(with_keys, SIM_MYSQL, join_type) & key_ids
    all_null = _two_table_db([NULL, NULL], [NULL, NULL], key_type=bigint())
    assert not _fired(all_null, SIM_MYSQL, join_type) & key_ids


@pytest.mark.parametrize("join_type", [JoinType.LEFT_OUTER, JoinType.RIGHT_OUTER,
                                       JoinType.FULL_OUTER])
def test_null_pad_fires_only_when_a_padded_row_is_emitted(join_type):
    pad_ids = _seam_bug_ids(SIM_MARIADB, "null_pad")
    # Every key matches, so no row is padded and no padding bug fires.
    matched = _two_table_db(["a", "b"], ["a", "b"])
    assert not _fired(matched, SIM_MARIADB, join_type) & pad_ids
    # One unmatched row on each side: some hint set pads, and the bug fires.
    unmatched = _two_table_db(["a", "x"], ["a", "y"])
    assert _fired(unmatched, SIM_MARIADB, join_type) & pad_ids
