"""Walk through DSG's data pipeline on the paper's Figure 3/4 running example.

Shows every intermediate artifact of §3: the wide table, the discovered
functional dependencies, the 3NF decomposition with implicit keys and foreign
keys, the RowID map, the join bitmap index, and the effect of noise injection on
all of them -- then recovers the ground truth of the Example 3.5 query
("SELECT price ... WHERE goodsName = 'flower'") from the bitmaps.

Run with:  python examples/inspect_normalization.py
"""

from __future__ import annotations

import random

from repro.analysis import render_table
from repro.dsg import (
    NoiseInjector,
    build_dataset,
    discover_fds,
    normalize,
)
from repro.expr import ColumnRef, Comparison, Literal, column
from repro.plan import JoinStep, JoinType, QuerySpec, SelectItem, TableRef
from repro.plan.sqlrender import SQLRenderer


def show_wide(ndb, limit=8):
    columns = list(ndb.wide.column_names)
    rows = [[i] + [str(ndb.wide.row(i)[c]) for c in columns] for i in range(min(limit, len(ndb.wide)))]
    print(render_table(["RowID"] + columns, rows, title="Wide table (first rows)"))


def show_bitmap(ndb, limit=10):
    tables = [t.name for t in ndb.tables]
    rows = []
    for wide_id in range(min(limit, len(ndb.wide))):
        rows.append([wide_id] + [int(ndb.bitmap.get(t, wide_id)) for t in tables])
    print(render_table(["RowID"] + tables, rows, title="Join bitmap index (Figure 4b)"))


def main() -> None:
    spec = build_dataset("shopping", 40, random.Random(3))

    print("=== Functional dependencies discovered from the data (TANE-style) ===")
    for fd in discover_fds(spec.wide, max_lhs_size=1):
        print("  ", fd.render())
    print()

    print("=== 3NF decomposition (paper Example 3.1) ===")
    ndb = normalize(spec.wide, fds=spec.planted_fds, key_override=spec.key_columns)
    for table in ndb.tables:
        role = "hub" if table.is_hub else "dimension"
        print(f"  {table.name} ({role}): columns={table.columns} "
              f"implicit key={table.implicit_key}")
    for fk in ndb.schema.foreign_keys:
        print(f"  FK: {fk.table}.{fk.columns[0]} -> {fk.ref_table}.{fk.ref_columns[0]}")
    print()
    show_wide(ndb)
    print()
    show_bitmap(ndb)
    print()

    print("=== Noise injection (paper §3.2) and re-synchronization ===")
    report = NoiseInjector(ndb, rng=random.Random(5), epsilon=0.1).inject()
    print(f"injected {report.count} noise values; "
          f"augmented tables: {sorted(report.augmented_tables)}")
    for event in report.events[:5]:
        print(f"  case {event.case}: {event.table}.{event.column}[row {event.row_id}] "
              f"{event.old_value!r} -> {event.new_value!r}")
    print()
    show_bitmap(ndb)
    print()

    print("=== Ground truth via bitmaps (paper Example 3.5) ===")
    goods = next(t.name for t in ndb.tables if "goodsId" in t.implicit_key and not t.is_hub)
    prices = next(t.name for t in ndb.tables if "goodsName" in t.implicit_key)
    query = QuerySpec(
        base=TableRef(goods, goods),
        joins=[JoinStep(TableRef(prices, prices), JoinType.INNER,
                        left_key=ColumnRef(goods, "goodsName"),
                        right_key=ColumnRef(prices, "goodsName"))],
        select=[SelectItem(column(prices, "price"))],
        where=Comparison("=", column(goods, "goodsName"), Literal("flower")),
    )
    print(SQLRenderer().query(query))
    from repro.dsg import GroundTruthOracle

    truth = GroundTruthOracle(ndb).compute(query)
    print(f"ground-truth bitmap selects wide rows {truth.wide_row_ids[:12]} ...")
    print("ground-truth result:")
    print(truth.result.render())


if __name__ == "__main__":
    main()
