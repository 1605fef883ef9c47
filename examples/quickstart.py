"""Quickstart: find join-optimization logic bugs in a simulated DBMS with TQS.

This script walks through the full Algorithm 1 pipeline on the shopping-order
dataset of the paper's Figure 3:

1. DSG builds the wide table, discovers/uses its functional dependencies,
   normalizes it into 3NF tables with a RowID map and a join bitmap index, and
   injects noise;
2. queries are generated by random walk on the schema graph and transformed with
   several optimizer hint sets;
3. every transformed query runs on a simulated MySQL whose optimizer carries the
   seeded Table 4 bug profile, and each result set is verified against the
   wide-table ground truth;
4. detected logic bugs are reported with their root-cause fault ids.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import DSG, DSGConfig, Engine, SIM_MYSQL, SQLRenderer, TQS, TQSConfig


def main() -> None:
    print("=== 1. Build the test database (DSG) ===")
    dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=150, seed=7))
    print(dsg.describe())
    print()
    print("Generated schema:")
    renderer = SQLRenderer()
    for table in dsg.ndb.schema.tables:
        for statement in [renderer.create_table(table),
                          *renderer.create_indexes(table)]:
            print(statement + ";")
    print()

    print("=== 2. One generated query and its transformations ===")
    query = dsg.generate_query()
    print(SQLRenderer().query(query))
    transformed = dsg.transform_query(query)
    print(f"... transformed into {len(transformed)} hinted variants, e.g.:")
    print(transformed[1].render())
    truth = dsg.ground_truth(query)
    print(f"ground truth has {len(truth.result)} rows "
          f"(relation: {truth.mode.value})")
    print()

    print("=== 3. Hunt for logic bugs in SimMySQL ===")
    engine = Engine(dsg.database, SIM_MYSQL)
    tqs = TQS(dsg, engine, TQSConfig(seed=7, reduce_failures=True))
    log = tqs.run(iterations=40)
    print(f"queries generated : {tqs.queries_generated}")
    print(f"plans executed    : {tqs.queries_executed}")
    print(f"isomorphic sets   : {tqs.explored_isomorphic_sets}")
    print(f"result            : {log.summary()}")
    print()

    print("=== 4. Detected bug types ===")
    for bug_id in sorted(log.bug_types):
        bug = SIM_MYSQL.active_faults().bug_by_id(bug_id)
        incidents = log.incidents_for_type(bug_id)
        print(f"  [{bug_id:>2}] {bug.severity:<14} {bug.description[:70]}")
        print(f"       incidents: {len(incidents)}")
    first_minimized = next((i for i in log.incidents if i.minimized_sql), None)
    if first_minimized is not None:
        print()
        print("Example minimized failing query:")
        print(first_minimized.minimized_sql)


if __name__ == "__main__":
    main()
