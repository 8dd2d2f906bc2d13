"""What each engine stores is declared with its relation's column types: every
table of every engine has, column by column, the SQLite type of the catalog
column (`engine.sql_type`), and INTEGER for each system column, so stored rows
compare as the query that produced them does. A pre-aggregate's keys take
their base columns' types and its aggregates are untyped. Each materialized
view is a table on exactly the instances `materialized_on` names."""

from __future__ import annotations

from diel.compiler import RelationKind
from diel.engine import sql_type
from diel.planner import materialized_on
from diel.session import Session

from replays import bench_runs, corpus_runs, fixed_shared_view_run


def declared_schemas(session: Session):
    """(instance, table, [(column, declared type)]) of every table of every engine."""
    runtime = session.runtime
    for engine in [runtime.engine, *(inst.engine for inst in runtime.federation.instances.values())]:
        tables = engine.run_query("SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name")[1]
        for (table,) in tables:
            columns = engine.run_query(f'PRAGMA table_xinfo("{table}")')[1]
            yield engine.db_id, table, [(name, type_) for _, name, type_, *_ in columns]


def expected_schema(session: Session, table: str):
    rel = session.plan.catalog.relations[table]
    return [(c.name, sql_type(c.type)) for c in rel.columns] + [(c, "INTEGER") for c in rel.system_columns]


def test_every_table_of_every_engine_is_declared_with_its_catalog_types():
    stored, mismatched, misplaced = set(), set(), set()
    for name, _seed, config, _trace in [*corpus_runs(), *bench_runs(), fixed_shared_view_run()]:
        session = Session.build(config)
        plan = session.plan
        views = set()
        for db_id, table, declared in declared_schemas(session):
            if declared != expected_schema(session, table):
                mismatched.add(f"{name}: {table} on {db_id}")
            rel = plan.catalog.relations[table]
            if rel.kind is RelationKind.VIEW:
                views.add((db_id, table))
            stored.add((rel.kind.value, db_id == plan.coordinator))
        if views != {(db_id, view) for view in plan.materialized for db_id in materialized_on(plan, view)}:
            misplaced.add(name)
    assert not mismatched, sorted(mismatched)
    assert not misplaced, sorted(misplaced)
    # every kind of stored table is covered, on the coordinator and off it
    # (a materialized view, a pre-aggregate among them, is a View, a plain
    # or base table a Table)
    assert stored >= {
        ("EventTable", True), ("HistoryTable", True), ("AsyncView", True), ("View", True),
        ("Table", True), ("EventTable", False), ("Table", False), ("View", False),
    }
