"""What each engine stores is declared with its relation's column types: every
table of every engine has, column by column, the SQLite type of the catalog
column (`engine.sql_type`), and INTEGER for each system column, so stored rows
compare as the query that produced them does. A pre-aggregate's keys take
their base columns' types and its aggregates are untyped."""

from __future__ import annotations

from diel.engine import sql_type
from diel.session import Session

from replays import bench_runs, corpus_runs


def declared_schemas(session: Session):
    """(instance, table, [(column, declared type)]) of every table of every engine."""
    runtime = session.runtime
    for engine in [runtime.engine, *(inst.engine for inst in runtime.federation.instances.values())]:
        tables = engine.run_query("SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name")[1]
        for (table,) in tables:
            columns = engine.run_query(f'PRAGMA table_xinfo("{table}")')[1]
            yield engine.db_id, table, [(name, type_) for _, name, type_, *_ in columns]


def expected_schema(session: Session, table: str, declared: list[tuple[str, str]]):
    plan = session.plan
    rel = plan.catalog.relations.get(table)
    if rel is not None:
        return [(c.name, sql_type(c.type)) for c in rel.columns] + [(c, "INTEGER") for c in rel.system_columns]
    pre = next(pre for pre in plan.preaggregates.values() if pre.table == table)
    base = {c.name: c.type for c in plan.catalog.relations[pre.base].columns}
    keys = [(key, sql_type(base[key])) for key in pre.keys]
    return keys + [(name, "") for name, _ in declared[len(keys):]]


def test_every_table_of_every_engine_is_declared_with_its_catalog_types():
    stored, mismatched = set(), set()
    for name, _seed, config, _trace in [*corpus_runs(), *bench_runs()]:
        session = Session.build(config)
        for db_id, table, declared in declared_schemas(session):
            if declared != expected_schema(session, table, declared):
                mismatched.add(f"{name}: {table} on {db_id}")
            rel = session.plan.catalog.relations.get(table)
            stored.add((rel.kind.value if rel else "PreAggregate", db_id == session.plan.coordinator))
    assert not mismatched, sorted(mismatched)
    # every kind of stored table is covered, on the coordinator and off it
    # (a materialized view is a View, a plain or base table a Table)
    assert stored >= {
        ("EventTable", True), ("HistoryTable", True), ("AsyncView", True), ("View", True),
        ("Table", True), ("PreAggregate", True), ("EventTable", False), ("Table", False),
    }
