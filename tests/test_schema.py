"""What each engine stores is declared with its relation's column types: every
table of every engine has, column by column, the SQLite type of the catalog
column (`engine.sql_type`), and INTEGER for each system column, so stored rows
compare as the query that produced them does. A pre-aggregate's keys take
their base columns' types and its aggregates are untyped. Each materialized
view is a table on exactly the instances `materialized_on` names. Each engine
holds exactly the tables its program creates (`plan.stored`), its file's on a
page copy and its materialized views, and each base table holds its owner's
rows wherever it is."""

from __future__ import annotations

from diel.compiler import RelationKind
from diel.engine import sql_type
from diel.planner import materialized_on
from diel.session import Session

from replays import bench_file_runs, bench_runs, corpus_runs, fixed_shared_view_run, placement_runs


def engines(session: Session):
    runtime = session.runtime
    return [runtime.engine, *(inst.engine for inst in runtime.federation.instances.values())]


def declared_schemas(session: Session):
    """(instance, table, [(column, declared type)]) of every table of every engine."""
    for engine in engines(session):
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


def test_each_engine_holds_the_tables_its_program_creates_and_its_owners_rows(tmp_path):
    """Setup loads each base table into exactly the instances `plan.stored`
    lists for it: an engine holds those tables, its file's tables when it
    starts as the page copy of a file, and the materialized views
    `materialized_on` places there; every copy of a base table holds its
    owner's rows, rowids included, in rowid order."""
    runs = [
        *corpus_runs(seeds=(1,)),
        *bench_runs(seeds=(1,)),
        *bench_file_runs(tmp_path),
        *((f"{name} {placement}", 1, config, trace) for name, placement, config, trace in placement_runs()),
    ]
    wrong, unlike, loads = [], [], set()
    for name, _seed, config, _trace in runs:
        session = Session.build(config)
        plan = session.plan
        bases = [rel.name for rel in plan.catalog.relations.values() if rel.is_base]
        rows = {}
        for engine in engines(session):
            db_id = engine.db_id
            held = {t for (t,) in engine.run_query("SELECT name FROM sqlite_master WHERE type = 'table'")[1]}
            expected = (
                set(plan.stored[db_id])
                | {t for t in plan.page_copied if plan.placement[t] == db_id}
                | {view for view in plan.materialized if db_id in materialized_on(plan, view)}
            )
            if held != expected:
                wrong.append(f"{name}: {db_id} holds {sorted(held ^ expected)} against its plan")
            for table in held.intersection(bases):
                rows[table, db_id] = engine.run_query(f'SELECT _rowid_, * FROM "{table}" ORDER BY _rowid_')[1]
                source = "rows" if table not in plan.file_loads else "file"
                loads.add((source, "owner" if db_id == plan.placement[table] else "snapshot"))
        for (table, db_id), copy in rows.items():
            if copy != rows[table, plan.placement[table]]:
                unlike.append(f"{name}: {table} on {db_id}")
    assert not wrong, wrong
    assert not unlike, unlike
    # given rows and a file's table, each at its owner and in a snapshot
    assert loads == {(source, where) for source in ("rows", "file") for where in ("owner", "snapshot")}
