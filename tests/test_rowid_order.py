"""On every engine, each growing table (event, history and async-result
tables, and each instance's shadow of one) keeps rowid order equal to
timestep order, however deliveries reorder. The backlog's rowid cursor
(`Runtime._ship_backlog`), the strict tail and the delta probe rely on it."""

from __future__ import annotations

from diel.compiler import GROWING_KINDS
from diel.session import Session

from replays import bench_runs, corpus_runs

LATENCY = "uniform(0,40)"


def growing_tables(session: Session):
    """(engine, table) of every growing table on every engine of a session."""
    catalog = session.plan.catalog
    runtime = session.runtime
    engines = [runtime.engine] + [inst.engine for inst in runtime.federation.instances.values()]
    for engine in engines:
        tables = engine.run_query("SELECT name FROM sqlite_master WHERE type = 'table'")[1]
        for (table,) in tables:
            rel = catalog.relations.get(table)
            if rel is not None and rel.kind in GROWING_KINDS:
                yield engine, table


def out_of_order(session: Session) -> tuple[list[str], int]:
    """The growing tables whose timesteps fall somewhere in rowid order, and
    how many growing tables were checked."""
    broken, checked = [], 0
    for engine, table in growing_tables(session):
        timesteps = [t for (t,) in engine.run_query(f'SELECT timestep FROM "{table}" ORDER BY rowid')[1]]
        if timesteps != sorted(timesteps):
            broken.append(f"{table} on {engine.db_id}")
        checked += 1
    return broken, checked


def test_rowid_order_is_timestep_order_on_every_engine():
    bench_tables = 0
    runs = [*bench_runs(latency=LATENCY), *corpus_runs(latency=LATENCY, remote_only=True)]
    assert {name for name, *_ in runs} == {
        "local_dashboard", "remote_brush", "remote_reorder_cached",
        "latest_request", "slider_remote", "slider_reordered",
    }
    for name, seed, config, trace in runs:
        session = Session.build(config)
        session.run_replay(trace)
        broken, checked = out_of_order(session)
        assert not broken, (name, seed, broken)
        if name in ("local_dashboard", "remote_brush", "remote_reorder_cached"):
            bench_tables += checked
    assert bench_tables == 51
