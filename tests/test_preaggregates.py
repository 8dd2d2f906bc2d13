"""Pre-aggregates: a grouped query over one fixed base table, joined only to
LATEST event rows and grouped on a LATEST column, whose only aggregate is
COUNT(*), reads a count tile of that table, filled once at setup as a
materialized view. The candidates are exact, each exclusion holds, the plan
reads only the tile, and the log is the one without it."""

from __future__ import annotations

import importlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from diel.ast_nodes import ColumnDef
from diel.compiler import compile_program
from diel.corpus import load_examples
from diel.errors import EngineError, ParseError
from diel.optimizer import PreAggregate, preaggregates
from diel.parser import parse_diel
from diel.planner import FederationPlan, dump_plan, evaluated_on, materialized_on
from diel.session import DbConfig, RunConfig, Session, TraceEntry
from diel.udfs import UdfDef

from conftest import FLIGHT_COLUMNS
from replays import bench_runs, corpus_runs

EXAMPLES = load_examples()
CORPUS = Path(__file__).resolve().parent.parent / "src" / "diel" / "corpus"
DELAY_COUNT = PreAggregate("flights", "flights", ("delay",))


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    return importlib.import_module("workloads")


def preaggregated_reads(plan: FederationPlan):
    """(relation, pre-aggregate view, the view's base table, the name the
    relation reads the view under) of each relation that reads one."""
    for view in plan.materialized:
        if view.startswith("__pre_"):
            base = plan.catalog.relations[view].query.table.name
            for rel in plan.catalog.relations.values():
                for ref in rel.query.table_refs() if rel.query is not None else ():
                    if ref.name == view:
                        yield rel.name, view, base, ref.binding


def workload_config(workload, materialize: bool = True) -> RunConfig:
    databases = [
        DbConfig(inst.name, inst.kind, latency=inst.latency, tables=dict(inst.tables))
        for inst in workload.instances
    ]
    return RunConfig([workload.program], databases, seed=workload.seed, materialize=materialize)


# --- candidates -------------------------------------------------------------------


def test_only_the_zoom_histograms_read_a_preaggregate(workloads):
    """The decision is made over the compiled catalog, `Session.catalog`."""
    found = {}
    configs = {name: example.config() for name, example in EXAMPLES.items()}
    for name, make in workloads.WORKLOADS.items():
        configs[name] = workload_config(make(1, scale=0.2))
    for name, config in configs.items():
        for relation, pre in preaggregates(Session.build(config).catalog).items():
            found[name, relation] = pre
    assert found == {
        ("zoom_histogram", "flightDelayDist"): DELAY_COUNT,
        ("connect_templates", "distAll"): DELAY_COUNT,
        ("local_dashboard", "distAll"): DELAY_COUNT,
    }


def test_materialization_off_builds_no_preaggregate():
    plan = Session.build(EXAMPLES["zoom_histogram"].config(materialize=False)).plan
    assert plan.materialized == {} and not any("__pre_" in sql for sql in plan.relation_sql.values())
    assert "__pre_" not in plan.programs["main"] and "== materialized ==" not in dump_plan(plan)


ZOOM = "CREATE EVENT TABLE zoomItx(minD INT, maxD INT);\n"
BIN = "ROUND(delay / ((z.maxD - z.minD) / 10)) AS bin"
JOIN_ZOOM = "flights JOIN LATEST zoomItx z"
M_COLUMNS = [ColumnDef("k", "INT"), ColumnDef("r", "REAL"), ColumnDef("u", None)]
SCHEMAS = {"flights": FLIGHT_COLUMNS, "m": M_COLUMNS}


def grouped_by_bin(aggregates: str) -> str:
    """A grouped query over flights with a base column in WHERE and inside a
    grouped expression, computing `aggregates`."""
    return (
        f"SELECT {BIN}, {aggregates} FROM {JOIN_ZOOM} WHERE flight_year > z.minD / 20 + 1996 "
        "GROUP BY bin HAVING bin >= z.minD ORDER BY bin DESC"
    )


# every aggregate but AVG and TOTAL, which the exclusions below list too
EVERY_AGGREGATE = grouped_by_bin(
    "COUNT(), COUNT(distance) AS n, SUM(distance) AS s, MIN(origin) AS lo, MAX(distance) AS hi"
)
COUNT_BY_BIN = grouped_by_bin("COUNT() AS n, COUNT(*) + 1 AS m")


def test_a_count_tile_is_keyed_on_every_base_column_its_query_reads():
    catalog = compile_program(parse_diel(ZOOM + f"CREATE OUTPUT o AS {COUNT_BY_BIN};"), SCHEMAS)
    assert preaggregates(catalog) == {"o": PreAggregate("flights", "flights", ("flight_year", "delay"))}


# exclusion -> a query it excludes (each over flights or m, joined to LATEST zoomItx)
EXCLUDED = {
    "group by base columns only": f"SELECT origin, COUNT() FROM {JOIN_ZOOM} WHERE delay > z.minD GROUP BY origin",
    "second base table": f"SELECT {BIN}, COUNT() FROM {JOIN_ZOOM} JOIN m ON m.k = delay GROUP BY bin",
    "history table": f"SELECT {BIN}, COUNT() FROM {JOIN_ZOOM} JOIN LATEST zooms h ON h.minD = z.minD GROUP BY bin",
    "plain event table": f"SELECT {BIN}, COUNT() FROM {JOIN_ZOOM} JOIN zoomItx a ON a.minD = z.minD GROUP BY bin",
    "real sum": "SELECT ROUND(k / z.maxD) AS bin, SUM(r) FROM m JOIN LATEST zoomItx z GROUP BY bin",
    # COUNT(x), MIN and MAX would regroup exactly, but no workload asks for them
    "count of a column": grouped_by_bin("COUNT(), COUNT(distance) AS n"),
    "integer sum": grouped_by_bin("COUNT(), SUM(distance) AS s"),
    "min": grouped_by_bin("COUNT(), MIN(origin) AS lo"),
    "max": grouped_by_bin("COUNT(), MAX(distance) AS hi"),
    "avg": f"SELECT {BIN}, AVG(distance) FROM {JOIN_ZOOM} GROUP BY bin",
    "total": f"SELECT {BIN}, TOTAL(distance) FROM {JOIN_ZOOM} GROUP BY bin",
    "aggregate of a latest column": f"SELECT {BIN}, SUM(z.maxD) FROM {JOIN_ZOOM} GROUP BY bin",
    "random": f"SELECT {BIN}, COUNT() FROM {JOIN_ZOOM} GROUP BY bin ORDER BY RANDOM()",
    "python udf": f"SELECT {BIN}, COUNT() FROM {JOIN_ZOOM} WHERE halve(delay) > z.minD GROUP BY bin",
    "bare base column": f"SELECT {BIN}, origin, COUNT() FROM {JOIN_ZOOM} GROUP BY bin",
    "bare base column in having": f"SELECT {BIN}, COUNT() FROM {JOIN_ZOOM} GROUP BY bin HAVING delay > 0",
    "no group by": f"SELECT COUNT() FROM {JOIN_ZOOM} WHERE delay > z.minD",
    "left join": f"SELECT {BIN}, COUNT() FROM LATEST zoomItx z LEFT JOIN flights ON delay > z.minD GROUP BY bin",
    "subquery": f"SELECT {BIN}, COUNT() FROM {JOIN_ZOOM} WHERE delay > (SELECT MIN(k) FROM m) GROUP BY bin",
    "star": f"SELECT z.*, COUNT() FROM {JOIN_ZOOM} GROUP BY z.minD, z.maxD, z.timestep, z.timestamp",
    "no base column outside aggregates": f"SELECT z.minD, COUNT() FROM {JOIN_ZOOM} GROUP BY z.minD",
    "untyped key": "SELECT ROUND(u / z.maxD) AS bin, COUNT() FROM m JOIN LATEST zoomItx z GROUP BY bin",
    "base rowid": f"SELECT ROUND(flights.rowid / z.maxD) AS bin, COUNT() FROM {JOIN_ZOOM} GROUP BY bin",
    "alias named like a column": f"SELECT delay + z.minD AS delay, COUNT() FROM {JOIN_ZOOM} GROUP BY delay",
}


@pytest.mark.parametrize("exclusion", sorted(EXCLUDED))
def test_each_exclusion_leaves_the_query_on_its_base_table(exclusion):
    program = (
        ZOOM
        + "CREATE TABLE zooms(minD INT);"
        + "CREATE PROGRAM AFTER (zoomItx) BEGIN INSERT INTO zooms SELECT minD FROM LATEST zoomItx; END;"
        + f"CREATE OUTPUT o AS {EXCLUDED[exclusion]};"
    )
    halve = {"halve": UdfDef("halve", 1, lambda x: None if x is None else x // 2)}
    catalog = compile_program(parse_diel(program), SCHEMAS, halve)
    assert preaggregates(catalog) == {}


def test_a_preaggregate_name_stands_for_one_base_table_and_key_list():
    """__pre_a_b_c would name a_b keyed on c and a keyed on b and c: the
    second query stays on its base table, and so does one whose table name
    a relation already has, or whose base table has a column named like an
    aggregate column."""
    schemas = {
        "a_b": [ColumnDef("c", "INT")],
        "a": [ColumnDef("b", "INT"), ColumnDef("c", "INT")],
        "d": [ColumnDef("k", "INT")],
        "e": [ColumnDef("k", "INT"), ColumnDef("__count", "INT")],
    }
    program = ZOOM + """
CREATE OUTPUT first AS SELECT ROUND(c / z.maxD) AS bin, COUNT() FROM a_b JOIN LATEST zoomItx z GROUP BY bin;
CREATE OUTPUT second AS SELECT ROUND((b + c) / z.maxD) AS bin, COUNT() FROM a JOIN LATEST zoomItx z GROUP BY bin;
CREATE TABLE __pre_d_k(k INT);
CREATE OUTPUT named AS SELECT ROUND(k / z.maxD) AS bin, COUNT() FROM d JOIN LATEST zoomItx z GROUP BY bin;
CREATE OUTPUT shadowed AS SELECT ROUND(k / z.maxD) AS bin, COUNT() FROM e JOIN LATEST zoomItx z
  WHERE __count > 0 GROUP BY bin;
"""
    catalog = compile_program(parse_diel(program), schemas)
    assert preaggregates(catalog) == {"first": PreAggregate("a_b", "a_b", ("c",))}


def test_corpus_exclusions_stay_on_their_base_tables():
    """slider's distData groups on a base column only; connect's
    followerAgeDist joins three base tables."""
    for name, relation in (("slider", "distData"), ("connect", "followerAgeDist")):
        plan = Session.build(EXAMPLES[name].config()).plan
        assert not any(view.startswith("__pre_") for view in plan.materialized)
        assert "__pre_" not in plan.relation_sql[relation]


def test_count_distinct_is_not_in_the_dialect():
    with pytest.raises(ParseError):
        parse_diel(f"CREATE OUTPUT o AS SELECT {BIN}, COUNT(DISTINCT origin) FROM {JOIN_ZOOM} GROUP BY bin;")


# --- plans --------------------------------------------------------------------------


def opened_tables(engine, sql: str) -> set[str]:
    """The main-database tables a statement's bytecode opens for reading,
    by root page: EXPLAIN QUERY PLAN names a table by its binding, which a
    pre-aggregated query keeps."""
    roots = {page: name for name, page in engine.conn.execute(
        "SELECT name, rootpage FROM sqlite_master WHERE type = 'table'")}
    return {
        roots[p2] for _, opcode, _, p2, p3, *_ in engine.conn.execute("EXPLAIN " + sql)
        if opcode == "OpenRead" and p3 == 0 and p2 in roots
    }


def test_every_preaggregated_read_scans_the_preaggregate_not_its_base(workloads):
    sessions = {name: Session.build(example.config()) for name, example in EXAMPLES.items()}
    sessions["local_dashboard"] = Session.build(workload_config(workloads.local_dashboard(1, scale=0.2)))
    zoom = EXAMPLES["zoom_histogram"]
    remote = [DbConfig("main", "quick"), DbConfig("r1", "remote", latency="fixed(5)", tables=zoom.databases()[0].tables)]
    sessions["zoom_histogram on r1"] = Session.build(RunConfig(zoom.diel_sources(), remote, seed=1))
    checked = []
    for name, session in sessions.items():
        plan, runtime = session.plan, session.runtime
        for relation, view, base, binding in preaggregated_reads(plan):
            for db_id in evaluated_on(plan, relation):
                engine = runtime.engine if db_id == plan.coordinator else runtime.federation.instances[db_id].engine
                opened = opened_tables(engine, plan.relation_sql[relation])
                assert view in opened and base not in opened, (name, relation, opened)
                details = [row[3] for row in engine.conn.execute("EXPLAIN QUERY PLAN " + plan.relation_sql[relation])]
                assert f"SCAN {binding}" in details, details
                checked.append((name, relation, db_id))
    assert sorted(checked) == [
        ("connect_templates", "distAll", "main"),
        ("local_dashboard", "distAll", "main"),
        ("zoom_histogram", "flightDelayDist", "main"),
        ("zoom_histogram on r1", "flightDelayDist", "r1"),
    ]


def test_the_preaggregate_holds_one_row_per_key_with_its_aggregates():
    session = Session.build(EXAMPLES["zoom_histogram"].config())
    engine = session.runtime.engine
    assert session.plan.materialized == {"__pre_flights_delay": frozenset()}
    assert session.plan.relation_sql["__pre_flights_delay"] == (
        "SELECT delay, COUNT(*) AS __count FROM flights GROUP BY delay"
    )
    assert engine.run_query('SELECT * FROM "__pre_flights_delay"')[1] == engine.run_query(
        "SELECT delay, COUNT(*) FROM flights GROUP BY delay ORDER BY delay")[1]
    assert "CREATE TABLE __pre_flights_delay (delay INTEGER, __count);" in session.plan.programs["main"]


def test_dump_plan_lists_each_preaggregate():
    plan = Session.build(EXAMPLES["connect_templates"].config()).plan
    assert (
        "== materialized ==\n__pre_flights_delay @ main, filled once\n"
        "filteredFlights @ main, refreshed on originSelItx\n== outputs =="
        in dump_plan(plan)
    )


def test_cli_dump_plan_prints_the_preaggregates(tmp_path, capsys):
    from diel.cli import main

    example = CORPUS / "examples" / "zoom_histogram"
    args = ["run", "--diel", str(example / "program.diel"), "--db", f"main=quick:{CORPUS / 'data' / 'flights.csv'}",
            "--seed", "7", "--trace", str(example / "trace.jsonl"), "--out", str(tmp_path), "--dump-plan"]
    assert main(args) == 0
    assert "== materialized ==\n__pre_flights_delay @ main, filled once\n" in capsys.readouterr().out
    assert main(args + ["--no-materialize"]) == 0
    assert "== materialized ==" not in capsys.readouterr().out


# --- the log is the one without pre-aggregates ----------------------------------------


def zoom_trace(seed: int, n: int = 40) -> list[TraceEntry]:
    rng = random.Random(seed)
    entries = []
    for i in range(n):
        lo = rng.randint(-40, 60)
        entries.append(TraceEntry(20 * i, "zoomItx", {"minD": lo, "maxD": lo + rng.randint(10, 150)}))
    return entries


def replay_log(config: RunConfig, trace: list[TraceEntry]) -> str:
    session = Session.build(config)
    session.run_replay(trace)
    return session.output_log_text()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["zoom_histogram", "connect_templates"])
def test_corpus_logs_are_equal_with_and_without_preaggregates(name, seed):
    example = EXAMPLES[name]
    traces = [example.trace(), zoom_trace(seed)]
    for trace in traces:
        on, off = (
            replay_log(RunConfig(example.diel_sources(), example.databases(), seed=seed, materialize=m), trace)
            for m in (True, False)
        )
        assert on == off and on


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_local_dashboard_log_is_equal_with_and_without_preaggregates(workloads, seed):
    workload = workloads.local_dashboard(seed, scale=0.2)
    on, off = (replay_log(workload_config(workload, m), workload.trace) for m in (True, False))
    assert on == off and '"output":"distAll"' in on


def nullable_flights(seed: int, n: int = 2000) -> list[tuple]:
    """Flights whose every column is NULL now and then."""
    rng = random.Random(seed)

    def maybe(value):
        return None if rng.random() < 0.05 else value

    return [
        (maybe(rng.choice(["ATL", "BOS", "JFK", "LAX", "SFO"])), maybe("ORD"), maybe(rng.randint(1996, 2000)),
         maybe(rng.randint(-30, 180)), maybe(rng.randint(100, 3000)))
        for _ in range(n)
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_aggregate_renders_as_without_its_preaggregate(seed):
    """`o` is no candidate; `c` reads a count tile whose keys are NULL now and then."""
    program = ZOOM + f"CREATE OUTPUT o AS {EVERY_AGGREGATE};\nCREATE OUTPUT c AS {COUNT_BY_BIN};"
    databases = [DbConfig("main", "quick", tables={"flights": (FLIGHT_COLUMNS, nullable_flights(seed))})]
    config = RunConfig([program], databases, seed=seed)
    assert list(preaggregates(Session.build(config).catalog)) == ["c"]
    on, off = (
        replay_log(RunConfig([program], databases, seed=seed, materialize=m), zoom_trace(seed))
        for m in (True, False)
    )
    shown = Counter(frame["output"] for frame in map(json.loads, on.splitlines()) if frame["rows"])
    assert on == off and shown["o"] > 20 and shown["c"] > 20


# COUNT(*) inside each kind of expression the tile's reader rewrites
COUNT_INSIDE = {
    "case": "CASE WHEN COUNT() > 5 THEN COUNT() ELSE 0 END AS n",
    "not": "NOT COUNT() > 5 AS few",
    "is null": "COUNT() IS NULL AS none, COUNT(*) IS NOT NULL AS some",
    "unary minus": "-COUNT() AS n",
}


@pytest.mark.parametrize("kind", sorted(COUNT_INSIDE))
def test_a_count_inside_any_expression_reads_the_tile(kind):
    program = ZOOM + f"CREATE OUTPUT o AS SELECT {BIN}, {COUNT_INSIDE[kind]} FROM {JOIN_ZOOM} GROUP BY bin;"
    databases = [DbConfig("main", "quick", tables={"flights": (FLIGHT_COLUMNS, nullable_flights(1))})]
    plan = Session.build(RunConfig([program], databases, seed=1)).plan
    assert [(rel, view) for rel, view, *_ in preaggregated_reads(plan)] == [("o", "__pre_flights_delay")]
    assert "SUM(flights.__count)" in plan.relation_sql["o"]
    on, off = (
        replay_log(RunConfig([program], databases, seed=1, materialize=m), zoom_trace(1)) for m in (True, False)
    )
    assert on == off and '"rows":[[' in on


# a sum of group sums adds its terms in another order than the sum of the
# rows: an INT column holds the REAL values given rows (or a .db file) bring
SUMMED = ZOOM + (
    "CREATE OUTPUT o AS SELECT ROUND(k / z.maxD) AS bin, SUM(x) AS s FROM m JOIN LATEST zoomItx z GROUP BY bin;"
)
# rows of m(k, x) -> what the sum of the rows gives (a sum of group sums gives
# [[0.0,1.0]] and [[0.0,0]])
SUMMED_ROWS = {
    "rounding": ([(1, 10**16), (2, 0.5), (1, -10**16), (2, 0.5)], '"rows":[[0.0,0.5]]'),
    "overflow": ([(1, 2**62), (2, 2**62), (1, -2**62), (2, -2**62)], "integer overflow"),
}


def replay_outcome(config: RunConfig, trace: list[TraceEntry]) -> str:
    """The log, or the error the replay raised."""
    try:
        return replay_log(config, trace)
    except EngineError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("rows", sorted(SUMMED_ROWS))
def test_a_sum_renders_as_without_materialization(rows):
    given, expected = SUMMED_ROWS[rows]
    table = {"m": ([ColumnDef("k", "INT"), ColumnDef("x", "INT")], given)}
    trace = [TraceEntry(0, "zoomItx", {"minD": 0, "maxD": 100})]
    on, off = (
        replay_outcome(RunConfig([SUMMED], [DbConfig("main", "quick", tables=table)], seed=1, materialize=m), trace)
        for m in (True, False)
    )
    assert on == off and expected in on


def test_every_tile_of_the_corpus_and_benchmark_programs_holds_its_keys_and_a_count():
    """Each planned tile declares exactly its keys, typed as their base
    columns, and `__count`, untyped."""
    tiles = {}
    for name, _seed, config, _trace in [*corpus_runs(seeds=(1,)), *bench_runs(seeds=(1,))]:
        session = Session.build(config)
        found = {pre.table: pre for pre in preaggregates(session.catalog).values()}
        assert sorted(found) == sorted(view for view in session.plan.materialized if view.startswith("__pre_"))
        for table, pre in found.items():
            types = {c.name: c.type for c in session.catalog.relations[pre.base].columns}
            assert session.plan.catalog.relations[table].columns == [
                *(ColumnDef(key, types[key]) for key in pre.keys), ColumnDef("__count", None)
            ]
            keys = ", ".join(pre.keys)
            assert session.plan.relation_sql[table] == (
                f"SELECT {keys}, COUNT(*) AS __count FROM {pre.base} GROUP BY {keys}"
            )
            tiles.setdefault(table, []).append(name)
    assert tiles == {"__pre_flights_delay": ["connect_templates", "zoom_histogram", "local_dashboard"]}


# a view over local flights that an async view led by r1 reads: the view is
# created on the coordinator, where it is placed, and on r1
SHIPPED_VIEW = ZOOM + """
CREATE VIEW dist AS SELECT ROUND(delay / ((z.maxD - z.minD) / 10)) AS bin, COUNT() AS n
  FROM flights JOIN LATEST zoomItx z GROUP BY bin;
CREATE ASYNC VIEW labelled AS SELECT d.bin, d.n, l.label FROM dist d JOIN labels l ON l.bin = d.bin;
CREATE OUTPUT o AS SELECT bin, n, label FROM LATEST_REQUEST labelled;
"""


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_preaggregated_view_is_filled_wherever_it_is_created(seed):
    flights = {"flights": (FLIGHT_COLUMNS, nullable_flights(seed, 400))}
    labels = {"labels": ([ColumnDef("bin", "INT"), ColumnDef("label", "TEXT")],
                         [(b, f"bin {b}") for b in range(-200, 800)])}
    finals = []
    for databases in (
        [DbConfig("main", "quick", tables={**flights, **labels})],
        [DbConfig("main", "quick", tables=flights), DbConfig("r1", "remote", latency="fixed(5)", tables=labels)],
    ):
        session = Session.build(RunConfig([SHIPPED_VIEW], databases, seed=seed))
        session.run_replay(zoom_trace(seed, 10))
        finals.append([f.rows for f in session.runtime.frames][-1])
    assert session.plan.leaders == {"labelled": "r1"}
    assert session.plan.materialized == {"__pre_flights_delay": frozenset()}
    assert materialized_on(session.plan, "__pre_flights_delay") == ["main", "r1"]
    assert finals[0] == finals[1] and finals[0]
