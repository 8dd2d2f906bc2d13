from __future__ import annotations

import pytest

from diel.ast_nodes import InsertStatement
from diel.compiler import compile_program
from diel.corpus import Example, load_examples, run_example
from diel.errors import MissingExampleError
from diel.parser import parse_diel, tokenize
from diel.planner import base_schemas_of
from diel.printer import query_sql
from diel.session import Session

from latest_oracle import desugar_latest

EXAMPLES = load_examples()


def test_corpus_has_at_least_twelve_programs():
    assert len(EXAMPLES) >= 12


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_parses_and_compiles(name):
    example = EXAMPLES[name]
    statements = parse_diel("\n".join(example.diel_sources()))
    assert statements
    descriptors = []
    from diel.planner import DbDescriptor

    for db in example.databases():
        descriptors.append(
            DbDescriptor(db.name, db.kind, {t: cols for t, (cols, _r) in db.tables.items()}, {})
        )
    catalog = compile_program(statements, base_schemas_of(descriptors))
    assert any(r.kind.value == "Output" for r in catalog.relations.values())


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_lowered_sql_equals_printed_desugared_ast(name):
    """Lowering while printing gives exactly what lowering `desugar_latest`'s
    AST gives (which has no LATEST left, so only its built-in calls are
    inlined), for every query relation and every program command; a command
    that selects a whole output (`SELECT * FROM o`) runs that output's read.
    Built without materialization, which would also read pre-aggregates."""
    session = Session.build(EXAMPLES[name].config(materialize=False))
    plan, catalog = session.plan, session.plan.catalog
    queries = {rel.name: rel.query for rel in catalog.relations.values() if rel.query is not None}
    assert set(plan.relation_sql) == set(queries)
    assert set(plan.materialized) <= set(queries)
    for relation, query in queries.items():
        assert plan.relation_sql[relation] == query_sql(desugar_latest(query, catalog), lower=True), relation
    assert set(plan.program_sql) == set(catalog.programs)
    for program in catalog.programs.values():
        for command, sqls in zip(program.commands, plan.program_sql[program.name], strict=True):
            query = command.select if isinstance(command, InsertStatement) else command
            printed = query_sql(desugar_latest(query, catalog), lower=True)
            assert sqls == [plan.output_sql.get(printed.removeprefix("SELECT * FROM "), printed)]


LOWERED = {
    # LATEST inside a scalar subquery: the conjunct goes to that subquery's WHERE
    ("undo", "curUndoSel"): (
        "SELECT id FROM allSels AS s WHERE (rowid = ((SELECT MAX(rowid) FROM allSels) - "
        "(SELECT ((COUNT(*) * 2) - 1) FROM undoItx AS u JOIN clickItx AS c "
        "ON (u.timestep > c.timestep) WHERE (c.timestep = (SELECT MAX(timestep) FROM clickItx)))))"
    ),
    ("latest_request", "distData"): (
        "SELECT * FROM distDataEvent WHERE (distDataEvent.request_timestep = "
        "(SELECT MAX(request_timestep) FROM distDataEvent))"
    ),
    # an aliased reference is constrained through its alias
    ("connect_templates", "distAll"): (
        "SELECT (ROUND((delay / ((z.maxD - z.minD) / 10))) * ((z.maxD - z.minD) / 10)) AS delayBin, "
        "COUNT(*) AS count FROM flights JOIN zoomItx AS z "
        "WHERE (z.timestep = (SELECT MAX(timestep) FROM zoomItx)) "
        "GROUP BY delayBin HAVING ((delayBin < z.maxD) AND (delayBin > z.minD))"
    ),
    # a written WHERE comes first, the conjunct is ANDed after it
    ("reaction_time", "skipUnintendedClick"): (
        "SELECT item FROM clickItx WHERE ((timestamp > ((SELECT max(timestamp) FROM menuDataItx) + 200)) "
        "AND (clickItx.timestep = (SELECT MAX(timestep) FROM clickItx)))"
    ),
}


@pytest.mark.parametrize("name, relation", sorted(LOWERED))
def test_lowered_sql_of_nested_aliased_and_filtered_latest(name, relation):
    session = Session.build(EXAMPLES[name].config(materialize=False))
    assert session.plan.relation_sql[relation] == LOWERED[name, relation]


def test_lowered_sql_of_a_preaggregated_query():
    """With materialization on, distAll reads flights' pre-aggregate under the
    name flights: COUNT(*) becomes the SUM of the per-delay counts."""
    session = Session.build(EXAMPLES["connect_templates"].config())
    assert session.plan.relation_sql["distAll"] == LOWERED["connect_templates", "distAll"].replace(
        "COUNT(*) AS count FROM flights", "SUM(flights.__count) AS count FROM __pre_flights_delay AS flights"
    )


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_tokens_match_their_source_positions(name):
    for source in EXAMPLES[name].diel_sources():
        lines = source.split("\n")
        tokens = tokenize(source)
        assert tokens[-1].kind == "eof" and tokens[-1].pos == len(source)
        for tok in tokens[:-1]:
            assert tok.lexeme and source[tok.pos : tok.pos + len(tok.lexeme)] == tok.lexeme
            line_start = source.rfind("\n", 0, tok.pos) + 1
            assert tok.line == source.count("\n", 0, tok.pos) + 1
            assert tok.col == tok.pos - line_start + 1
            assert lines[tok.line - 1][tok.col - 1 :].startswith(tok.lexeme)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_golden_log_replays_bit_identically(name):
    example = EXAMPLES[name]
    session = run_example(example)
    assert session.output_log_text() == example.golden_text()


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_every_created_view_can_be_read(name):
    """Each instance's program creates only views over what that instance holds."""
    runtime = Session.build(EXAMPLES[name].config()).runtime
    engines = [runtime.engine]
    if runtime.federation is not None:
        engines += [instance.engine for instance in runtime.federation.instances.values()]
    for engine in engines:
        views = [row[0] for row in engine.conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'view'")]
        for view in views:
            engine.run_query(f'SELECT * FROM "{view}" LIMIT 0', context=view)


def test_missing_dataset_is_reported_by_name(tmp_path):
    manifest = {
        "name": "broken",
        "diel": ["program.diel"],
        "trace": "trace.jsonl",
        "databases": [
            {"name": "main", "kind": "quick",
             "tables": [{"table": "ghost", "csv": "data/ghost.csv"}]}
        ],
        "seed": 1,
    }
    directory = tmp_path / "broken"
    directory.mkdir()
    (directory / "program.diel").write_text("CREATE EVENT TABLE e(x INT);")
    (directory / "trace.jsonl").write_text("")
    example = Example("broken", directory, manifest)
    with pytest.raises(MissingExampleError) as exc_info:
        example.databases()
    assert "ghost.csv" in str(exc_info.value)


def test_trace_events_name_declared_event_tables():
    from diel.compiler import RelationKind
    from diel.planner import DbDescriptor

    for name, example in EXAMPLES.items():
        descriptors = [
            DbDescriptor(db.name, db.kind, {t: cols for t, (cols, _r) in db.tables.items()}, {})
            for db in example.databases()
        ]
        catalog = compile_program(
            parse_diel("\n".join(example.diel_sources())), base_schemas_of(descriptors)
        )
        for entry in example.trace():
            rel = catalog.relations[entry.event]
            assert rel.kind is RelationKind.EVENT_TABLE, (name, entry.event)
            assert set(entry.payload) == {c.name for c in rel.columns}, (name, entry.event)


def test_connect_templates_materializes_the_shared_view():
    session = run_example(EXAMPLES["connect_templates"])
    assert "filteredFlights" in session.plan.materialized


def test_undo_example_documents_the_formula_choice():
    readme = (EXAMPLES["undo"].directory / "README.md").read_text()
    assert "(A, B, C, B, A)" in readme
    assert "(A, B, C, B, C)" in readme


def test_manifest_fields_are_complete():
    for example in EXAMPLES.values():
        assert example.manifest["diel"]
        assert example.manifest["trace"]
        assert isinstance(example.manifest.get("seed"), int)
        kinds = [db["kind"] for db in example.manifest["databases"]]
        assert kinds.count("quick") == 1
