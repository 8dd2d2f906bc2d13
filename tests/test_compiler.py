from __future__ import annotations

import random

import pytest

from diel.ast_nodes import ColumnDef, ColumnRef, Star, walk
from diel.compiler import (
    Catalog,
    RelationKind,
    all_queries,
    all_table_refs,
    check_constraints_wellformed,
    compile_program,
    dump_ir,
    infer_output_columns,
)
from diel.engine import SqlEngine
from diel.errors import (
    AmbiguousColumnError,
    CompileError,
    CyclicDependencyError,
    DuplicateRelationError,
    LatestOnNonEventError,
    MissingBindingError,
    ReservedColumnNameError,
    SubstitutionParseError,
    UnknownColumnError,
    UnknownSourceRelationError,
    UnknownTemplateError,
    UnknownUdfError,
)
from diel.parser import parse_diel, parse_query
from diel.printer import query_sql
from diel.session import DbConfig, RunConfig, Session, TraceEntry

from conftest import BASE_SCHEMAS
from latest_oracle import desugar_latest
from listing_texts import ALL_LISTINGS, SLIDER, TEMPLATE_FILTER, UNDO
from replays import bench_runs, corpus_runs


def compile_listing(text: str, base_schemas=None):
    return compile_program(parse_diel(text), base_schemas or BASE_SCHEMAS)


def schemas_for(name: str) -> dict:
    schemas = {k: list(v) for k, v in BASE_SCHEMAS.items()}
    if name == "realtime_tweets":
        del schemas["tweets"]  # that program declares tweets as an event table
    return schemas


# --- template expansion ---------------------------------------------------------


def test_template_expansion_produces_two_outputs():
    catalog = compile_listing(TEMPLATE_FILTER)
    outputs = {r.name: r for r in catalog.by_kind(RelationKind.OUTPUT)}
    assert set(outputs) == {"distAll", "distFiltered"}
    assert outputs["distAll"].query.table.name == "flights"
    assert outputs["distFiltered"].query.table.name == "filteredFlights"


def test_template_used_twice_differs_only_in_table_ref():
    catalog = compile_listing(TEMPLATE_FILTER)
    a, b = (r.query for r in catalog.by_kind(RelationKind.OUTPUT))
    a_norm = parse_query(query_sql(a).replace("flights", "XX", 1))
    b_norm = parse_query(query_sql(b).replace("filteredFlights", "XX", 1))
    assert a_norm == b_norm


def test_unknown_template_and_missing_binding():
    with pytest.raises(UnknownTemplateError):
        compile_listing("CREATE OUTPUT o AS USE TEMPLATE nope(v='x');")
    with pytest.raises(MissingBindingError):
        compile_listing(
            "CREATE TEMPLATE t(a, b) AS SELECT {a}, {b} FROM x;"
            "CREATE OUTPUT o AS USE TEMPLATE t(a='1');"
        )


def test_template_substitution_is_token_level():
    # the variable value lexes into tokens; identifiers around the slot are untouched
    catalog = compile_listing(
        "CREATE TABLE rel(var_tab INT);"
        "CREATE TEMPLATE t(tab) AS SELECT var_tab FROM {tab};"
        "CREATE VIEW v AS USE TEMPLATE t(tab='rel');"
    )
    query = catalog.relation("v").query
    assert query.table.name == "rel"
    assert query.items[0].expr.column == "var_tab"


def test_a_binding_that_does_not_parse_after_substitution_is_a_typed_error():
    with pytest.raises(SubstitutionParseError, match="template 't' body does not parse"):
        compile_listing(
            "CREATE TEMPLATE t(col) AS SELECT {col} FROM flights;"
            "CREATE OUTPUT o AS USE TEMPLATE t(col='x FROM');"
        )


# --- schema copy ----------------------------------------------------------------


def test_schema_copy_from_declared_event_table():
    catalog = compile_listing(
        "CREATE EVENT TABLE brushItx(latMin REAL, lonMin REAL, latMax REAL, lonMax REAL);"
        "CREATE EVENT TABLE mapItx AS brushItx;"
    )
    copied = catalog.relation("mapItx")
    assert copied.kind is RelationKind.EVENT_TABLE
    assert [(c.name, c.type) for c in copied.columns] == [
        ("latMin", "REAL"), ("lonMin", "REAL"), ("latMax", "REAL"), ("lonMax", "REAL"),
    ]


def test_schema_copy_zero_columns():
    catalog = compile_listing("CREATE EVENT TABLE resetItx(); CREATE EVENT TABLE againItx AS resetItx;")
    assert catalog.relation("againItx").columns == []


def test_schema_copy_chain_and_forward_reference():
    chained = compile_listing(
        "CREATE TABLE a(x INT);"
        "CREATE TABLE b AS a;"
        "CREATE TABLE c AS b;"
    )
    assert [(c.name, c.type) for c in chained.relation("c").columns] == [("x", "INT")]
    with pytest.raises(UnknownSourceRelationError):
        compile_listing("CREATE TABLE b AS a; CREATE TABLE a(x INT);")


def test_schema_copy_of_a_base_table_and_not_of_a_view():
    catalog = compile_listing("CREATE EVENT TABLE pickItx AS flights;")
    assert catalog.relation("pickItx").columns == catalog.relation("flights").columns
    with pytest.raises(UnknownSourceRelationError):
        compile_listing("CREATE VIEW v AS SELECT origin FROM flights; CREATE TABLE t AS v;")


def test_faults_are_reported_in_statement_order():
    with pytest.raises(DuplicateRelationError):
        compile_listing("CREATE TABLE a(x INT); CREATE TABLE a(y INT); CREATE TABLE b AS nowhere;")


def test_schema_copy_drops_check_constraints():
    catalog = compile_listing("CREATE EVENT TABLE s(size INT CHECK size > 0); CREATE TABLE t AS s;")
    assert catalog.relation("t").columns[0].check is None


# --- system column augmentation ---------------------------------------------------


def test_augmentation_by_kind():
    catalog = compile_listing(SLIDER)
    slide = catalog.relation("slideItx")
    assert [c.name for c in slide.columns] == ["flight_year"]
    assert slide.system_columns == ("timestep", "timestamp")
    assert catalog.relation("flights").system_columns == ()


def test_async_view_gains_request_timestep():
    catalog = compile_listing(ALL_LISTINGS["slider_async"])
    assert catalog.relation("distDataEvent").system_columns == (
        "timestep", "timestamp", "request_timestep",
    )


def test_history_table_gains_timestep_only():
    catalog = compile_listing(UNDO)
    all_sels = catalog.relation("allSels")
    assert all_sels.kind is RelationKind.HISTORY_TABLE
    assert all_sels.system_columns == ("timestep",)


def test_reserved_column_name_rejected():
    with pytest.raises(ReservedColumnNameError):
        compile_listing("CREATE EVENT TABLE bad(timestep INT);")


@pytest.mark.parametrize("column", ["rowid", "_rowid_", "oid", "RowId", "_ROWID_", "OID"])
@pytest.mark.parametrize("declaration", [
    "CREATE EVENT TABLE bad({column} INT, x INT);",
    "CREATE TABLE bad({column} INT, x INT);",
    "CREATE EVENT TABLE e(x INT);\nCREATE TABLE bad({column} INT, x INT);\n"
    "CREATE PROGRAM AFTER (e) BEGIN INSERT INTO bad SELECT x, x FROM LATEST e; END;",
    "CREATE EVENT TABLE e(x INT);\nCREATE ASYNC VIEW bad AS SELECT x AS {column}, x FROM e;",
], ids=["event", "plain", "history", "async"])
def test_a_column_may_not_take_a_rowid_name(declaration, column):
    """SQLite's rowid names refer to a declared column of that name, case
    folded, and the runtime reads these tables' rowids (an async view's in
    its result table)."""
    with pytest.raises(ReservedColumnNameError, match="shadows the rowid"):
        compile_listing(declaration.format(column=column), base_schemas={})


def test_a_base_table_keeps_a_rowid_named_column():
    catalog = compile_listing(
        "CREATE OUTPUT o AS SELECT oid FROM places;",
        base_schemas={"places": [ColumnDef("oid", "INT")]},
    )
    assert [c.name for c in catalog.relations["places"].columns] == ["oid"]


# --- LATEST desugaring -------------------------------------------------------------


def test_desugar_single_latest():
    catalog = compile_listing(SLIDER)
    query = desugar_latest(parse_query("SELECT flight_year FROM LATEST slideItx"), catalog)
    sql = query_sql(query)
    assert "LATEST" not in sql
    assert "slideItx.timestep = (SELECT MAX(timestep) FROM slideItx)" in sql


def test_desugar_without_latest_is_identity():
    catalog = compile_listing(SLIDER)
    query = parse_query("SELECT origin FROM flights")
    assert desugar_latest(query, catalog) == query


def test_desugar_latest_request():
    catalog = compile_listing(ALL_LISTINGS["slider_latest_request"])
    query = desugar_latest(parse_query("SELECT * FROM LATEST_REQUEST distDataEvent"), catalog)
    sql = query_sql(query)
    assert "request_timestep = (SELECT MAX(request_timestep) FROM distDataEvent)" in sql


def test_desugar_rejects_non_event_relation():
    catalog = compile_listing(SLIDER)
    with pytest.raises(LatestOnNonEventError):
        desugar_latest(parse_query("SELECT * FROM LATEST flights"), catalog)


def test_latest_request_requires_request_timestep_column():
    catalog = compile_listing(SLIDER)
    # event tables carry timestep but not request_timestep
    with pytest.raises(LatestOnNonEventError):
        desugar_latest(parse_query("SELECT * FROM LATEST_REQUEST slideItx"), catalog)


def test_async_view_payload_may_not_shadow_system_columns():
    with pytest.raises(ReservedColumnNameError):
        compile_listing(
            "CREATE EVENT TABLE e(x INT);"
            "CREATE ASYNC VIEW v AS SELECT x AS timestep FROM e;",
            base_schemas={},
        )


def test_desugar_two_latest_refs_matches_brute_force():
    """Join of two LATEST tables equals picking max-timestep rows by enumeration."""
    catalog = compile_listing(
        "CREATE EVENT TABLE brushItx(latMin REAL, lonMin REAL, latMax REAL, lonMax REAL);"
        "CREATE EVENT TABLE mapItx AS brushItx;",
        base_schemas={},
    )
    query = parse_query(
        "SELECT b.latMin, m.latMin FROM LATEST brushItx AS b "
        "JOIN LATEST mapItx AS m ON b.timestep > m.timestep"
    )
    desugared = desugar_latest(query, catalog)
    assert query_sql(desugared).count("SELECT MAX(timestep)") == 2

    rng = random.Random(7)
    for _ in range(25):
        engine = SqlEngine("test")
        engine.execute_script(
            "CREATE TABLE brushItx(latMin REAL, lonMin REAL, latMax REAL, lonMax REAL,"
            " timestep INTEGER, timestamp INTEGER);"
            "CREATE TABLE mapItx(latMin REAL, lonMin REAL, latMax REAL, lonMax REAL,"
            " timestep INTEGER, timestamp INTEGER);"
        )
        for table in ("brushItx", "mapItx"):
            rows = [
                (rng.randint(0, 5), 0.0, 9.0, 9.0, rng.randint(1, 40), 0)
                for _ in range(rng.randint(0, 100))
            ]
            engine.insert_rows(table, rows)
        got = sorted(engine.run_query(query_sql(desugared))[1])

        # brute force: enumerate rows at each table's max timestep, then join
        def rows_at_max(table):
            rows = engine.run_query(f'SELECT * FROM "{table}"')[1]
            if not rows:
                return []
            max_ts = max(r[4] for r in rows)
            return [r for r in rows if r[4] == max_ts]

        expected = sorted(
            (b[0], m[0])
            for b in rows_at_max("brushItx")
            for m in rows_at_max("mapItx")
            if b[4] > m[4]
        )
        assert got == expected


# --- dependency graph ---------------------------------------------------------------


def test_slider_dependencies():
    catalog = compile_listing(SLIDER)
    assert set(catalog.graph.reads["distData"]) == {"flights", "slideItx"}


def test_isolated_table_node():
    catalog = compile_listing("CREATE TABLE solo(x INT);", base_schemas={})
    assert catalog.graph.reads["solo"] == ()


def test_undo_graph_edges_and_acyclicity():
    catalog = compile_listing(UNDO, base_schemas={})
    reads = catalog.graph.reads
    assert set(reads["currSel"]) == {"clickItx", "curUndoSel"}
    assert set(reads["curUndoSel"]) == {"allSels", "undoItx", "clickItx"}
    assert catalog.graph.program_writes == {
        "clickItx": ("allSels",),
        "undoItx": ("allSels",),
    }
    # staged program writes break the textual cycle, so a topo order exists
    order = catalog.graph.topological_order()
    assert order.index("curUndoSel") < order.index("currSel")


def test_view_cycle_is_rejected():
    with pytest.raises(CyclicDependencyError) as exc_info:
        compile_listing(
            "CREATE VIEW a AS SELECT x FROM b; CREATE VIEW b AS SELECT x FROM a;",
            base_schemas={},
        )
    assert set(exc_info.value.cycle) == {"a", "b"}


# --- constraint well-formedness -------------------------------------------------------


def test_check_constraint_ok():
    catalog = compile_listing(ALL_LISTINGS["reconfigure_sample"])
    assert check_constraints_wellformed(catalog) == []


def test_check_referencing_other_column_is_diagnosed():
    # a subquery or an unknown function would fail on every event at run time
    for check, named in [
        ("other > 0", "other"),
        ("(size <= (SELECT m FROM LATEST lim))", "subquery"),
        ("frob(size) > 0", "frob"),
    ]:
        catalog = compile_listing(
            f"CREATE TABLE lim(m INT); CREATE EVENT TABLE e(size INT CHECK {check});",
            base_schemas={},
        )
        diagnostics = check_constraints_wellformed(catalog)
        assert len(diagnostics) == 1 and named in diagnostics[0], check


def test_not_empty_on_unknown_view_is_diagnosed():
    catalog = compile_listing("CREATE TABLE t(x INT); ghost NOT EMPTY;", base_schemas={})
    diagnostics = [d for d in catalog.diagnostics if "ghost" in d]
    assert diagnostics and "NOT EMPTY" in diagnostics[0]


# --- resolution ------------------------------------------------------------------------


def test_unknown_column_rejected():
    with pytest.raises(UnknownColumnError):
        compile_listing("CREATE VIEW v AS SELECT nope FROM flights;")


def test_an_unqualified_name_falls_back_to_the_enclosing_scope():
    """`k` in the subquery is not a column of u, so it names the outer t.k."""
    t = ([ColumnDef("k", "INT"), ColumnDef("v", "INT")], [(1, 5), (2, 1), (3, 9)])
    u = ([ColumnDef("j", "INT"), ColumnDef("x", "INT")], [(1, 4), (2, 3), (3, 10)])
    program = (
        "CREATE EVENT TABLE pick(n INT);"
        "CREATE OUTPUT o AS SELECT v FROM t JOIN LATEST pick p ON t.v > 0 "
        "WHERE v > (SELECT MIN(x) FROM u WHERE u.j = k);"
    )
    session = Session.build(RunConfig([program], [DbConfig("main", "quick", tables={"t": t, "u": u})], seed=1))
    session.run_replay([TraceEntry(0, "pick", {"n": 1})])
    assert session.runtime.frames[-1].rows == ((5,),)


@pytest.mark.parametrize("query, message", [
    ("SELECT k FROM a, b, c", "column 'k' is ambiguous across ['a', 'b', 'c']"),
    ("SELECT a.x FROM a JOIN b ON a.x = b.y JOIN c ON k", "join column 'k' is ambiguous across ['a', 'b']"),
])
def test_a_name_two_tables_hold_is_ambiguous(query, message):
    schemas = {
        name: [ColumnDef("k", "INT"), ColumnDef(other, "INT")]
        for name, other in (("a", "x"), ("b", "y"), ("c", "z"))
    }
    with pytest.raises(AmbiguousColumnError) as exc_info:
        compile_program(parse_diel(f"CREATE VIEW v AS {query};"), schemas)
    assert str(exc_info.value) == message


def test_unknown_function_rejected():
    with pytest.raises(UnknownUdfError):
        compile_listing("CREATE VIEW v AS SELECT frobnicate(origin) FROM flights;")


def test_udf_arity_checked_with_star_args():
    # point_in_box takes 6 args; lat/lon plus brushItx's 4 user columns fits
    compile_listing(ALL_LISTINGS["brushed_countries"])
    with pytest.raises(UnknownUdfError):
        compile_listing(
            "CREATE EVENT TABLE brushItx(latMin REAL, lonMin REAL, latMax REAL, lonMax REAL);"
            "CREATE VIEW v AS SELECT country FROM countries c JOIN LATEST brushItx b"
            " ON point_in_box(c.centroidLat, b.*);"
        )


def test_duplicate_relation_rejected():
    with pytest.raises(DuplicateRelationError):
        compile_listing("CREATE EVENT TABLE flights(x INT);")


def test_program_insert_target_must_be_plain_table():
    with pytest.raises(CompileError):
        compile_listing(
            "CREATE EVENT TABLE e(x INT);"
            "CREATE PROGRAM AFTER (e) BEGIN INSERT INTO e SELECT 1; END;",
            base_schemas={},
        )


def test_join_shorthand_expands_to_equality():
    catalog = compile_listing(SLIDER)
    sql = query_sql(catalog.relation("distData").query)
    assert "flights.flight_year = slideItx.flight_year" in sql


def test_every_listing_compiles(base_schemas):
    for name, text in ALL_LISTINGS.items():
        catalog = compile_program(parse_diel(text), schemas_for(name))
        assert isinstance(catalog, Catalog)


def test_infer_output_columns_for_slider():
    catalog = compile_listing(SLIDER)
    distData = catalog.relation("distData")
    cols = infer_output_columns(distData.query, catalog, distData.bindings)
    assert [c.name for c in cols] == ["origin", "count"]


def test_dump_ir_mentions_kinds_and_edges():
    catalog = compile_listing(SLIDER)
    text = dump_ir(catalog)
    assert "slideItx [EventTable]" in text
    assert "distData [Output]" in text
    assert "distData <- flights, slideItx" in text


def test_every_name_of_every_corpus_and_benchmark_query_has_its_binding():
    """Each ColumnRef and Star, star-argument expansions and join shorthand
    included, is bound to a table reference of its query tree (with that
    relation's kind) or to a select-list expression of its own query."""
    names = 0
    for name, _seed, config, _trace in [*corpus_runs(seeds=(1,)), *bench_runs(seeds=(1,))]:
        catalog = Session.build(config).plan.catalog
        owners = [(rel.bindings, [rel.query]) for rel in catalog.relations.values() if rel.query is not None]
        owners += [(program.bindings, program.queries()) for program in catalog.programs.values()]
        for bindings, queries in owners:
            for query in (q for top in queries for q in all_queries(top)):
                refs = [ref for top in queries for ref in all_table_refs(top)]
                for node in (n for clause in query.clauses() for n in walk(clause)):
                    if isinstance(node, Star):
                        expanded = bindings.star(node)
                        assert expanded and all(any(ref is r for r in refs) for ref in expanded), name
                    elif isinstance(node, ColumnRef):
                        binding = bindings[node]
                        if binding.alias is not None:
                            assert any(binding.alias is item.expr for item in query.items), name
                        else:
                            assert any(binding.ref is r for r in refs), name
                            assert binding.kind is catalog.relations[binding.ref.name].kind, name
                        names += 1
    assert names
