from __future__ import annotations

import pytest

from diel.ast_nodes import (
    BinaryOp,
    ColumnRef,
    CreateEventTable,
    CreateProgram,
    CreateTable,
    CreateView,
    NotEmptyConstraint,
    ScalarSubquery,
    SchemaCopy,
    UseTemplate,
    walk,
)
from diel.errors import ParseError, UnknownKeywordError
from diel.parser import parse_diel, parse_query, tokenize
from diel.printer import expr_sql, program_sql, query_sql

from listing_texts import ALL_LISTINGS, MULTI_SELECT, UNDO


def test_event_table_single_column():
    statements = parse_diel("CREATE EVENT TABLE slideItx(flight_year INT);")
    assert len(statements) == 1
    stmt = statements[0]
    assert isinstance(stmt, CreateEventTable)
    assert stmt.name == "slideItx"
    assert [(c.name, c.type) for c in stmt.columns] == [("flight_year", "INT")]


def test_empty_input():
    assert parse_diel("") == []


def test_multi_select_listing_shape():
    statements = parse_diel(MULTI_SELECT)
    assert len(statements) == 3
    reset, click, view = statements
    assert isinstance(reset, CreateEventTable) and reset.columns == []
    assert isinstance(click, CreateEventTable)
    assert [(c.name, c.type) for c in click.columns] == [("tweetId", "TEXT")]
    assert isinstance(view, CreateView)
    where = view.query.where
    assert isinstance(where, BinaryOp) and where.op == ">"
    assert isinstance(where.right, ScalarSubquery)
    inner = where.right.query
    assert inner.table.name == "resetItx" and inner.table.latest


def test_parse_query_latest_flag():
    query = parse_query("SELECT * FROM LATEST brushItx")
    assert query.table.name == "brushItx"
    assert query.table.latest and not query.table.latest_request


def test_parse_query_constant_select():
    query = parse_query("SELECT 1")
    assert query.table is None and query.joins == []
    assert len(query.items) == 1


def test_two_latest_refs_with_timestep_join():
    query = parse_query(
        "SELECT * FROM LATEST brushItx AS b JOIN LATEST mapItx AS m ON b.timestep > m.timestep"
    )
    refs = query.table_refs()
    assert [r.name for r in refs] == ["brushItx", "mapItx"]
    assert all(r.latest for r in refs)
    on = query.joins[0].on
    assert isinstance(on, BinaryOp) and on.op == ">"
    assert on.left == ColumnRef(column="timestep", table="b")
    assert on.right == ColumnRef(column="timestep", table="m")


def test_parse_query_matches_view_body():
    text = "SELECT tweetId FROM clickItx WHERE timestep > 3"
    direct = parse_query(text)
    embedded = parse_diel(f"CREATE VIEW v AS {text};")[0]
    assert embedded.query == direct


def test_statement_span_covers_terminator():
    source = "  CREATE EVENT TABLE a();\nCREATE TABLE b(x INT);"
    first, second = parse_diel(source)
    assert source[first.span.start : first.span.end] == "CREATE EVENT TABLE a();"
    assert source[second.span.start : second.span.end] == "CREATE TABLE b(x INT);"


def test_schema_copy_forms():
    event_copy, table_copy = parse_diel(
        "CREATE EVENT TABLE mapItx AS brushItx; CREATE TABLE snapshot AS brushItx;"
    )
    assert isinstance(event_copy, SchemaCopy) and event_copy.event
    assert isinstance(table_copy, SchemaCopy) and not table_copy.event
    assert event_copy.source == table_copy.source == "brushItx"


def test_program_parses_with_synthesized_names():
    statements = parse_diel(UNDO)
    programs = [s for s in statements if isinstance(s, CreateProgram)]
    assert len(programs) == 1
    program = programs[0]
    assert program.name == "program_1"
    assert program.triggers == ["clickItx", "undoItx"]
    assert len(program.commands) == 1
    assert program.commands[0].table == "allSels"


def test_use_template_statement():
    stmt = parse_diel("CREATE OUTPUT distAll AS USE TEMPLATE distTMP(var_tab='flights');")[0]
    assert isinstance(stmt, UseTemplate)
    assert stmt.name == "distAll" and stmt.template == "distTMP"
    assert stmt.bindings == {"var_tab": "flights"}


def test_not_empty_constraint():
    stmt = parse_diel("multiSelect NOT EMPTY;")[0]
    assert isinstance(stmt, NotEmptyConstraint)
    assert stmt.name == "multiSelect"


def test_zero_column_event_table():
    stmt = parse_diel("CREATE EVENT TABLE resetItx ();")[0]
    assert isinstance(stmt, CreateEventTable) and stmt.columns == []


def test_quoted_identifiers_do_not_collide_with_keywords():
    stmt = parse_diel('CREATE TABLE "latest"("output" INT);')[0]
    assert isinstance(stmt, CreateTable)
    assert stmt.name == "latest"
    assert stmt.columns[0].name == "output"


def test_line_comments_are_ignored():
    statements = parse_diel("-- setup\nCREATE EVENT TABLE a(); -- trailing\n")
    assert len(statements) == 1


def test_create_inside_from_is_rejected():
    with pytest.raises(ParseError):
        parse_query("SELECT size FROM CREATE LATEST sampleSizeItx")


def test_unknown_create_form():
    with pytest.raises(UnknownKeywordError):
        parse_diel("CREATE GIZMO x;")


def test_create_table_as_select_is_rejected():
    # only the schema-copy form of AS is in the dialect
    with pytest.raises(ParseError):
        parse_diel("CREATE TABLE t AS SELECT 1;")


def test_trailing_garbage_is_an_error():
    with pytest.raises(ParseError):
        parse_diel("CREATE EVENT TABLE a(); bogus")


def test_missing_semicolon_is_an_error():
    with pytest.raises(ParseError) as exc_info:
        parse_diel("CREATE EVENT TABLE a()")
    assert ";" in exc_info.value.expected


def test_error_positions_lie_within_input():
    source = "CREATE EVENT TABLE a(x INT);\nCREATE VIEW v AS SELECT FROM;"
    with pytest.raises(ParseError) as exc_info:
        parse_diel(source)
    lines = source.split("\n")
    err = exc_info.value
    assert 1 <= err.line <= len(lines)
    assert 1 <= err.col <= len(lines[err.line - 1]) + 1


@pytest.mark.parametrize(
    "source, message, line, col",
    [
        ("CREATE VIEW v AS\n  SELECT 'abc FROM t;", "unterminated string literal", 2, 10),
        ("SELECT a FROM t\nWHERE \"unfinished = 1;", "unterminated quoted identifier", 2, 7),
        ("CREATE TEMPLATE t(x) AS\n  SELECT a FROM {x WHERE a > 1;", "malformed template placeholder", 2, 17),
        ("CREATE VIEW v AS\n  SELECT a FROM t\n    WHERE a @ 1;", "unexpected character '@'", 3, 13),
        ("SELECT 'a\nb' AS x @ 1;", "unexpected character '@'", 2, 9),
        ("SELECT \"a\n\nb\" FROM t\nWHERE a @ 1;", "unexpected character '@'", 4, 9),
    ],
)
def test_tokenizer_error_positions(source, message, line, col):
    with pytest.raises(ParseError) as exc_info:
        tokenize(source)
    err = exc_info.value
    assert (str(err), err.line, err.col) == (f"{message} at line {line}, column {col}", line, col)


def test_tokens_after_a_multi_line_string_count_its_newlines():
    tokens = tokenize("SELECT 'a\nb' AS x")
    assert [(t.lexeme, t.line, t.col) for t in tokens[2:]] == [("AS", 2, 4), ("x", 2, 7), ("", 2, 8)]
    with pytest.raises(ParseError) as exc_info:
        parse_diel("CREATE VIEW v AS SELECT 'a\nb' AS x FROM ;")
    assert (exc_info.value.line, exc_info.value.col) == (2, 14)


def test_every_statement_carries_a_name_and_full_span():
    for text in ALL_LISTINGS.values():
        for stmt in parse_diel(text):
            assert stmt.name, stmt.kind
            assert 0 <= stmt.span.start < stmt.span.end <= len(text)
            assert text[stmt.span.end - 1] == ";"


@pytest.mark.parametrize("name", sorted(ALL_LISTINGS))
def test_round_trip_is_structurally_idempotent(name):
    original = parse_diel(ALL_LISTINGS[name])
    printed = program_sql(original)
    reparsed = parse_diel(printed)
    assert reparsed == original
    # and printing again is a fixed point
    assert program_sql(reparsed) == printed


def test_program_round_trip_with_values_and_udf_commands():
    source = (
        "CREATE EVENT TABLE tick();"
        "CREATE TABLE marks(v INT);"
        "CREATE PROGRAM AFTER (tick) BEGIN"
        " INSERT INTO marks(v) VALUES (1), (2 + 3);"
        " SELECT length('x');"
        " INSERT INTO marks SELECT v FROM marks;"
        " END;"
    )
    statements = parse_diel(source)
    assert parse_diel(program_sql(statements)) == statements


def test_query_round_trip_with_case_and_subquery():
    text = (
        "SELECT CASE i.col WHEN 'origin' THEN origin ELSE destination END AS k, COUNT(*) "
        "FROM flights f JOIN LATEST columnSelectionItx i "
        "WHERE delay > (SELECT MAX(delay) FROM flights) - 10 "
        "GROUP BY k HAVING k != 'x' ORDER BY k DESC LIMIT 5"
    )
    query = parse_query(text)
    assert parse_query(query_sql(query)) == query


def test_walk_lists_parents_first_left_to_right_without_entering_subqueries():
    """The planner's coordination joins follow this order, so it is pinned."""
    query = parse_query(
        "SELECT CASE WHEN a > 1 THEN f(b, -c) ELSE (SELECT MAX(x) FROM t) END AS k, d "
        "FROM t JOIN u ON t.y = u.y WHERE d IS NULL AND NOT e "
        "GROUP BY k HAVING COUNT() > 2 ORDER BY g LIMIT 5"
    )
    case = query.items[0].expr
    assert [type(n).__name__ for n in walk(case)] == [
        "CaseExpr", "BinaryOp", "ColumnRef", "Literal", "FuncCall", "ColumnRef",
        "UnaryOp", "ColumnRef", "ScalarSubquery",
    ]
    assert [expr_sql(n) for n in walk(query.where)] == [
        "((d IS NULL) AND (NOT e))", "(d IS NULL)", "d", "(NOT e)", "e",
    ]
    assert [expr_sql(c) for c in query.clauses()] == [
        expr_sql(case), "d", "(t.y = u.y)", "((d IS NULL) AND (NOT e))", "k",
        "(COUNT(*) > 2)", "g", "5",
    ]
