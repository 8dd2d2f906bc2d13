"""Names SQLite reads differently from the dialect: its keywords, and names
equal up to ASCII letter case."""

from __future__ import annotations

import pytest

from diel.ast_nodes import ColumnDef
from diel.errors import DielError, NameClashError
from diel.parser import KEYWORDS
from diel.printer import SQLITE_KEYWORDS
from diel.session import DbConfig, RunConfig, Session


def build(program: str) -> Session:
    return Session.build(RunConfig([program], [DbConfig("main", "quick")], seed=1))


def last_rows(session: Session, event: str, payload: dict) -> list[list]:
    session.runtime.new_event(event, payload, 0)
    session.run_quiescent()
    return [list(row) for row in session.runtime.frames[-1].rows]


def test_the_keyword_list_is_sqlites():
    assert len(SQLITE_KEYWORDS) == 147
    assert {"CURRENT_DATE", "DISTINCT", "IN", "INDEX", "DEFAULT", "UNION", "WITH"} <= SQLITE_KEYWORDS


@pytest.mark.parametrize("case", [str.lower, str.upper], ids=["lower", "upper"])
def test_an_sqlite_keyword_is_a_name_like_any_other(case):
    """Each keyword as an event table, its column, a view's alias and an
    output's column; the dialect's own keywords are quoted in the program
    text, as the dialect requires."""
    wrong = {}
    for keyword in sorted(SQLITE_KEYWORDS):
        word = case(keyword)
        name = f'"{word}"' if keyword in KEYWORDS else word
        try:
            session = build(
                f"CREATE EVENT TABLE {name}({name} INT);\n"
                f"CREATE VIEW v AS SELECT {name}.{name} AS {name} FROM LATEST {name};\n"
                f"CREATE OUTPUT o AS SELECT {name} FROM v;\n"
            )
            rows = last_rows(session, word, {word: 3})
            rendered = (session.runtime.frames[-1].columns, rows)
        except DielError as exc:
            rendered = str(exc)
        if rendered != ((word,), [[3]]):
            wrong[word] = rendered
    assert wrong == {}


def test_current_date_reads_the_column_not_the_date():
    session = build("CREATE EVENT TABLE e(current_date INT); CREATE OUTPUT o AS SELECT current_date FROM LATEST e;")
    assert last_rows(session, "e", {"current_date": 3}) == [[3]]


@pytest.mark.parametrize("program, names", [
    ("CREATE EVENT TABLE e(x INT); CREATE EVENT TABLE E(y INT);", ("'e'", "'E'")),
    ("CREATE TABLE t(k INT); CREATE VIEW T AS SELECT k FROM t;", ("'t'", "'T'")),
    ("CREATE EVENT TABLE e(x INT, X INT);", ("'x'", "'X'")),
    ("CREATE TABLE t(x INT, x INT);", ("'x'", "'x'")),
    ("CREATE EVENT TABLE e(x INT, TimeStep INT);", ("'TimeStep'", "'timestep'")),
    ("CREATE EVENT TABLE e(x INT); CREATE TABLE h(Timestep INT);\n"
     "CREATE PROGRAM AFTER (e) BEGIN INSERT INTO h SELECT x FROM LATEST e; END;", ("'Timestep'", "'timestep'")),
    ("CREATE EVENT TABLE e(x INT); CREATE ASYNC VIEW v AS SELECT x AS Request_Timestep FROM LATEST e;",
     ("'Request_Timestep'", "'request_timestep'")),
], ids=["relations", "view", "columns", "same-column", "system", "history", "async-result"])
def test_names_equal_up_to_letter_case_are_a_typed_error_naming_both(program, names):
    with pytest.raises(NameClashError) as caught:
        build(program)
    assert all(name in str(caught.value) for name in names)


def test_a_base_table_column_may_not_repeat_another_up_to_case():
    tables = {"t": ([ColumnDef("k", "INT"), ColumnDef("K", "INT")], [(1, 2)])}
    with pytest.raises(NameClashError, match="'k' and 'K'"):
        Session.build(RunConfig(["CREATE OUTPUT o AS SELECT * FROM t;"], [DbConfig("main", "quick", tables=tables)]))


def test_result_names_equal_up_to_case_are_numbered():
    session = build(
        "CREATE EVENT TABLE e(x INT);\n"
        "CREATE ASYNC VIEW v AS SELECT x AS a, x AS A FROM LATEST e;\n"
        "CREATE OUTPUT o AS SELECT * FROM v;\n"
    )
    assert [c.name for c in session.catalog.relation("v").columns] == ["a", "A_2"]
    assert last_rows(session, "e", {"x": 3})[0][:2] == [3, 3]


def test_the_async_view_a_remote_output_becomes_takes_a_name_no_relation_holds_up_to_case():
    tables = {"t": ([ColumnDef("k", "INT")], [(1,)])}
    program = (
        "CREATE EVENT TABLE e(k INT); CREATE TABLE oevent(z INT);\n"
        "CREATE OUTPUT o AS SELECT t.k FROM t JOIN LATEST e ON t.k = e.k;\n"
    )
    session = Session.build(RunConfig([program], [DbConfig("main", "quick"), DbConfig("r1", "remote", tables=tables)]))
    assert session.plan.rewritten_outputs == {"o": "oEvent2"}
    assert last_rows(session, "e", {"k": 1}) == [[1]]
