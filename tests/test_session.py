from __future__ import annotations

import copy
import csv
import dataclasses
import json
import sqlite3
from typing import NamedTuple

import pytest

from diel import runtime
from diel.ast_nodes import ColumnDef
from diel.engine import SqlEngine, import_csv
from diel.errors import ConfigError, TraceParseError
from diel.session import (
    DbConfig,
    RunConfig,
    Session,
    TraceEntry,
    parse_db_flag,
    parse_trace,
)
from diel.planner import dump_plan

from conftest import FLIGHT_COLUMNS
from listing_texts import SLIDER

FLIGHT_ROWS = [
    ("LAX", "JFK", 1998, 5, 2475),
    ("SFO", "ORD", 2000, 0, 1846),
    ("JFK", "LAX", 2000, 30, 2475),
]

TRACE = [
    TraceEntry(0, "slideItx", {"flight_year": 1998}),
    TraceEntry(100, "slideItx", {"flight_year": 2000}),
]


def slider_config(**kwargs):
    return RunConfig(
        diel_sources=[SLIDER],
        databases=[DbConfig("main", "quick", tables={"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)})],
        seed=5,
        **kwargs,
    )


def test_parse_db_flag_forms():
    db = parse_db_flag("r1=remote:flights.db:fixed(20)")
    assert (db.name, db.kind, db.path, db.latency) == ("r1", "remote", "flights.db", "fixed(20)")
    db = parse_db_flag("main=quick:mem")
    assert db.path == "mem"
    with pytest.raises(ConfigError):
        parse_db_flag("nokind")
    with pytest.raises(ConfigError):
        parse_db_flag("x=warp:path")


def test_exactly_one_quick_database_required():
    config = RunConfig(
        diel_sources=[SLIDER],
        databases=[DbConfig("a", "remote", tables={"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)})],
        seed=1,
    )
    with pytest.raises(ConfigError):
        Session.build(config)


def test_trace_parsing_accepts_comments_and_blank_lines():
    entries = parse_trace(
        '# warmup\n\n{"at_ms": 5, "event": "e", "payload": {"x": 1}}\n'
        '{"at_ms": 5, "event": "e", "payload": {}}\n'
    )
    assert [e.at_ms for e in entries] == [5, 5]


def test_trace_rejects_decreasing_time_and_bad_json():
    with pytest.raises(TraceParseError):
        parse_trace('{"at_ms": 5, "event": "e", "payload": {}}\n{"at_ms": 4, "event": "e", "payload": {}}')
    with pytest.raises(TraceParseError):
        parse_trace("{nope}")
    with pytest.raises(TraceParseError):
        parse_trace('{"at_ms": 5, "event": "e"}')


def test_replay_requires_seed():
    config = slider_config()
    config.seed = None
    session = Session.build(config)
    with pytest.raises(ConfigError):
        session.run_replay(TRACE)


def test_replay_is_byte_deterministic():
    logs = []
    for _ in range(2):
        session = Session.build(slider_config())
        session.run_replay(TRACE)
        logs.append(session.output_log_text())
    assert logs[0] == logs[1]


def test_repl_style_calls_equal_replay():
    replayed = Session.build(slider_config())
    replayed.run_replay(TRACE)

    manual = Session.build(slider_config())
    for entry in TRACE:
        manual.deliver_due(entry.at_ms)
        manual.runtime.new_event(entry.event, entry.payload, at_ms=entry.at_ms)
        manual.runtime.drain_inbox()
    manual.run_quiescent()
    assert manual.output_log_text() == replayed.output_log_text()


def test_write_outputs_creates_log_and_summary(tmp_path):
    session = Session.build(slider_config())
    session.run_replay(TRACE)
    log_path, summary_path = session.write_outputs(tmp_path / "out")
    assert log_path.read_text().count("\n") == len(session.runtime.frames)
    assert '"events": 2' in summary_path.read_text()


def test_background_worker_instance_defaults_to_one_ms():
    config = RunConfig(
        diel_sources=[SLIDER],
        databases=[
            DbConfig("main", "quick"),
            DbConfig("w1", "background", tables={"flights": (FLIGHT_COLUMNS, FLIGHT_ROWS)}),
        ],
        seed=4,
    )
    session = Session.build(config)
    session.run_replay(TRACE)
    messages = session.runtime.federation.transport.log
    assert all(m.deliver_ms - m.send_ms == 1 for m in messages)
    final = session.runtime.frames[-1]
    assert sorted(final.rows) == [("JFK", 1), ("SFO", 1)]


def test_custom_udf_registered_on_every_instance():
    from diel.udfs import UdfDef

    config = RunConfig(
        diel_sources=[
            "CREATE EVENT TABLE pick(v INT);"
            "CREATE OUTPUT doubled AS SELECT twice(v) AS w FROM LATEST pick;"
        ],
        databases=[DbConfig("main", "quick")],
        seed=1,
        udfs={"twice": UdfDef("twice", 1, lambda v: v * 2)},
    )
    session = Session.build(config)
    session.run_replay([TraceEntry(0, "pick", {"v": 21})])
    assert session.runtime.frames[-1].rows == ((42,),)


def test_sqlite_file_backed_database_loads_tables(tmp_path):
    from diel.engine import import_csv

    csv_file = tmp_path / "flights.csv"
    csv_file.write_text(
        "origin:TEXT,destination:TEXT,flight_year:INT,delay:INT,distance:INT\n"
        "SFO,ORD,2000,0,1846\nJFK,LAX,2000,30,2475\n"
    )
    db_file = tmp_path / "flights.db"
    import_csv(csv_file, "flights", db_file)
    config = RunConfig(
        diel_sources=[SLIDER],
        databases=[
            DbConfig("main", "quick"),
            DbConfig("r1", "remote", path=str(db_file), latency="fixed(0)"),
        ],
        seed=2,
    )
    session = Session.build(config)
    session.run_replay([TraceEntry(0, "slideItx", {"flight_year": 2000})])
    final = session.runtime.frames[-1]
    assert sorted(final.rows) == [("JFK", 1), ("SFO", 1)]


def test_csv_backed_database_loads_table(tmp_path):
    csv_file = tmp_path / "flights.csv"
    csv_file.write_text(
        "origin:TEXT,destination:TEXT,flight_year:INT,delay:INT,distance:INT\n"
        "LAX,JFK,1998,5,2475\n"
    )
    config = RunConfig(
        diel_sources=[SLIDER],
        databases=[DbConfig("main", "quick", path=str(csv_file))],
        seed=1,
    )
    session = Session.build(config)
    session.run_replay([TraceEntry(0, "slideItx", {"flight_year": 1998})])
    assert session.runtime.frames[-1].rows == (("LAX", 1),)


# --- the three base-data load paths --------------------------------------------------

ITEMS_PROGRAM = """
CREATE EVENT TABLE pick (n INT);
CREATE OUTPUT picked AS
  SELECT i.rowid AS item, i.code, i.price, i.qty, i.label, a.n
  FROM items i JOIN anchor a JOIN LATEST pick p ON a.n = p.n;
"""
# REAL holding integers, numeric-looking TEXT, and NULL / empty cells, in
# `code` order: the order a table keyed on `code` is read in
ITEM_COLUMNS = [
    ColumnDef("code", "TEXT"),
    ColumnDef("price", "REAL"),
    ColumnDef("qty", "INT"),
    ColumnDef("label", "TEXT"),
]
ITEM_ROWS = [("0.50", None, 12, None), ("007", 5, 3, "a"), ("42", 7.5, None, "b")]
ANCHOR = {"anchor": ([ColumnDef("n", "INT")], [(n,) for n in range(1, 11)])}
ITEMS_TRACE = [TraceEntry(10 * n, "pick", {"n": n}) for n in (1, 2, 3)]


class FileShape(NamedTuple):
    """An items.db: the statements run before and after its rows are inserted
    (no statements: the file is written by import_csv), the columns and rows
    it provides, and how its owner loads it: None for the page copy, else why
    it copies rows."""

    before: list[str]
    load: str | None
    after: list[str] = []
    columns: list[ColumnDef] = ITEM_COLUMNS
    rows: list[tuple] = ITEM_ROWS


DECLARED = "CREATE TABLE items (code VARCHAR(8), price DOUBLE, qty BIGINT, label TEXT)"
FILE_SHAPES = {
    "declared": FileShape([DECLARED], None),
    "import_csv": FileShape([], None),
    "8k-pages": FileShape(["PRAGMA page_size = 8192", DECLARED], None),
    "wal": FileShape(["PRAGMA journal_mode = WAL", DECLARED], None),
    # untyped (BLOB affinity) and NUMERIC columns are given TEXT, whose
    # affinity turns the integers they hold into text
    "numeric-and-untyped": FileShape(
        ["CREATE TABLE items (code TEXT, price, qty NUMERIC, label TEXT)"],
        "items.price declared without a type",
        columns=[ITEM_COLUMNS[0], ColumnDef("price", "TEXT"), ColumnDef("qty", "TEXT"), ITEM_COLUMNS[3]],
    ),
    "collation": FileShape([DECLARED.replace("label TEXT", "label TEXT COLLATE NOCASE")], "a collation in items"),
    "not-null": FileShape([DECLARED.replace("code VARCHAR(8)", "code VARCHAR(8) NOT NULL")], "a constraint on items.code"),
    "index": FileShape([DECLARED, "CREATE INDEX items_label ON items (label)"], "index items_label"),
    "view": FileShape([DECLARED, "CREATE VIEW cheap AS SELECT code FROM items WHERE price < 6"], "view cheap"),
    "trigger": FileShape(
        [DECLARED, "CREATE TRIGGER kept BEFORE DELETE ON items BEGIN SELECT RAISE(ABORT, 'kept'); END"],
        "trigger kept",
    ),
    "without-rowid": FileShape(
        ["CREATE TABLE items (code TEXT PRIMARY KEY, price REAL, qty INT, label TEXT) WITHOUT ROWID"],
        "primary key items.code",
    ),
    "integer-primary-key": FileShape(
        [DECLARED[:-1] + ", id INTEGER PRIMARY KEY)"],
        "primary key items.id",
        columns=ITEM_COLUMNS + [ColumnDef("id", "INT")],
        rows=[row + (10 * k,) for k, row in enumerate(ITEM_ROWS, start=1)],
    ),
    "utf16": FileShape(["PRAGMA encoding = 'UTF-16le'", DECLARED], "UTF-16le text"),
    "generated-column": FileShape(
        [DECLARED[:-1] + ", twice INT GENERATED ALWAYS AS (qty * 2) VIRTUAL)"], "hidden column items.twice"
    ),
    "oid-column": FileShape(
        [DECLARED[:-1] + ", oid INT)"],
        "column items.oid shadows the rowid",
        columns=ITEM_COLUMNS + [ColumnDef("oid", "INT")],
        rows=[row + (7 * k,) for k, row in enumerate(ITEM_ROWS, start=1)],
    ),
    "rowid-gaps": FileShape(
        [DECLARED, "INSERT INTO items (code) VALUES ('gone')"],
        "rowids of items are not 1..3",
        after=["DELETE FROM items WHERE code = 'gone'"],
    ),
}


def _items_source(kind: str, directory, shape: str = "declared") -> dict:
    """DbConfig keyword arguments that provide `items` from the given source."""
    file_shape = FILE_SHAPES[shape]
    columns, rows = file_shape.columns, file_shape.rows
    if kind == "rows":
        return {"tables": {"items": (columns, rows)}}
    csv_path = directory / "items.csv"
    lines = [",".join(f"{c.name}:{c.type}" for c in columns)]
    lines += [",".join("" if v is None else str(v) for v in row) for row in rows]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if kind == "csv":
        return {"path": str(csv_path)}
    path = directory / "items.db"
    if not file_shape.before:
        import_csv(csv_path, "items", path)
        return {"path": str(path)}
    conn = sqlite3.connect(path)
    for statement in file_shape.before:
        conn.execute(statement)
    names = ", ".join(c.name for c in columns)
    conn.executemany(f"INSERT INTO items ({names}) VALUES ({', '.join('?' * len(columns))})", rows)
    for statement in file_shape.after:
        conn.execute(statement)
    conn.commit()
    conn.close()
    return {"path": str(path)}


def _items_config(kind: str, placement: str, directory, shape: str = "declared") -> RunConfig:
    return _config_over(_items_source(kind, directory, shape), placement)


def _config_over(source: dict, placement: str) -> RunConfig:
    if placement == "coordinator":
        main = DbConfig("main", "quick", **source)
        main.tables.update(ANCHOR)
        databases = [main]
    else:  # items on r2; anchor is larger, so r1 leads and takes a snapshot of items
        databases = [
            DbConfig("main", "quick"),
            DbConfig("r1", "remote", latency="fixed(3)", tables=dict(ANCHOR)),
            DbConfig("r2", "remote", latency="fixed(5)", **source),
        ]
    return RunConfig([ITEMS_PROGRAM], databases, seed=4)


def _run(config: RunConfig, before_replay=None) -> str:
    session = Session.build(config)
    if before_replay is not None:
        before_replay(session)
    session.run_replay(ITEMS_TRACE)
    return session.output_log_text()


@pytest.mark.parametrize(
    "placement, shape",
    [
        pytest.param(placement, shape, id=placement if shape == "declared" else f"{placement}-{shape}")
        for shape in FILE_SHAPES
        for placement in ("coordinator", "remote")
    ],
)
def test_db_csv_and_python_rows_load_identically(tmp_path, placement, shape):
    """A file's owner takes the page copy only where it equals the row copy:
    every shape of items.db renders what the same rows give from a CSV file
    and as Python values, rowids included."""
    logs = {}
    for kind in ("db", "csv", "rows"):
        (tmp_path / kind).mkdir()
        config = _items_config(kind, placement, tmp_path / kind, shape)
        plans = []
        logs[kind] = _run(config, lambda session: plans.append(session.plan))
        if kind == "db":
            assert plans[0].file_loads == {"items": FILE_SHAPES[shape].load}
    assert logs["db"] == logs["csv"] == logs["rows"]
    if shape == "declared":
        final = json.loads(logs["db"].splitlines()[-1])
        assert final["rows"] == [
            [1, "0.50", None, 12, None, 3],
            [2, "007", 5.0, 3, "a", 3],
            [3, "42", 7.5, None, "b", 3],
        ]


QUOTED_PROGRAM = """\
CREATE EVENT TABLE pick (n INT);
CREATE OUTPUT picked AS SELECT i.*, a.n FROM items i JOIN anchor a JOIN LATEST pick p ON a.n = p.n;
"""
QUOTED_COLUMNS = [ColumnDef('my"col', "TEXT"), ColumnDef("id", "INT")]
QUOTED_ROWS = [("a", 1), (2.5, 2), (None, 3)]


def _quoted_items(directory, kind: str) -> dict:
    """DbConfig keyword arguments that provide `items (my"col, id)`: as
    Python values, from a file with a NUMERIC column (its owner copies rows)
    or from an import_csv file (its owner takes the page copy)."""
    if kind == "rows":
        return {"tables": {"items": (QUOTED_COLUMNS, QUOTED_ROWS)}}
    path = directory / "items.db"
    if kind == "numeric":
        conn = sqlite3.connect(path)
        conn.execute('CREATE TABLE items ("my""col" NUMERIC, id INTEGER)')
        conn.executemany("INSERT INTO items VALUES (?, ?)", QUOTED_ROWS)
        conn.commit()
        conn.close()
    else:
        csv_path = directory / "items.csv"
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            rows = [["" if v is None else v for v in row] for row in QUOTED_ROWS]
            csv.writer(fh).writerows([[f"{c.name}:{c.type}" for c in QUOTED_COLUMNS], *rows])
        import_csv(csv_path, "items", path)
    return {"path": str(path)}


@pytest.mark.parametrize("placement", ["coordinator", "remote"])
@pytest.mark.parametrize("kind", ["numeric", "import_csv"])
def test_a_column_name_holding_a_double_quote_loads_from_a_file(tmp_path, placement, kind):
    """engine.py quotes every name it writes into SQL by one rule
    (`quote_name`), so a column named my"col loads, into its owner and into
    the leader's snapshot, and renders what the same rows give as Python
    values."""
    sessions = {}
    for source in (kind, "rows"):
        (tmp_path / source).mkdir()
        config = _config_over(_quoted_items(tmp_path / source, source), placement)
        sessions[source] = Session.build(dataclasses.replace(config, diel_sources=[QUOTED_PROGRAM]))
        sessions[source].run_replay(ITEMS_TRACE)
    assert sessions[kind].output_log_text() == sessions["rows"].output_log_text()
    final = sessions[kind].runtime.frames[-1]
    assert final.columns == ('my"col', "id", "n")
    assert final.rows == ((None, 3, 3), ("2.5", 2, 3), ("a", 1, 3))  # canonical order


@pytest.mark.parametrize("placement", ["coordinator", "remote"])
@pytest.mark.parametrize("kind", ["db", "csv", "rows"])
def test_a_build_leaves_its_configuration_as_it_was(tmp_path, kind, placement):
    """DbConfig holds configuration only: `load` returns what its source
    holds and writes nothing back, not even a CSV file's rows."""
    assert [f.name for f in dataclasses.fields(DbConfig)] == ["name", "kind", "path", "latency", "tables"]
    config = _items_config(kind, placement, tmp_path)
    before = copy.deepcopy(config)
    Session.build(config)
    assert config == before


@pytest.mark.parametrize("shape", ["import_csv", "index"])
def test_the_owner_of_an_imported_file_takes_no_row_copy(tmp_path, monkeypatch, shape):
    """An import_csv file passes the page-copy check, so no row is copied
    into its owner; a file that fails it is copied row by row. The file is
    left unchanged and attached nowhere."""
    statements: list[str] = []

    class TracedEngine(SqlEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.conn.set_trace_callback(statements.append)

    monkeypatch.setattr(runtime, "SqlEngine", TracedEngine)
    config = _items_config("db", "coordinator", tmp_path, shape)
    db_file = tmp_path / "items.db"
    before = db_file.read_bytes()
    session = Session.build(config)
    load = "page copy" if shape == "import_csv" else "row copy (index items_label)"
    assert f"items @ main: {load}" in dump_plan(session.plan).splitlines()
    row_copies = [s for s in statements if s.startswith('INSERT INTO main."items"')]
    assert len(row_copies) == (0 if shape == "import_csv" else 1)
    assert [row[1] for row in session.runtime.engine.run_query("PRAGMA database_list")[1]] == ["main"]
    assert db_file.read_bytes() == before
    db_file.unlink()
    session.run_replay(ITEMS_TRACE)
    assert session.runtime.frames[-1].rows[0][:2] == (1, "0.50")


def test_remote_items_are_snapshotted_to_the_leader(tmp_path):
    session = Session.build(_items_config("db", "remote", tmp_path))
    assert [(s.relation, s.destination) for s in session.plan.shipments if s.snapshot] == [
        ("items", "r1")
    ]


def test_db_source_is_read_only_and_released_at_build(tmp_path):
    config = _items_config("db", "remote", tmp_path)
    db_file = tmp_path / "items.db"
    before = db_file.read_bytes()
    expected = _run(config)
    assert db_file.read_bytes() == before

    def no_attachment_then_delete(session):
        instances = session.runtime.federation.instances.values()
        for engine in [session.runtime.engine] + [inst.engine for inst in instances]:
            assert [row[1] for row in engine.run_query("PRAGMA database_list")[1]] == ["main"]
        db_file.unlink()

    assert _run(config, no_attachment_then_delete) == expected


@pytest.mark.parametrize("placement", ["coordinator", "remote"])
def test_a_checkpointed_wal_source_leaves_its_directory_as_it_was(tmp_path, placement):
    config = _items_config("db", placement, tmp_path, "wal")
    before = sorted(path.name for path in tmp_path.iterdir())
    expected = _run(_items_config("rows", placement, tmp_path))
    assert _run(config) == expected
    assert sorted(path.name for path in tmp_path.iterdir()) == before


@pytest.mark.parametrize("placement", ["coordinator", "remote"])
def test_rows_committed_only_to_the_wal_of_an_open_writer_all_load(tmp_path, placement):
    writer = sqlite3.connect(tmp_path / "items.db")
    try:
        for statement in ("PRAGMA journal_mode = WAL", "PRAGMA wal_autocheckpoint = 0", DECLARED):
            writer.execute(statement)
        writer.executemany("INSERT INTO items VALUES (?, ?, ?, ?)", ITEM_ROWS)
        writer.commit()
        assert (tmp_path / "items.db-wal").stat().st_size > 0
        log = _run(_config_over({"path": str(tmp_path / "items.db")}, placement))
    finally:
        writer.close()
    assert log == _run(_items_config("rows", placement, tmp_path))
