from __future__ import annotations

import sqlite3

import pytest

from diel.engine import SqlEngine, import_csv, introspect_sqlite, read_csv_table
from diel.errors import ConfigError, EngineError


def test_seeded_random_is_deterministic():
    def sample(seed):
        engine = SqlEngine("main", seed=seed)
        engine.execute_script("CREATE TABLE t(a INTEGER);")
        engine.insert_rows("t", [(i,) for i in range(12)])
        return engine.run_query("SELECT a FROM t ORDER BY RANDOM() LIMIT 5")[1]

    assert sample(7) == sample(7)
    assert sample(7) != sample(8)


def test_builtin_udfs_registered():
    engine = SqlEngine("main")
    _, rows = engine.run_query(
        "SELECT point_in_box(1.0, 2.0, 0.0, 0.0, 5.0, 5.0),"
        " point_in_box(9.0, 2.0, 0.0, 0.0, 5.0, 5.0),"
        " is_within_box(5.0, 5.0, 0.0, 0.0, 5.0, 5.0),"
        " box_in_box(1.0, 1.0, 2.0, 2.0, 0.0, 0.0, 5.0, 5.0),"
        " box_in_box(1.0, 1.0, 9.0, 2.0, 0.0, 0.0, 5.0, 5.0)"
    )
    assert rows == [(1, 0, 1, 1, 0)]  # closed intervals include the boundary


def test_engine_error_carries_context():
    engine = SqlEngine("r1")
    with pytest.raises(EngineError) as exc_info:
        engine.run_query("SELECT * FROM missing", context="async view v")
    assert "async view v" in str(exc_info.value)
    assert "r1" in str(exc_info.value)


def test_ddl_twice_is_rejected():
    engine = SqlEngine("main")
    engine.execute_script("CREATE TABLE t(a INTEGER);")
    with pytest.raises(EngineError):
        engine.execute_script("CREATE TABLE t(a INTEGER);")


def test_read_csv_typed_headers(tmp_path):
    csv_file = tmp_path / "d.csv"
    csv_file.write_text("a:INT,b:REAL,c:TEXT\n1,2.5,x\n,3.5,y\n")
    columns, rows = read_csv_table(csv_file)
    assert [(c.name, c.type) for c in columns] == [("a", "INT"), ("b", "REAL"), ("c", "TEXT")]
    assert rows == [(1, 2.5, "x"), (None, 3.5, "y")]


def test_read_csv_sniffs_untyped_headers(tmp_path):
    csv_file = tmp_path / "d.csv"
    csv_file.write_text("a,b,c\n1,2.5,x\n2,3,y\n")
    columns, _ = read_csv_table(csv_file)
    assert [c.type for c in columns] == ["INT", "REAL", "TEXT"]


def test_read_csv_rejects_ragged_rows(tmp_path):
    csv_file = tmp_path / "d.csv"
    csv_file.write_text("a:INT,b:INT\n1\n")
    with pytest.raises(ConfigError):
        read_csv_table(csv_file)


def test_import_csv_then_introspect(tmp_path):
    csv_file = tmp_path / "flights.csv"
    csv_file.write_text("origin:TEXT,delay:INT\nLAX,5\nSFO,-2\nJFK,9\n")
    db_file = tmp_path / "flights.db"
    assert import_csv(csv_file, "flights", db_file) == 3
    info, row_copy_reason = introspect_sqlite(db_file)
    columns, count = info["flights"]
    assert [(c.name, c.type) for c in columns] == [("origin", "TEXT"), ("delay", "INT")]
    assert count == 3
    assert row_copy_reason is None  # an imported file is taken by page copy
    raw = sqlite3.connect(db_file).execute("SELECT COUNT(*) FROM flights").fetchone()
    assert raw == (3,)


def test_failed_batch_insert_leaves_nothing_behind():
    engine = SqlEngine("main")
    engine.execute_script("CREATE TABLE t(a INTEGER, b TEXT);")
    with pytest.raises(EngineError):
        engine.insert_rows("t", [(1, "a"), (2, "b"), (3,)])
    assert engine.table_rows("t") == []
    engine.insert_rows("t", [(4, "d"), (5, "e")])
    assert engine.table_rows("t") == [(4, "d"), (5, "e")]


def test_copy_tables_from_file_is_read_only_and_detaches(tmp_path):
    db_file = tmp_path / "src.db"
    raw = sqlite3.connect(db_file)
    raw.execute("CREATE TABLE t(a INTEGER, b TEXT)")
    raw.executemany("INSERT INTO t VALUES (?, ?)", [(1, "x"), (2, None)])
    raw.commit()
    raw.close()
    before = db_file.read_bytes()

    engine = SqlEngine("main")
    engine.execute_script("CREATE TABLE t(a INTEGER, b TEXT);")
    engine.copy_tables(db_file, {"t": ["a", "b"]})
    assert engine.table_rows("t") == [(1, "x"), (2, None)]
    assert engine.run_query("PRAGMA database_list")[1] == [(0, "main", "")]
    assert db_file.read_bytes() == before

    with pytest.raises(EngineError):
        engine.copy_tables(db_file, {"missing": ["a"]})
    assert [r[1] for r in engine.run_query("PRAGMA database_list")[1]] == ["main"]
