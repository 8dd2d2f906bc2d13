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
    assert engine.run_query('SELECT * FROM "t"')[1] == []
    engine.insert_rows("t", [(4, "d"), (5, "e")])
    assert engine.run_query('SELECT * FROM "t"')[1] == [(4, "d"), (5, "e")]


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
    assert engine.run_query('SELECT * FROM "t"')[1] == [(1, "x"), (2, None)]
    assert engine.run_query("PRAGMA database_list")[1] == [(0, "main", "")]
    assert db_file.read_bytes() == before

    with pytest.raises(EngineError):
        engine.copy_tables(db_file, {"missing": ["a"]})
    assert [r[1] for r in engine.run_query("PRAGMA database_list")[1]] == ["main"]


# --- a repeated read is served while no row has changed ------------------------------
# `SqlEngine.read` rests on these facts of the bundled SQLite: each is pinned
# here, so that every CI job checks its own build.


def runs_of(engine: SqlEngine) -> list[str]:
    """The SQL of every read that reaches SQLite from now on."""
    seen: list[str] = []
    run_query = engine.run_query

    def counted(sql, params=(), context="query"):
        seen.append(sql)
        return run_query(sql, params, context=context)

    engine.run_query = counted
    return seen


def table_engine(rows: int = 3) -> SqlEngine:
    engine = SqlEngine("main", seed=1)
    engine.execute_script("CREATE TABLE t(a INTEGER);")
    engine.insert_rows("t", [(i,) for i in range(rows)])
    return engine


def test_total_changes_moves_on_a_truncating_delete():
    engine = table_engine()
    before = engine.conn.total_changes
    engine.execute("DELETE FROM t")  # no WHERE: SQLite drops the table's pages at once
    assert engine.conn.total_changes == before + 3


def test_total_changes_moves_on_a_rolled_back_multi_row_insert():
    engine = table_engine()
    before = engine.conn.total_changes
    with pytest.raises(EngineError):
        engine.insert_rows("t", [(7,), (8,), ("x", "y")])
    assert engine.run_query('SELECT * FROM "t"')[1] == [(0,), (1,), (2,)]
    assert engine.conn.total_changes > before


def test_total_changes_stays_put_on_an_empty_delete_and_on_ddl():
    engine = table_engine(rows=0)
    before = engine.conn.total_changes
    engine.execute("DELETE FROM t")
    engine.execute_script("CREATE TABLE u(b TEXT); CREATE INDEX t_a ON t(a); DROP TABLE u;")
    assert engine.conn.total_changes == before


def test_an_identical_read_is_served_until_a_row_changes():
    engine = table_engine()
    runs = runs_of(engine)
    sql = "SELECT a FROM t WHERE a >= ? ORDER BY a"
    first = engine.read(sql, (1,))
    assert engine.read(sql, (1,)) is first
    assert first == [(1,), (2,)]
    assert engine.read(sql, (2,)) == [(2,)]  # other parameters run
    assert runs == [sql, sql]
    engine.execute("DELETE FROM t WHERE a = 5")  # changes no row: still served
    assert engine.read(sql, (1,)) == [(1,), (2,)]
    assert len(runs) == 2
    engine.insert_rows("t", [(5,)])
    assert engine.read(sql, (1,)) == [(1,), (2,), (5,)]
    assert len(runs) == 3


def test_a_write_through_the_connection_is_never_read_back_stale():
    engine = table_engine()
    sql = "SELECT COUNT(*) FROM t"
    assert engine.read(sql) == [(3,)]
    engine.conn.execute("INSERT INTO t VALUES (3)")
    assert engine.read(sql) == [(4,)]
    engine.conn.execute("UPDATE t SET a = a + 1")
    assert engine.read("SELECT MAX(a) FROM t") == [(4,)]
    engine.conn.execute("DELETE FROM t")
    assert engine.read(sql) == [(0,)]


def test_a_schema_change_is_never_read_back_stale():
    engine = SqlEngine("main")
    engine.execute_script("CREATE VIEW v AS SELECT 1 AS x;")
    assert engine.read("SELECT x FROM v") == [(1,)]
    engine.execute_script("DROP VIEW v; CREATE VIEW v AS SELECT 2 AS x;")
    assert engine.read("SELECT x FROM v") == [(2,)]


def test_a_read_that_draws_random_runs_again():
    sql = "SELECT a FROM t ORDER BY RANDOM() LIMIT 5"
    engine = table_engine(rows=12)
    runs = runs_of(engine)
    reads = [engine.read(sql), engine.read(sql)]
    assert runs == [sql, sql]
    reference = table_engine(rows=12)  # the generator advanced twice, as two runs do
    assert reads == [reference.run_query(sql)[1], reference.run_query(sql)[1]]
    assert reads[0] != reads[1]


@pytest.mark.skipif(sqlite3.sqlite_version_info < (3, 35), reason="RETURNING needs SQLite 3.35")
def test_a_read_that_changes_rows_is_not_kept():
    engine = table_engine(rows=0)
    sql = "INSERT INTO t VALUES (1) RETURNING a"
    assert engine.read(sql) == [(1,)]
    assert engine.read(sql) == [(1,)]
    assert engine.run_query('SELECT * FROM "t"')[1] == [(1,), (1,)]
