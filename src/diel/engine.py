"""Embedded relational engine: one in-memory SQLite connection per instance.

Every engine starts empty; setup executes the planned DDL and base data is
copied in afterwards, so re-running setup on a used engine fails on the DDL
collision (by design there is no IF NOT EXISTS). The engine that owns a SQLite
source file may instead start as a page copy of that file, taken before its
DDL, when the copy holds exactly what a row copy would (`introspect_sqlite`);
otherwise, and for snapshots, tables are copied row by row inside SQLite from
the file, attached read-only for the copy. Rows given as Python values are
inserted one batch per transaction. RANDOM() is overridden with a seeded
generator so ORDER BY RANDOM() replays deterministically.

An engine alone decides when a read may reuse earlier rows (`read`): a read
is served the rows of the last identical read on the engine while no row
has changed since (`conn.total_changes`) and that read drew no RANDOM().
It takes a UDF to be a function of its arguments, as the request cache does,
and the schema to change only by `execute_script`, which forgets every read.
"""

from __future__ import annotations

import csv
import random
import re
import sqlite3
from pathlib import Path

from .ast_nodes import ColumnDef
from .compiler import ROWID_NAMES
from .errors import ConfigError, EngineError
from .udfs import BUILTIN_UDFS, UdfDef

_SQL_TYPES = {"INT": "INTEGER", "REAL": "REAL", "TEXT": "TEXT"}


def sql_type(type_: str | None) -> str:
    return _SQL_TYPES.get(type_ or "", "")


def quote_name(name: str) -> str:
    """A table or column name as SQL text: always double-quoted, each `"`
    inside it doubled."""
    return '"' + name.replace('"', '""') + '"'


def _name_list(names: list[str]) -> str:
    return ", ".join(quote_name(n) for n in names)


class SqlEngine:
    def __init__(self, db_id: str, seed: int | None = None, udfs: dict[str, UdfDef] | None = None):
        self.db_id = db_id
        self.conn = sqlite3.connect(":memory:", uri=True)  # uri: ATTACH of read-only files
        self.conn.isolation_level = None  # autocommit; the runtime owns atomicity
        self._rng = random.Random(f"{seed}/engine/{db_id}")
        self._inserts: dict[tuple[str, int], str] = {}  # (table, width) -> INSERT text
        self._draws = 0  # RANDOM() calls so far
        self._reads: dict[tuple[str, tuple], list[tuple]] = {}  # (SQL, params) -> rows, as of:
        self._reads_at = -1  # the total_changes they were read at
        self.conn.create_function("random", 0, self._random)
        for udf in {**BUILTIN_UDFS, **(udfs or {})}.values():
            self.conn.create_function(udf.name, udf.arity, udf.fn)

    def _random(self) -> int:
        self._draws += 1
        return self._rng.getrandbits(63)

    def execute_script(self, sql: str) -> None:
        self._reads_at = -1  # DDL leaves total_changes where it was
        try:
            self.conn.executescript(sql)
        except sqlite3.Error as exc:
            raise EngineError(f"instance {self.db_id}", str(exc)) from exc

    def read(self, sql: str, params: tuple = (), context: str = "query") -> list[tuple]:
        """The rows of a read. The rows of the last identical read (same SQL,
        same parameters) are served again, without reaching SQLite, while no
        row of this engine has changed since and that read called no RANDOM();
        every other read runs (`run_query`). Served rows are the same list
        object, so callers must not change it."""
        changes = self.conn.total_changes
        if changes != self._reads_at:
            self._reads.clear()
            self._reads_at = changes
        key = (sql, params)
        rows = self._reads.get(key)
        if rows is not None:
            return rows
        draws = self._draws
        rows = self.run_query(sql, params, context=context)[1]
        if self._draws == draws:  # kept as of `changes`: a read that wrote is dropped next time
            self._reads[key] = rows
        return rows

    def run_query(
        self, sql: str, params: tuple = (), context: str = "query"
    ) -> tuple[list[str], list[tuple]]:
        try:
            cursor = self.conn.execute(sql, params)
        except sqlite3.Error as exc:
            raise EngineError(f"{context} on instance {self.db_id}", str(exc)) from exc
        columns = [d[0] for d in cursor.description or []]
        return columns, cursor.fetchall()

    def execute(self, sql: str, params: tuple = (), context: str = "statement") -> None:
        try:
            self.conn.execute(sql, params)
        except sqlite3.Error as exc:
            raise EngineError(f"{context} on instance {self.db_id}", str(exc)) from exc

    def insert_rows(self, table: str, rows: list[tuple], context: str = "insert") -> None:
        """Insert a batch atomically: all rows land, or none do."""
        if not rows:
            return
        key = (table, len(rows[0]))
        sql = self._inserts.get(key) or self._inserts.setdefault(
            key, f'INSERT INTO {quote_name(table)} VALUES ({", ".join("?" * key[1])})'
        )
        try:
            if len(rows) == 1:  # one statement is its own transaction
                self.conn.execute(sql, rows[0])
                return
            self.conn.execute("BEGIN")
            self.conn.executemany(sql, rows)
            self.conn.execute("COMMIT")
        except sqlite3.Error as exc:
            if self.conn.in_transaction:
                self.conn.execute("ROLLBACK")
            raise EngineError(f"{context} into {table} on {self.db_id}", str(exc)) from exc

    def copy_file(self, path: str | Path, context: str = "copy") -> None:
        """Make this still-empty engine a page copy of the SQLite file at path,
        opened read-only for the copy."""
        try:
            source = sqlite3.connect(_readonly_uri(path), uri=True)
            try:
                source.backup(self.conn)
            finally:
                source.close()
        except sqlite3.Error as exc:
            raise EngineError(f"{context} from {path} on {self.db_id}", str(exc)) from exc

    def copy_tables(
        self, path: str | Path, tables: dict[str, list[str]], context: str = "copy"
    ) -> None:
        """Copy `tables` (name -> columns) from the SQLite file at path into the
        same-named tables here. A UTF-8 file is attached read-only for the
        copy. SQLite attaches no file of another text encoding, so the rows of
        one are read through a read-only connection, in the order the attached
        copy reads them (a table scan: rowid order), and inserted."""
        uri = _readonly_uri(path)
        try:
            source = sqlite3.connect(uri, uri=True)
            try:
                utf8 = source.execute("PRAGMA encoding").fetchone()[0] == "UTF-8"
                read = {} if utf8 else {
                    table: source.execute(f"SELECT {_name_list(columns)} FROM {quote_name(table)}").fetchall()
                    for table, columns in tables.items()
                }
            finally:
                source.close()
        except sqlite3.Error as exc:
            raise EngineError(f"{context} from {path} on {self.db_id}", str(exc)) from exc
        if not utf8:
            for table, rows in read.items():
                self.insert_rows(table, rows, context=f"{context} from {path}")
            return
        try:
            self.conn.execute("ATTACH DATABASE ? AS source", (uri,))
        except sqlite3.Error as exc:
            raise EngineError(f"{context} from {path} on {self.db_id}", str(exc)) from exc
        try:
            for table, columns in tables.items():
                name, cols = quote_name(table), _name_list(columns)
                self.conn.execute(f"INSERT INTO main.{name} ({cols}) SELECT {cols} FROM source.{name}")
        except sqlite3.Error as exc:
            raise EngineError(f"{context} from {path} on {self.db_id}", str(exc)) from exc
        finally:
            self.conn.execute("DETACH DATABASE source")

    def close(self) -> None:
        self.conn.close()


# --- data sources ---------------------------------------------------------------


def _readonly_uri(path: str | Path) -> str:
    """A read-only open of the file; immutable, so that it leaves no -wal or
    -shm file beside it, while no -wal or -journal file there holds changes."""
    path = Path(path).absolute()
    pending = any(Path(f"{path}{suffix}").exists() for suffix in ("-wal", "-journal"))
    return path.as_uri() + ("?mode=ro" if pending else "?mode=ro&immutable=1")


def introspect_sqlite(
    path: str | Path,
) -> tuple[dict[str, tuple[list[ColumnDef], int]], str | None]:
    """Schemas and row counts of the user tables in a SQLite file, and why a
    page copy of the file would differ from a row copy of its tables into the
    tables diel creates for them (None when it would not)."""
    try:
        conn = sqlite3.connect(_readonly_uri(path), uri=True)
    except sqlite3.Error as exc:
        raise ConfigError(f"cannot read database file {path}: {exc}") from exc
    try:
        schema = conn.execute("SELECT type, name, sql FROM sqlite_master ORDER BY name").fetchall()
        names = [
            name for type_, name, _sql in schema
            if type_ == "table" and not name.lower().startswith("sqlite_")
        ]
        columns = {name: conn.execute(f"PRAGMA table_xinfo({quote_name(name)})").fetchall() for name in names}
        result: dict[str, tuple[list[ColumnDef], int]] = {}
        for name in names:
            cols = [
                ColumnDef(col, _diel_type(decl)) for _, col, decl, *_, hidden in columns[name] if not hidden
            ]
            count = conn.execute(f"SELECT COUNT(*) FROM {quote_name(name)}").fetchone()[0]
            result[name] = (cols, count)
        return result, _row_copy_reason(conn, schema, columns, result)
    except sqlite3.Error as exc:
        raise ConfigError(f"cannot read database file {path}: {exc}") from exc
    finally:
        conn.close()


def _diel_type(decl: str | None) -> str:
    decl = (decl or "").upper()
    if "INT" in decl:
        return "INT"
    if "REAL" in decl or "FLOA" in decl or "DOUB" in decl:
        return "REAL"
    return "TEXT"


def _row_copy_reason(
    conn: sqlite3.Connection,
    schema: list[tuple],
    columns: dict[str, list[tuple]],
    tables: dict[str, tuple[list[ColumnDef], int]],
) -> str | None:
    """Why a page copy of the file open on conn would not equal a row copy of
    `tables` (`schema` holds the file's sqlite_master rows, `columns` each
    table's `PRAGMA table_xinfo` rows): the same rows, rowids, column
    affinities and schema objects. It equals one, and this returns None, when
    the file holds only plain rowid tables whose columns carry no constraint,
    collation or hidden part, each column's declared type has the affinity of
    the diel type it was given, and rowids run from 1 to the row count."""
    encoding = conn.execute("PRAGMA encoding").fetchone()[0]
    if encoding != "UTF-8":
        return f"{encoding} text"
    for type_, name, sql in schema:
        if type_ != "table" or name not in tables:
            return f"{type_} {name}"
        if not sql.upper().startswith("CREATE TABLE"):
            return f"virtual table {name}"
        if re.search(r"\bCOLLATE\b", sql, re.IGNORECASE):
            return f"a collation in {name}"
    for name, (_cols, count) in tables.items():
        for _, col, decl, notnull, default, pk, hidden in columns[name]:
            if hidden:
                return f"hidden column {name}.{col}"
            if pk:
                return f"primary key {name}.{col}"
            if notnull or default is not None:
                return f"a constraint on {name}.{col}"
            if col.lower() in ROWID_NAMES:
                return f"column {name}.{col} shadows the rowid"
            if _affinity(decl) != _affinity(sql_type(_diel_type(decl))):
                return f"{name}.{col} declared {decl or 'without a type'}"
        quoted = quote_name(name)
        if count and conn.execute(
            f"SELECT (SELECT MIN(_rowid_) FROM {quoted}), (SELECT MAX(_rowid_) FROM {quoted})"
        ).fetchone() != (1, count):
            return f"rowids of {name} are not 1..{count}"
    return None


def _affinity(decl: str | None) -> str:
    """SQLite's column affinity for a declared type (the rules of "Datatypes
    In SQLite", section 3.1)."""
    decl = (decl or "").upper()
    if "INT" in decl:
        return "INTEGER"
    if "CHAR" in decl or "CLOB" in decl or "TEXT" in decl:
        return "TEXT"
    if "BLOB" in decl or not decl:
        return "BLOB"
    if "REAL" in decl or "FLOA" in decl or "DOUB" in decl:
        return "REAL"
    return "NUMERIC"


def read_csv_table(path: str | Path) -> tuple[list[ColumnDef], list[tuple]]:
    """Read a CSV with `name` or `name:TYPE` headers; untyped columns are sniffed."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"CSV file {path} is empty") from None
        raw_rows = [row for row in reader if row]

    columns: list[ColumnDef] = []
    for cell in header:
        if ":" in cell:
            name, type_ = cell.rsplit(":", 1)
            type_ = type_.strip().upper()
            if type_ not in _SQL_TYPES:
                raise ConfigError(f"CSV {path}: unknown column type {type_!r}")
            columns.append(ColumnDef(name.strip(), type_))
        else:
            columns.append(ColumnDef(cell.strip(), _sniff_type(raw_rows, header.index(cell))))

    rows = []
    for raw in raw_rows:
        if len(raw) != len(columns):
            raise ConfigError(f"CSV {path}: row has {len(raw)} cells, expected {len(columns)}")
        rows.append(tuple(_coerce(cell, col.type) for cell, col in zip(raw, columns)))
    return columns, rows


def _sniff_type(rows: list[list[str]], index: int) -> str:
    cells = [r[index] for r in rows if r[index] != ""]
    if cells and all(_is_int(c) for c in cells):
        return "INT"
    if cells and all(_is_float(c) for c in cells):
        return "REAL"
    return "TEXT"


def _is_int(text: str) -> bool:
    try:
        int(text)
        return True
    except ValueError:
        return False


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _coerce(cell: str, type_: str | None):
    if cell == "":
        return None
    if type_ == "INT":
        return int(cell)
    if type_ == "REAL":
        return float(cell)
    return cell


def import_csv(csv_path: str | Path, table: str, db_path: str | Path) -> int:
    """Create `table` in the SQLite file at db_path from a CSV; returns row count."""
    columns, rows = read_csv_table(csv_path)
    conn = sqlite3.connect(str(db_path))
    try:
        decls = ", ".join(f"{quote_name(c.name)} {sql_type(c.type)}".strip() for c in columns)
        conn.execute(f"CREATE TABLE {quote_name(table)} ({decls})")
        if rows:
            marks = ", ".join("?" * len(columns))
            conn.executemany(f"INSERT INTO {quote_name(table)} VALUES ({marks})", rows)
        conn.commit()
    except sqlite3.Error as exc:
        raise ConfigError(f"import into {db_path}:{table} failed: {exc}") from exc
    finally:
        conn.close()
    return len(rows)
