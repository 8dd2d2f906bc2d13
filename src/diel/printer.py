"""Render AST nodes back to dialect text.

The printed form is canonical: printing a parsed program and re-parsing it
yields a structurally equal AST. With `lower=True` a query prints as plain SQL
that the embedded SQLite engines accept directly: each LATEST / LATEST_REQUEST
reference prints bare and `binding.timestep = (SELECT MAX(timestep) FROM T)`
(`request_timestep` for LATEST_REQUEST) is appended to the WHERE of the query
that holds it, without copying the AST. Lowering also inlines each call of a
built-in UDF that the `udfs` registry leaves in place, as the built-in's SQL
body, when every argument is a column reference or a literal (a negated
number counts as one); an argument that the body repeats then cannot run
twice. Any other call stays a call into Python.
"""

from __future__ import annotations

import re
from collections.abc import Mapping

from .ast_nodes import (
    BinaryOp,
    CaseExpr,
    ColumnDef,
    ColumnRef,
    CreateAsyncView,
    CreateEventTable,
    CreateOutput,
    CreateProgram,
    CreateTable,
    CreateTemplate,
    CreateView,
    Expr,
    FuncCall,
    InsertStatement,
    IsNull,
    Join,
    Literal,
    NotEmptyConstraint,
    ScalarSubquery,
    SchemaCopy,
    SelectQuery,
    Star,
    Statement,
    TableRef,
    UnaryOp,
    UseTemplate,
)
from .parser import KEYWORDS
from .udfs import BUILTIN_UDFS, UdfDef, native_sql

_BARE_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
# SQLite's keywords (https://sqlite.org/lang_keywords.html). SQLite takes
# many of them as bare names, but not all, and some bare ones mean something
# else: `current_date` is today's date
SQLITE_KEYWORDS = frozenset("""
    ABORT ACTION ADD AFTER ALL ALTER ALWAYS ANALYZE AND AS ASC ATTACH
    AUTOINCREMENT BEFORE BEGIN BETWEEN BY CASCADE CASE CAST CHECK COLLATE
    COLUMN COMMIT CONFLICT CONSTRAINT CREATE CROSS CURRENT CURRENT_DATE
    CURRENT_TIME CURRENT_TIMESTAMP DATABASE DEFAULT DEFERRABLE DEFERRED DELETE
    DESC DETACH DISTINCT DO DROP EACH ELSE END ESCAPE EXCEPT EXCLUDE EXCLUSIVE
    EXISTS EXPLAIN FAIL FILTER FIRST FOLLOWING FOR FOREIGN FROM FULL GENERATED
    GLOB GROUP GROUPS HAVING IF IGNORE IMMEDIATE IN INDEX INDEXED INITIALLY
    INNER INSERT INSTEAD INTERSECT INTO IS ISNULL JOIN KEY LAST LEFT LIKE LIMIT
    MATCH MATERIALIZED NATURAL NO NOT NOTHING NOTNULL NULL NULLS OF OFFSET ON
    OR ORDER OTHERS OUTER OVER PARTITION PLAN PRAGMA PRECEDING PRIMARY QUERY
    RAISE RANGE RECURSIVE REFERENCES REGEXP REINDEX RELEASE RENAME REPLACE
    RESTRICT RETURNING RIGHT ROLLBACK ROW ROWS SAVEPOINT SELECT SET TABLE TEMP
    TEMPORARY THEN TIES TO TRANSACTION TRIGGER UNBOUNDED UNION UNIQUE UPDATE
    USING VACUUM VALUES VIEW VIRTUAL WHEN WHERE WINDOW WITH WITHOUT
""".split())
_QUOTED_WORDS = KEYWORDS | SQLITE_KEYWORDS


def quote_ident(name: str) -> str:
    """A name as dialect and SQL text: bare unless it is not an identifier or
    is a keyword of the dialect or of SQLite."""
    if _BARE_IDENT.match(name) and name.upper() not in _QUOTED_WORDS:
        return name
    return '"' + name.replace('"', '""') + '"'


def quote_string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def expr_sql(expr: Expr, lower: bool = False, udfs: Mapping[str, UdfDef] = BUILTIN_UDFS) -> str:
    if isinstance(expr, Literal):
        if expr.value is None:
            return "NULL"
        if isinstance(expr.value, str):
            return quote_string(expr.value)
        return repr(expr.value)
    if isinstance(expr, ColumnRef):
        col = quote_ident(expr.column)
        return f"{quote_ident(expr.table)}.{col}" if expr.table else col
    if isinstance(expr, Star):
        return f"{quote_ident(expr.table)}.*" if expr.table else "*"
    if isinstance(expr, FuncCall):
        if expr.star:
            return f"{expr.name}(*)"
        args = [expr_sql(a, lower, udfs) for a in expr.args]
        body = native_sql(udfs).get(expr.name) if lower else None
        if body is not None and all(_inlinable(a) for a in expr.args):
            return body(*args)
        return f"{expr.name}({', '.join(args)})"
    if isinstance(expr, BinaryOp):
        return f"({expr_sql(expr.left, lower, udfs)} {expr.op} {expr_sql(expr.right, lower, udfs)})"
    if isinstance(expr, UnaryOp):
        if expr.op == "NOT":
            return f"(NOT {expr_sql(expr.operand, lower, udfs)})"
        return f"({expr.op}{expr_sql(expr.operand, lower, udfs)})"
    if isinstance(expr, IsNull):
        return f"({expr_sql(expr.operand, lower, udfs)} IS {'NOT ' if expr.negated else ''}NULL)"
    if isinstance(expr, CaseExpr):
        parts = ["CASE"]
        if expr.operand is not None:
            parts.append(expr_sql(expr.operand, lower, udfs))
        for cond, result in expr.whens:
            parts.append(f"WHEN {expr_sql(cond, lower, udfs)} THEN {expr_sql(result, lower, udfs)}")
        if expr.else_result is not None:
            parts.append(f"ELSE {expr_sql(expr.else_result, lower, udfs)}")
        parts.append("END")
        return " ".join(parts)
    if isinstance(expr, ScalarSubquery):
        return f"({query_sql(expr.query, lower, udfs)})"
    raise TypeError(f"cannot print expression {expr!r}")


def _inlinable(arg: Expr) -> bool:
    """A column reference or a literal, a negated number included: a body may
    repeat it without running anything twice."""
    if isinstance(arg, UnaryOp) and arg.op == "-":
        arg = arg.operand
        return isinstance(arg, Literal) and isinstance(arg.value, (int, float))
    return isinstance(arg, (ColumnRef, Literal))


def _table_ref_sql(ref: TableRef, lower: bool) -> str:
    parts = []
    if ref.latest and not lower:
        parts.append("LATEST")
    if ref.latest_request and not lower:
        parts.append("LATEST_REQUEST")
    parts.append(quote_ident(ref.name))
    if ref.alias:
        parts.append(f"AS {quote_ident(ref.alias)}")
    return " ".join(parts)


def _join_sql(join: Join, lower: bool, udfs: Mapping[str, UdfDef]) -> str:
    if join.kind == "cross":
        return f", {_table_ref_sql(join.table, lower)}"
    head = "LEFT OUTER JOIN" if join.kind == "left" else "JOIN"
    text = f" {head} {_table_ref_sql(join.table, lower)}"
    if join.on is not None:
        text += f" ON {expr_sql(join.on, lower, udfs)}"
    return text


def _where_sql(query: SelectQuery, lower: bool, udfs: Mapping[str, UdfDef]) -> str | None:
    """Lowered, the written predicate is ANDed with one conjunct per LATEST /
    LATEST_REQUEST reference, in FROM order: `binding.col = (SELECT MAX(col) FROM name)`."""
    where = None if query.where is None else expr_sql(query.where, lower, udfs)
    for ref in query.table_refs() if lower else ():
        if not (ref.latest or ref.latest_request):
            continue
        column = "timestep" if ref.latest else "request_timestep"
        conjunct = (
            f"({quote_ident(ref.binding)}.{column} = "
            f"(SELECT MAX({column}) FROM {quote_ident(ref.name)}))"
        )
        where = conjunct if where is None else f"({where} AND {conjunct})"
    return where


def query_sql(query: SelectQuery, lower: bool = False, udfs: Mapping[str, UdfDef] = BUILTIN_UDFS) -> str:
    items = []
    for item in query.items:
        text = expr_sql(item.expr, lower, udfs)
        if item.alias:
            text += f" AS {quote_ident(item.alias)}"
        items.append(text)
    sql = "SELECT " + ", ".join(items)
    if query.table is not None:
        sql += " FROM " + _table_ref_sql(query.table, lower)
        for join in query.joins:
            sql += _join_sql(join, lower, udfs)
    where = _where_sql(query, lower, udfs)
    if where is not None:
        sql += " WHERE " + where
    if query.group_by:
        sql += " GROUP BY " + ", ".join(expr_sql(e, lower, udfs) for e in query.group_by)
    if query.having is not None:
        sql += " HAVING " + expr_sql(query.having, lower, udfs)
    if query.order_by:
        parts = [expr_sql(o.expr, lower, udfs) + (" DESC" if o.descending else "") for o in query.order_by]
        sql += " ORDER BY " + ", ".join(parts)
    if query.limit is not None:
        sql += " LIMIT " + expr_sql(query.limit, lower, udfs)
    return sql


def _column_def_sql(col: ColumnDef) -> str:
    text = quote_ident(col.name)
    if col.type:
        text += f" {col.type}"
    if col.check is not None:
        text += f" CHECK {expr_sql(col.check)}"
    return text


def insert_sql(stmt: InsertStatement) -> str:
    sql = f"INSERT INTO {quote_ident(stmt.table)}"
    if stmt.columns:
        sql += "(" + ", ".join(quote_ident(c) for c in stmt.columns) + ")"
    if stmt.select is not None:
        return sql + " " + query_sql(stmt.select)
    rows = ["(" + ", ".join(expr_sql(v) for v in row) + ")" for row in stmt.values or []]
    return sql + " VALUES " + ", ".join(rows)


def statement_sql(stmt: Statement) -> str:
    if isinstance(stmt, CreateEventTable):
        cols = ", ".join(_column_def_sql(c) for c in stmt.columns)
        return f"CREATE EVENT TABLE {quote_ident(stmt.name)}({cols});"
    if isinstance(stmt, CreateTable):
        cols = ", ".join(_column_def_sql(c) for c in stmt.columns)
        return f"CREATE TABLE {quote_ident(stmt.name)}({cols});"
    if isinstance(stmt, SchemaCopy):
        head = "CREATE EVENT TABLE" if stmt.event else "CREATE TABLE"
        return f"{head} {quote_ident(stmt.name)} AS {quote_ident(stmt.source)};"
    if isinstance(stmt, CreateView):
        return f"CREATE VIEW {quote_ident(stmt.name)} AS {query_sql(stmt.query)};"
    if isinstance(stmt, CreateAsyncView):
        return f"CREATE ASYNC VIEW {quote_ident(stmt.name)} AS {query_sql(stmt.query)};"
    if isinstance(stmt, CreateOutput):
        return f"CREATE OUTPUT {quote_ident(stmt.name)} AS {query_sql(stmt.query)};"
    if isinstance(stmt, CreateTemplate):
        params = ", ".join(stmt.params)
        return f"CREATE TEMPLATE {quote_ident(stmt.name)}({params}) AS {stmt.body};"
    if isinstance(stmt, UseTemplate):
        head = {"view": "VIEW", "output": "OUTPUT", "async_view": "ASYNC VIEW"}[stmt.target]
        bindings = ", ".join(f"{k}={quote_string(v)}" for k, v in stmt.bindings.items())
        return (
            f"CREATE {head} {quote_ident(stmt.name)} AS "
            f"USE TEMPLATE {quote_ident(stmt.template)}({bindings});"
        )
    if isinstance(stmt, CreateProgram):
        triggers = ", ".join(quote_ident(t) for t in stmt.triggers)
        commands = []
        for command in stmt.commands:
            if isinstance(command, InsertStatement):
                commands.append(insert_sql(command) + ";")
            else:
                commands.append(query_sql(command) + ";")
        return f"CREATE PROGRAM AFTER ({triggers}) BEGIN " + " ".join(commands) + " END;"
    if isinstance(stmt, NotEmptyConstraint):
        return f"{quote_ident(stmt.name)} NOT EMPTY;"
    raise TypeError(f"cannot print statement {stmt!r}")


def program_sql(statements: list[Statement]) -> str:
    return "\n".join(statement_sql(s) for s in statements)
