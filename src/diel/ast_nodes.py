"""AST for the DIEL dialect: a SQL subset plus event/async/output extensions.

Structural equality between nodes deliberately ignores source spans, so a
parse -> print -> parse round trip compares equal to the original tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Union


@dataclass(frozen=True)
class Span:
    """Byte offsets plus the 1-based line/column of the first token."""

    start: int
    end: int
    line: int
    col: int


NO_SPAN = Span(0, 0, 0, 0)


def _span_field() -> Span:
    return NO_SPAN


# --- expressions -------------------------------------------------------------


class Expr:
    """Marker base class for expression nodes."""


@dataclass
class Literal(Expr):
    value: int | float | str | None


@dataclass
class ColumnRef(Expr):
    column: str
    table: str | None = None


@dataclass
class Star(Expr):
    """`*` or `t.*`; legal in select lists and as a UDF argument."""

    table: str | None = None


@dataclass
class FuncCall(Expr):
    name: str
    args: list[Expr] = field(default_factory=list)
    star: bool = False  # COUNT(*) / bare COUNT()


@dataclass
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class UnaryOp(Expr):
    op: str  # '-' or 'NOT'
    operand: Expr


@dataclass
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass
class CaseExpr(Expr):
    operand: Expr | None
    whens: list[tuple[Expr, Expr]]
    else_result: Expr | None = None


@dataclass
class ScalarSubquery(Expr):
    query: "SelectQuery"


# --- queries -----------------------------------------------------------------


@dataclass
class TableRef:
    name: str
    alias: str | None = None
    latest: bool = False
    latest_request: bool = False

    @property
    def binding(self) -> str:
        """The name this relation is visible under inside the query."""
        return self.alias or self.name


@dataclass
class Join:
    kind: str  # 'inner' | 'left' | 'cross'
    table: TableRef
    on: Expr | None = None


@dataclass
class SelectItem:
    expr: Expr
    alias: str | None = None


@dataclass
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass
class SelectQuery:
    items: list[SelectItem]
    table: TableRef | None = None
    joins: list[Join] = field(default_factory=list)
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    having: Expr | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Expr | None = None

    def table_refs(self) -> list[TableRef]:
        refs = [] if self.table is None else [self.table]
        refs.extend(j.table for j in self.joins)
        return refs

    def clauses(self) -> list[Expr]:
        """Top-level expressions in clause order: select list, join conditions,
        WHERE, GROUP BY, HAVING, ORDER BY, LIMIT."""
        exprs = [item.expr for item in self.items]
        exprs.extend(j.on for j in self.joins if j.on is not None)
        if self.where is not None:
            exprs.append(self.where)
        exprs.extend(self.group_by)
        if self.having is not None:
            exprs.append(self.having)
        exprs.extend(o.expr for o in self.order_by)
        if self.limit is not None:
            exprs.append(self.limit)
        return exprs


def children(expr: Expr) -> list[Expr]:
    """The direct sub-expressions of `expr`, left to right. A ScalarSubquery
    has none here: its query is a scope of its own."""
    if isinstance(expr, BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, (UnaryOp, IsNull)):
        return [expr.operand]
    if isinstance(expr, FuncCall):
        return expr.args
    if isinstance(expr, CaseExpr):
        whens = [node for pair in expr.whens for node in pair]
        return [node for node in (expr.operand, *whens, expr.else_result) if node is not None]
    return []


def walk(expr: Expr) -> list[Expr]:
    """`expr` and its sub-expressions, parents first, left to right. A
    ScalarSubquery is listed but not entered: its query is a scope of its own."""
    nodes: list[Expr] = []

    def visit(node: Expr) -> None:
        nodes.append(node)
        for child in children(node):
            visit(child)

    visit(expr)
    return nodes


# --- statements --------------------------------------------------------------


@dataclass
class ColumnDef:
    name: str
    type: str | None  # 'INT' | 'REAL' | 'TEXT'; None for inferred result columns
    check: Expr | None = None


@dataclass
class CreateEventTable:
    kind: ClassVar[str] = "CreateEventTable"
    name: str
    columns: list[ColumnDef]
    span: Span = field(default_factory=_span_field, compare=False, repr=False)


@dataclass
class CreateTable:
    kind: ClassVar[str] = "CreateTable"
    name: str
    columns: list[ColumnDef]
    span: Span = field(default_factory=_span_field, compare=False, repr=False)


@dataclass
class SchemaCopy:
    """CREATE [EVENT] TABLE <name> AS <existing_relation> (copies user columns)."""

    kind: ClassVar[str] = "CreateTableAsSchemaCopy"
    name: str
    source: str
    event: bool
    span: Span = field(default_factory=_span_field, compare=False, repr=False)


@dataclass
class CreateView:
    kind: ClassVar[str] = "CreateView"
    name: str
    query: SelectQuery
    span: Span = field(default_factory=_span_field, compare=False, repr=False)


@dataclass
class CreateAsyncView:
    kind: ClassVar[str] = "CreateAsyncView"
    name: str
    query: SelectQuery
    span: Span = field(default_factory=_span_field, compare=False, repr=False)


@dataclass
class CreateOutput:
    kind: ClassVar[str] = "CreateOutput"
    name: str
    query: SelectQuery
    span: Span = field(default_factory=_span_field, compare=False, repr=False)


@dataclass
class CreateTemplate:
    kind: ClassVar[str] = "CreateTemplate"
    name: str
    params: list[str]
    body: str  # normalized token text with {var} placeholders intact
    span: Span = field(default_factory=_span_field, compare=False, repr=False)


@dataclass
class UseTemplate:
    """CREATE VIEW/OUTPUT/ASYNC VIEW <name> AS USE TEMPLATE t(v='x', ...)."""

    kind: ClassVar[str] = "UseTemplate"
    name: str
    target: str  # 'view' | 'output' | 'async_view'
    template: str
    bindings: dict[str, str]
    span: Span = field(default_factory=_span_field, compare=False, repr=False)


@dataclass
class InsertStatement:
    kind: ClassVar[str] = "InsertStatement"
    name: str  # insert target; doubles as the statement name
    columns: list[str] | None = None
    select: SelectQuery | None = None
    values: list[list[Expr]] | None = None
    span: Span = field(default_factory=_span_field, compare=False, repr=False)

    @property
    def table(self) -> str:
        return self.name


ProgramCommand = Union[InsertStatement, SelectQuery]


@dataclass
class CreateProgram:
    kind: ClassVar[str] = "CreateProgram"
    name: str  # synthesized: program_1, program_2, ...
    triggers: list[str]
    commands: list[ProgramCommand]
    span: Span = field(default_factory=_span_field, compare=False, repr=False)


@dataclass
class NotEmptyConstraint:
    """`<view_name> NOT EMPTY;` -- a debugging assertion on a view or output."""

    kind: ClassVar[str] = "NotEmptyConstraint"
    name: str
    span: Span = field(default_factory=_span_field, compare=False, repr=False)


Statement = Union[
    CreateEventTable,
    CreateTable,
    SchemaCopy,
    CreateView,
    CreateAsyncView,
    CreateOutput,
    CreateTemplate,
    UseTemplate,
    CreateProgram,
    InsertStatement,
    NotEmptyConstraint,
]
