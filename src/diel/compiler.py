"""Resolve parsed statements into a relation catalog plus a dependency graph.

Pipeline: one pass over the statements builds the catalog (each template
use instantiated where it stands, each schema copy typed from a table
already read, each table's names checked as it enters; a relation's system
columns follow from its kind) -> dependency graph -> name resolution,
shorthand rewriting and result columns of every query relation (in
dependency order), then of program commands -> well-formedness diagnostics.
Each query is walked once, here: each relation and program keeps what every
name in its queries resolves to, and the table references, RANDOM() calls
and timestep ranges met on the way (`Bindings`), the record the planner and
optimizer read. The catalog keeps queries in their sugared form (LATEST
flags intact); the printer lowers LATEST while printing (`query_sql(q, lower=True)`).
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .ast_nodes import (
    BinaryOp,
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
    NotEmptyConstraint,
    ProgramCommand,
    ScalarSubquery,
    SchemaCopy,
    SelectQuery,
    Star,
    Statement,
    TableRef,
    UseTemplate,
    children,
    walk,
)
from .errors import (
    AmbiguousColumnError,
    CompileError,
    CyclicDependencyError,
    DuplicateRelationError,
    LatestOnNonEventError,
    MissingBindingError,
    NameClashError,
    ParseError,
    ReservedColumnNameError,
    SubstitutionParseError,
    UnknownColumnError,
    UnknownRelationError,
    UnknownSourceRelationError,
    UnknownTemplateError,
    UnknownUdfError,
)
from .parser import parse_query_tokens, tokenize
from .printer import query_sql
from .udfs import BUILTIN_UDFS, ENGINE_FUNCTIONS, UdfDef

SYSTEM_COLUMNS = ("timestep", "timestamp", "request_timestep")
# SQLite's names for a table's rowid; a declared column of the same name
# (matched case-insensitively) would take the name over
ROWID_NAMES = ("rowid", "_rowid_", "oid")
_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def fold_case(name: str) -> str:
    """A name as SQLite compares names: ASCII letters in lower case."""
    return name.translate(_ASCII_LOWER)


class RelationKind(Enum):
    EVENT_TABLE = "EventTable"
    TABLE = "Table"
    HISTORY_TABLE = "HistoryTable"
    VIEW = "View"
    ASYNC_VIEW = "AsyncView"
    OUTPUT = "Output"


TABLE_KINDS = (RelationKind.EVENT_TABLE, RelationKind.TABLE, RelationKind.HISTORY_TABLE)
QUERY_KINDS = (RelationKind.VIEW, RelationKind.ASYNC_VIEW, RelationKind.OUTPUT)
# relations that grow, append-only, while a session runs; the rest of what
# queries read (base and plain tables) is fixed at setup
GROWING_KINDS = (RelationKind.EVENT_TABLE, RelationKind.HISTORY_TABLE, RelationKind.ASYNC_VIEW)
# the comparisons that read a range of an ordered column
RANGE_OPS = ("<", "<=", ">", ">=")
# the system columns each kind of relation carries after its own
SYSTEM_COLUMNS_BY_KIND = {
    RelationKind.EVENT_TABLE: ("timestep", "timestamp"),
    RelationKind.ASYNC_VIEW: SYSTEM_COLUMNS,
    RelationKind.HISTORY_TABLE: ("timestep",),
}
# the kind of relation each statement adds (by its class, or a template use
# by its target)
STATEMENT_KINDS = {
    CreateEventTable: RelationKind.EVENT_TABLE,
    CreateTable: RelationKind.TABLE,
    CreateView: RelationKind.VIEW,
    CreateAsyncView: RelationKind.ASYNC_VIEW,
    CreateOutput: RelationKind.OUTPUT,
    "view": RelationKind.VIEW,
    "async_view": RelationKind.ASYNC_VIEW,
    "output": RelationKind.OUTPUT,
}


@dataclass
class ViewConstraint:
    view: str


class Binding(NamedTuple):
    """What a name resolves to: a table reference, in the name's own scope or
    an enclosing one, with its relation's kind (the reference says whether
    it is LATEST or LATEST_REQUEST); or, for a GROUP BY, HAVING or ORDER BY
    name, the select-list expression of the alias it names."""

    ref: TableRef | None
    kind: RelationKind | None
    alias: Expr | None = None


class Bindings:
    """What each ColumnRef (one binding) and Star (one per table reference it
    expands to) of a query and its subqueries resolves to (`resolve_query`).
    AST nodes compare by structure, so two `x` of two scopes are equal: the
    record is keyed by identity and holds each node, which keeps its id its own.

    The same walk records every table reference at every depth, outermost
    first (`table_refs`), whether a query calls RANDOM() (`calls_random`),
    and the event and history tables whose timestep is compared with <, <=,
    > or >= (`ranged_tables`): the range reads a timestep index serves."""

    def __init__(self) -> None:
        self._record: dict[int, tuple[Expr, tuple[Binding, ...]]] = {}
        self.table_refs: list[TableRef] = []
        self.calls_random = False
        self.ranged_tables: set[str] = set()

    def add(self, node: Expr, *bindings: Binding) -> None:
        self._record[id(node)] = (node, bindings)

    def __getitem__(self, node: Expr) -> Binding:
        """A ColumnRef's binding."""
        return self._record[id(node)][1][0]

    def star(self, node: Star) -> list[TableRef]:
        """The table references a Star expands to, in order."""
        return [binding.ref for binding in self._record[id(node)][1]]

    def readers(self, relation: str) -> list[Expr]:
        """The ColumnRefs and Stars that read `relation`."""
        return [node for node, bindings in self._record.values()
                if any(b.ref is not None and b.ref.name == relation for b in bindings)]


@dataclass
class RelationDef:
    name: str
    kind: RelationKind
    # a query relation's result columns and what each name in its query
    # resolves to, both set once by compile_program (by the planner for a
    # coordination output it makes)
    columns: list[ColumnDef] = field(default_factory=list)
    query: SelectQuery | None = None
    is_base: bool = False  # pre-existing table owned by a database instance
    bindings: Bindings = field(default_factory=Bindings)

    @property
    def system_columns(self) -> tuple[str, ...]:
        return SYSTEM_COLUMNS_BY_KIND.get(self.kind, ())

    @property
    def physical_columns(self) -> list[ColumnDef]:
        return self.columns + [ColumnDef(c, "INT") for c in self.system_columns]


@dataclass
class ProgramDef:
    name: str
    triggers: list[str]
    commands: list[ProgramCommand]
    bindings: Bindings = field(default_factory=Bindings)  # as RelationDef's, over its commands

    def queries(self) -> list[SelectQuery]:
        return [q for c in self.commands
                if (q := c.select if isinstance(c, InsertStatement) else c) is not None]

    def insert_targets(self) -> list[str]:
        return [c.table for c in self.commands if isinstance(c, InsertStatement)]


@dataclass
class DependencyGraph:
    """Reads-from edges for query relations plus staged program-write links.

    Program writes (trigger event -> history table) are tracked separately:
    they land between timesteps, so they do not participate in the same-step
    cycle check.
    """

    reads: dict[str, tuple[str, ...]]
    program_writes: dict[str, tuple[str, ...]]

    def topological_order(self) -> list[str]:
        order: list[str] = []
        state: dict[str, int] = {}

        def visit(node: str, trail: list[str]) -> None:
            mark = state.get(node, 0)
            if mark == 2:
                return
            if mark == 1:
                cycle = trail[trail.index(node):]
                raise CyclicDependencyError(cycle)
            state[node] = 1
            for dep in self.reads.get(node, ()):
                visit(dep, trail + [node])
            state[node] = 2
            order.append(node)

        for node in sorted(self.reads):
            visit(node, [])
        return order


@dataclass
class Catalog:
    relations: dict[str, RelationDef] = field(default_factory=dict)
    programs: dict[str, ProgramDef] = field(default_factory=dict)
    udfs: dict[str, UdfDef] = field(default_factory=dict)
    constraints: list[ViewConstraint] = field(default_factory=list)
    graph: DependencyGraph | None = None
    diagnostics: list[str] = field(default_factory=list)

    def relation(self, name: str) -> RelationDef:
        try:
            return self.relations[name]
        except KeyError:
            raise UnknownRelationError(f"unknown relation {name!r}") from None

    def by_kind(self, *kinds: RelationKind) -> list[RelationDef]:
        return [r for r in self.relations.values() if r.kind in kinds]

    def columns_of(self, name: str) -> list[ColumnDef]:
        """Columns a query sees when it references `name`; an async view reads
        as its result relation at the coordinator: payload + system."""
        return self.relation(name).physical_columns


# --- catalog construction -------------------------------------------------------


def build_catalog(
    statements: list[Statement],
    base_schemas: dict[str, list[ColumnDef]] | None = None,
    udfs: dict[str, UdfDef] | None = None,
) -> Catalog:
    """The catalog of a program, in one pass over its statements: a template
    is registered as it is read and each use of one is added where it stands;
    a schema copy takes the column names and types of a table already in the
    catalog; each table's names are checked as it enters."""
    catalog = Catalog(udfs=dict(BUILTIN_UDFS))
    if udfs:
        catalog.udfs.update(udfs)
    templates: dict[str, CreateTemplate] = {}
    folded: dict[str, str] = {}  # each relation's name up to ASCII case -> the name

    def add(rel: RelationDef) -> None:
        if rel.name in catalog.relations:
            raise DuplicateRelationError(f"relation {rel.name!r} declared twice")
        other = folded.setdefault(fold_case(rel.name), rel.name)
        if other != rel.name:
            raise NameClashError(f"relations {other!r} and {rel.name!r} are one name to SQLite")
        _check_names(rel)
        catalog.relations[rel.name] = rel

    for name, cols in (base_schemas or {}).items():
        add(RelationDef(name=name, kind=RelationKind.TABLE, columns=list(cols), is_base=True))
    for stmt in statements:
        if isinstance(stmt, CreateTemplate):
            if stmt.name in templates:
                raise CompileError(f"template {stmt.name!r} declared twice")
            templates[stmt.name] = stmt
        elif isinstance(stmt, UseTemplate):
            add(RelationDef(stmt.name, STATEMENT_KINDS[stmt.target], query=_instantiate(stmt, templates)))
        elif isinstance(stmt, SchemaCopy):
            source = catalog.relations.get(stmt.source)
            if source is None or source.kind not in TABLE_KINDS:
                raise UnknownSourceRelationError(
                    f"schema copy {stmt.name!r}: unknown source relation {stmt.source!r}"
                )
            # types only; CHECK constraints do not travel with a copy
            columns = [ColumnDef(c.name, c.type) for c in source.columns]
            add(RelationDef(stmt.name, RelationKind.EVENT_TABLE if stmt.event else RelationKind.TABLE, columns))
        elif isinstance(stmt, (CreateEventTable, CreateTable)):
            add(RelationDef(stmt.name, STATEMENT_KINDS[type(stmt)], list(stmt.columns)))
        elif isinstance(stmt, (CreateView, CreateAsyncView, CreateOutput)):
            add(RelationDef(stmt.name, STATEMENT_KINDS[type(stmt)], query=stmt.query))
        elif isinstance(stmt, CreateProgram):
            catalog.programs[stmt.name] = ProgramDef(stmt.name, stmt.triggers, stmt.commands)
        elif isinstance(stmt, NotEmptyConstraint):
            catalog.constraints.append(ViewConstraint(view=stmt.name))
        elif isinstance(stmt, InsertStatement):
            raise CompileError("top-level INSERT is not part of the dialect")
        else:
            raise CompileError(f"unexpected statement {stmt.kind}")

    for program in catalog.programs.values():
        for target in program.insert_targets():
            rel = catalog.relation(target)
            if rel.kind is RelationKind.TABLE and not rel.is_base:
                rel.kind = RelationKind.HISTORY_TABLE
                _check_names(rel)
            elif rel.kind is not RelationKind.HISTORY_TABLE:
                raise CompileError(
                    f"program {program.name} inserts into {target!r}, "
                    "which is not a history table"
                )
        for trigger in program.triggers:
            rel = catalog.relation(trigger)
            if rel.kind not in (RelationKind.EVENT_TABLE, RelationKind.ASYNC_VIEW):
                raise CompileError(
                    f"program {program.name} trigger {trigger!r} is not an event table"
                )

    return catalog


def _instantiate(use: UseTemplate, templates: dict[str, CreateTemplate]) -> SelectQuery:
    template = templates.get(use.template)
    if template is None:
        raise UnknownTemplateError(f"unknown template {use.template!r}")
    for var in use.bindings:
        if var not in template.params:
            raise MissingBindingError(
                f"template {template.name!r} has no variable {var!r}"
            )
    substituted = []
    for tok in tokenize(template.body)[:-1]:
        if tok.kind == "tvar":
            var = str(tok.value)
            if var not in use.bindings:
                raise MissingBindingError(
                    f"template {template.name!r} variable {var!r} is unbound"
                )
            substituted.extend(tokenize(use.bindings[var])[:-1])
        else:
            substituted.append(tok)
    try:
        return parse_query_tokens(substituted)
    except ParseError as exc:
        raise SubstitutionParseError(
            f"template {template.name!r} body does not parse after substitution: {exc}"
        ) from exc


def _check_names(rel: RelationDef) -> None:
    """A table's columns, or an async view's result columns, may not shadow
    its system columns or, unless it is a base table, its rowid; and no two
    of its columns may be one name to SQLite (`fold_case`)."""
    for col in rel.columns:
        if rel.system_columns and col.name in SYSTEM_COLUMNS:
            raise ReservedColumnNameError(
                f"{rel.name!r}: column {col.name!r} shadows a system column"
            )
        # the shipping cursor and the strict policy's newest-row read use the
        # rowid of these tables
        if not rel.is_base and col.name.lower() in ROWID_NAMES:
            raise ReservedColumnNameError(
                f"{rel.name!r}: column {col.name!r} shadows the rowid"
            )
    seen: dict[str, str] = {}
    for col in rel.physical_columns:
        key = fold_case(col.name)
        if key in seen:
            raise NameClashError(
                f"{rel.name!r}: columns {seen[key]!r} and {col.name!r} are one name to SQLite"
            )
        seen[key] = col.name


# --- column inference -----------------------------------------------------------


def infer_output_columns(query: SelectQuery, catalog: Catalog, bindings: Bindings) -> list[ColumnDef]:
    """Names and (best-effort) types for a query's result columns, read from
    what its names resolve to (`resolve_query`); a name that repeats an
    earlier one, up to letter case, gets a number."""
    columns: list[ColumnDef] = []
    taken: set[str] = set()

    def claim(name: str, type_: str | None) -> None:
        base = name
        n = 2
        while fold_case(name) in taken:
            name = f"{base}_{n}"
            n += 1
        taken.add(fold_case(name))
        columns.append(ColumnDef(name, type_))

    for i, item in enumerate(query.items):
        expr = item.expr
        if isinstance(expr, Star):
            for ref in bindings.star(expr):
                for col in catalog.columns_of(ref.name):
                    claim(col.name, col.type)
        else:
            name = expr.column if isinstance(expr, ColumnRef) else (
                expr.name.lower() if isinstance(expr, FuncCall) else f"col{i + 1}")
            claim(item.alias or name, _expr_type(expr, catalog, bindings))
    return columns


def _expr_type(expr: Expr, catalog: Catalog, bindings: Bindings) -> str | None:
    """The type whose affinity SQLite gives `expr` as a result column: a
    column's own, INT for the rowid, and a scalar subquery's one result
    column's (for `*`, the first column of the relation it expands to); None,
    no affinity, for any other expression."""
    if isinstance(expr, ScalarSubquery):
        first = expr.query.items[0].expr
        if isinstance(first, Star):
            columns = [c for ref in bindings.star(first)[:1] for c in catalog.columns_of(ref.name)]
            return columns[0].type if columns else None
        return _expr_type(first, catalog, bindings)
    if isinstance(expr, ColumnRef):
        ref = bindings[expr].ref
        for col in catalog.columns_of(ref.name) if ref is not None else []:
            if col.name == expr.column:
                return col.type
        if expr.column.lower() in ROWID_NAMES:
            return "INT"
    return None


# --- name resolution and shorthand rewriting -------------------------------------


class _Scope:
    def __init__(self, catalog: Catalog, query: SelectQuery, parent: "_Scope | None" = None):
        self.catalog = catalog
        self.parent = parent
        self.refs: dict[str, TableRef] = {}
        for ref in query.table_refs():
            if ref.binding in self.refs:
                raise DuplicateRelationError(
                    f"duplicate table alias {ref.binding!r} in query"
                )
            self.refs[ref.binding] = ref
        self.aliases = {item.alias: item.expr for item in query.items if item.alias}

    def relation(self, binding: str) -> RelationDef:
        if binding not in self.refs:
            raise UnknownRelationError(f"unknown table alias {binding!r}")
        return self.catalog.relation(self.refs[binding].name)

    def bound(self, binding: str) -> Binding:
        kind = self.relation(binding).kind
        return Binding(self.refs[binding], kind)

    def column_names(self, binding: str) -> set[str]:
        relation = self.relation(binding)
        names = {c.name for c in relation.physical_columns}
        if relation.kind in TABLE_KINDS or relation.kind is RelationKind.ASYNC_VIEW:
            names.add("rowid")  # implicit engine column on tables and result tables
        return names

    def resolve(self, ref: ColumnRef, allow_alias: bool) -> Binding:
        """What `ref` reads, found in this scope or an enclosing one, or the
        select-list alias it names."""
        if ref.table is not None:
            if ref.table not in self.refs:
                if self.parent is not None:
                    return self.parent.resolve(ref, allow_alias=False)
                raise UnknownRelationError(f"unknown table alias {ref.table!r}")
            if ref.column not in self.column_names(ref.table):
                raise UnknownColumnError(
                    f"relation {self.refs[ref.table].name!r} has no column {ref.column!r}"
                )
            return self.bound(ref.table)
        if allow_alias and ref.column in self.aliases:
            return Binding(None, None, self.aliases[ref.column])
        holders = [b for b in self.refs if ref.column in self.column_names(b)]
        if len(holders) > 1:
            raise AmbiguousColumnError(
                f"column {ref.column!r} is ambiguous across {sorted(holders)}"
            )
        if not holders:
            if self.parent is not None:
                return self.parent.resolve(ref, allow_alias=False)
            raise UnknownColumnError(f"unknown column {ref.column!r}")
        return self.bound(holders[0])


def resolve_query(query: SelectQuery, catalog: Catalog, bindings: Bindings | None = None,
                  parent: _Scope | None = None) -> Bindings:
    """Validate and normalize one query in place (recursing into subqueries),
    and record in `bindings` (a new record when None) what each ColumnRef and
    Star, at any depth, resolves to, each in its own scope, with the query's
    other facts (`Bindings`)."""
    bindings = Bindings() if bindings is None else bindings
    bindings.table_refs.extend(query.table_refs())
    for ref in query.table_refs():
        available = {c.name for c in catalog.relation(ref.name).physical_columns}
        if ref.latest and "timestep" not in available:
            raise LatestOnNonEventError(f"LATEST on {ref.name!r}, which has no timestep")
        if ref.latest_request and "request_timestep" not in available:
            raise LatestOnNonEventError(
                f"LATEST_REQUEST on {ref.name!r}, which has no request_timestep"
            )

    scope = _Scope(catalog, query, parent)
    _rewrite_join_shorthand(query, scope)

    def check(node: Expr, allow_alias: bool) -> None:
        if isinstance(node, ColumnRef):
            bindings.add(node, scope.resolve(node, allow_alias))
        elif isinstance(node, Star):
            bindings.add(node, *map(scope.bound, [node.table] if node.table else scope.refs))
        elif isinstance(node, FuncCall):
            _expand_star_args(node, scope)  # before its arguments are visited
            _check_function(node, scope)
            bindings.calls_random |= node.name.upper() == "RANDOM"
        elif isinstance(node, ScalarSubquery):
            resolve_query(node.query, catalog, bindings, parent=scope)
        for child in children(node):
            check(child, allow_alias)
        if isinstance(node, BinaryOp) and node.op in RANGE_OPS:  # its operands are bound by now
            bindings.ranged_tables.update(
                binding.ref.name for operand in (node.left, node.right)
                if isinstance(operand, ColumnRef) and operand.column == "timestep"
                and (binding := bindings[operand]).kind in (RelationKind.EVENT_TABLE, RelationKind.HISTORY_TABLE)
            )

    for item in query.items:
        check(item.expr, allow_alias=False)
    for join in query.joins:
        if join.on is not None:
            check(join.on, allow_alias=False)
    if query.where is not None:
        check(query.where, allow_alias=False)
    for expr in query.group_by:
        check(expr, allow_alias=True)
    if query.having is not None:
        check(query.having, allow_alias=True)
    for order in query.order_by:
        check(order.expr, allow_alias=True)
    if query.limit is not None:
        check(query.limit, allow_alias=False)
    return bindings


def _rewrite_join_shorthand(query: SelectQuery, scope: _Scope) -> None:
    """`a JOIN b ON col` with col in both sides becomes `a.col = b.col`."""
    if query.table is None:
        return
    earlier = [query.table.binding]
    for join in query.joins:
        right = join.table.binding
        if isinstance(join.on, ColumnRef) and join.on.table is None:
            col = join.on.column
            if col in scope.column_names(right):
                holders = [b for b in earlier if col in scope.column_names(b)]
                if len(holders) == 1:
                    join.on = BinaryOp(
                        "=",
                        ColumnRef(column=col, table=holders[0]),
                        ColumnRef(column=col, table=right),
                    )
                elif len(holders) > 1:
                    raise AmbiguousColumnError(
                        f"join column {col!r} is ambiguous across {sorted(holders)}"
                    )
        earlier.append(right)


def _check_function(call: FuncCall, scope: _Scope) -> None:
    """Check a call once `_expand_star_args` has expanded its `b.*` arguments."""
    udf = scope.catalog.udfs.get(call.name)
    if udf is not None:
        if any(isinstance(arg, Star) for arg in call.args):
            raise CompileError(f"{call.name}: bare * as a UDF argument must be qualified")
        if len(call.args) != udf.arity:
            raise UnknownUdfError(f"UDF {call.name!r} takes {udf.arity} arguments, got {len(call.args)}")
        return
    if call.name.upper() in ENGINE_FUNCTIONS:
        return
    raise UnknownUdfError(f"unknown function {call.name!r}")


def _expand_star_args(call: FuncCall, scope: _Scope) -> None:
    """`f(b.*)` passes the USER columns of b's relation, in declared order."""
    args: list[Expr] = []
    for arg in call.args:
        if isinstance(arg, Star) and arg.table is not None:
            args.extend(ColumnRef(column=c.name, table=arg.table) for c in scope.relation(arg.table).columns)
        else:
            args.append(arg)
    call.args = args


def all_queries(query: SelectQuery) -> list[SelectQuery]:
    """A query and its nested subqueries at every depth, outermost first."""
    nested = [node.query for clause in query.clauses() for node in walk(clause) if isinstance(node, ScalarSubquery)]
    return [query, *(q for sub in nested for q in all_queries(sub))]


def all_table_refs(query: SelectQuery) -> list[TableRef]:
    """Table references of a query and of its nested subqueries, at every depth."""
    return [ref for q in all_queries(query) for ref in q.table_refs()]


def referenced_relations(query: SelectQuery) -> set[str]:
    return {ref.name for ref in all_table_refs(query)}


def dependency_closure(name: str, catalog: Catalog) -> frozenset[str]:
    """Transitive reads of a relation, stopping at async views.

    A query that references an async view reads its locally materialized
    result relation, so changes to the async view's *inputs* do not count as
    changes to the reader until a result event lands.
    """
    graph = catalog.graph
    seen: set[str] = set()
    stack = list(graph.reads.get(name, ()))
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        rel = catalog.relations.get(cur)
        if rel is not None and rel.kind is RelationKind.ASYNC_VIEW:
            continue
        stack.extend(graph.reads.get(cur, ()))
    return frozenset(seen)


def closure_relations(name: str, catalog: Catalog) -> list[RelationDef]:
    """A query relation and the views it reads through, the ones in its
    dependency closure: async views are read as result tables."""
    closure = dependency_closure(name, catalog)
    views = sorted(
        n for n in closure
        if catalog.relations[n].query is not None
        and catalog.relations[n].kind is not RelationKind.ASYNC_VIEW
    )
    return [catalog.relations[n] for n in [name, *views]]


def closure_table_refs(name: str, catalog: Catalog) -> list[TableRef]:
    """Table references of `closure_relations`' queries, nested subqueries included."""
    return [ref for rel in closure_relations(name, catalog) for ref in rel.bindings.table_refs]


# --- dependency graph ----------------------------------------------------------


def build_dependency_graph(catalog: Catalog) -> DependencyGraph:
    reads: dict[str, tuple[str, ...]] = {}
    for rel in catalog.relations.values():
        if rel.query is not None:
            reads[rel.name] = tuple(sorted(referenced_relations(rel.query)))
        else:
            reads[rel.name] = ()
    writes: dict[str, set[str]] = {}
    for program in catalog.programs.values():
        for trigger in program.triggers:
            writes.setdefault(trigger, set()).update(program.insert_targets())
    graph = DependencyGraph(
        reads=reads,
        program_writes={k: tuple(sorted(v)) for k, v in writes.items()},
    )
    graph.topological_order()  # raises CyclicDependencyError on view cycles
    return graph


# --- diagnostics ----------------------------------------------------------------


def check_constraints_wellformed(catalog: Catalog) -> list[str]:
    diagnostics: list[str] = []
    known = ENGINE_FUNCTIONS | {name.upper() for name in catalog.udfs}  # SQLite ignores case
    for rel in catalog.relations.values():
        for col in rel.columns:
            if col.check is None:
                continue
            own = {c.name for c in rel.columns}
            where = f"{rel.name}.{col.name}: CHECK"
            for node in walk(col.check):
                if isinstance(node, ScalarSubquery):
                    diagnostics.append(f"{where} has a subquery; it may read only its own row")
                elif isinstance(node, FuncCall) and node.name.upper() not in known:
                    diagnostics.append(f"{where} calls unknown function {node.name!r}")
                elif not isinstance(node, ColumnRef):
                    continue
                elif node.table is not None and node.table != rel.name:
                    diagnostics.append(f"{where} references other relation {node.table!r}")
                elif node.column not in own:
                    diagnostics.append(f"{where} references unknown column {node.column!r}")
    for constraint in catalog.constraints:
        rel = catalog.relations.get(constraint.view)
        if rel is None:
            diagnostics.append(f"NOT EMPTY names unknown view {constraint.view!r}")
        elif rel.kind not in (RelationKind.VIEW, RelationKind.OUTPUT):
            diagnostics.append(
                f"NOT EMPTY target {constraint.view!r} is a {rel.kind.value}, not a view"
            )
    return diagnostics


# --- driver ----------------------------------------------------------------------


def compile_program(
    statements: list[Statement],
    base_schemas: dict[str, list[ColumnDef]] | None = None,
    udfs: dict[str, UdfDef] | None = None,
) -> Catalog:
    catalog = build_catalog(statements, base_schemas, udfs)
    catalog.graph = build_dependency_graph(catalog)

    # dependencies first, so each query sees the columns of what it reads
    for name in catalog.graph.topological_order():
        rel = catalog.relations.get(name)
        if rel is None or rel.query is None:
            continue
        rel.bindings = resolve_query(rel.query, catalog)
        rel.columns = infer_output_columns(rel.query, catalog, rel.bindings)
        if rel.kind is RelationKind.ASYNC_VIEW:
            _check_names(rel)  # its result table's columns
    for program in catalog.programs.values():
        for command in program.commands:
            query = command.select if isinstance(command, InsertStatement) else command
            if query is not None:
                resolve_query(query, catalog, program.bindings)
            if isinstance(command, InsertStatement):
                _check_insert_arity(command, catalog, program.bindings)

    catalog.diagnostics.extend(check_constraints_wellformed(catalog))
    event_names = {r.name for r in catalog.by_kind(RelationKind.EVENT_TABLE, RelationKind.ASYNC_VIEW)}
    for rel in catalog.by_kind(RelationKind.OUTPUT):
        closure = dependency_closure(rel.name, catalog)
        if rel.query is not None and rel.query.table is not None and not (closure & event_names):
            history = {r.name for r in catalog.by_kind(RelationKind.HISTORY_TABLE)}
            if not (closure & history):
                catalog.diagnostics.append(
                    f"output {rel.name!r} depends on no event table; it will never re-render"
                )
    return catalog


def _check_insert_arity(stmt: InsertStatement, catalog: Catalog, bindings: Bindings) -> None:
    target = catalog.relation(stmt.table)
    expected = stmt.columns if stmt.columns else [c.name for c in target.columns]
    user_columns = {c.name for c in target.columns}
    for col in expected:
        if col not in user_columns:
            raise UnknownColumnError(f"{stmt.table!r} has no column {col!r}")
    if stmt.select is not None:
        arities = [len(infer_output_columns(stmt.select, catalog, bindings))]
    else:
        arities = [len(row) for row in stmt.values or [[]]]
    for arity in arities:
        if arity != len(expected):
            raise CompileError(
                f"INSERT into {stmt.table!r} provides {arity} values "
                f"for {len(expected)} columns"
            )


def dump_ir(catalog: Catalog) -> str:
    """Human-readable compiled-plan text for --dump-ir."""
    lines = ["== relations =="]
    for rel in catalog.relations.values():
        cols = ", ".join(f"{c.name}:{c.type or 'ANY'}" for c in rel.columns)
        sys_cols = ", ".join(rel.system_columns)
        line = f"{rel.name} [{rel.kind.value}] ({cols})"
        if sys_cols:
            line += f" +system({sys_cols})"
        if rel.is_base:
            line += " base"
        lines.append(line)
        if rel.query is not None:
            lines.append(f"  query: {query_sql(rel.query)}")
    if catalog.programs:
        lines.append("== programs ==")
        for program in catalog.programs.values():
            lines.append(f"{program.name} AFTER ({', '.join(program.triggers)})")
    if catalog.constraints:
        lines.append("== constraints ==")
        for constraint in catalog.constraints:
            lines.append(f"{constraint.view} NOT EMPTY")
    if catalog.graph is not None:
        lines.append("== dependencies ==")
        for name, deps in sorted(catalog.graph.reads.items()):
            if deps:
                lines.append(f"{name} <- {', '.join(deps)}")
        for trigger, targets in sorted(catalog.graph.program_writes.items()):
            lines.append(f"{trigger} ~> {', '.join(targets)} (staged)")
    if catalog.diagnostics:
        lines.append("== diagnostics ==")
        lines.extend(catalog.diagnostics)
    return "\n".join(lines)
