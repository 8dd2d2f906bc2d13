"""Performance layer: shared-view materialization, pre-aggregates, the async
request cache and empty-delta checks.

All four are semantically transparent: materialization trades view
re-evaluation for refresh-on-change, a pre-aggregate is a count tile, a fixed
table counted once per key, so that a grouped query sums the counts of its
groups instead of counting rows (`COUNT(*)` alone: a sum of group sums adds
its terms in another order; tiles enter the compiled catalog before the
planner places them, as it places any view), the cache replays the rows of
an earlier answer, the very list its result event holds, as an ordinary async
result event, so concurrency policies apply to hits and misses alike, and an
output whose delta is provably empty keeps its rows.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, replace

from .ast_nodes import (
    BinaryOp,
    CaseExpr,
    ColumnDef,
    ColumnRef,
    Expr,
    FuncCall,
    IsNull,
    Join,
    OrderItem,
    ScalarSubquery,
    SelectItem,
    SelectQuery,
    Star,
    TableRef,
    UnaryOp,
    children,
    walk,
)
from .compiler import (
    GROWING_KINDS,
    QUERY_KINDS,
    Catalog,
    DependencyGraph,
    RelationDef,
    RelationKind,
    all_queries,
    build_dependency_graph,
    closure_relations,
    closure_table_refs,
    dependency_closure,
    resolve_query,
)
from .udfs import AGGREGATE_FUNCTIONS


def _nodes(queries: list[SelectQuery]) -> list[Expr]:
    """Every expression node of the given queries. Scalar subqueries are not
    entered; pass `all_queries(query)` to include them."""
    return [node for q in queries for clause in q.clauses() for node in walk(clause)]


def materialize_shared_views(
    catalog: Catalog,
    graph: DependencyGraph,
    evaluable: set[str] | None = None,
) -> dict[str, frozenset[str]]:
    """Plan table-backed storage for every view with two or more consumers:
    view -> the growing relations whose change forces its refresh, in refresh
    order (dependencies first); none for a view that reads only fixed tables.

    `evaluable` restricts candidates to views placed on the coordinator (a
    view over remote base data exists only at the leaders that read it). A
    view that calls RANDOM() is never stored: each of its reads must draw
    from the seeded generator (`calls_random`).
    """
    consumers: dict[str, int] = {}
    for name, reads in graph.reads.items():
        for dep in set(reads):
            consumers[dep] = consumers.get(dep, 0) + 1
    for program in catalog.programs.values():
        for dep in {ref.name for ref in program.bindings.table_refs}:
            consumers[dep] = consumers.get(dep, 0) + 1

    materialized: dict[str, frozenset[str]] = {}
    for name in graph.topological_order():
        rel = catalog.relations.get(name)
        if rel is None or rel.kind is not RelationKind.VIEW:
            continue
        if consumers.get(name, 0) < 2:
            continue
        if evaluable is not None and name not in evaluable or calls_random(name, catalog):
            continue
        materialized[name] = frozenset(
            dep for dep in dependency_closure(name, catalog) if catalog.relations[dep].kind in GROWING_KINDS
        )
    return materialized


# --- pre-aggregates ---------------------------------------------------------------


@dataclass(frozen=True)
class PreAggregate:
    """A count tile: a grouped query's fixed base table, counted once at setup
    per value of the base columns the query reads (`keys`, in the base table's
    column order). `binding` is the name the query reads the base table under,
    which the tile keeps."""

    base: str
    binding: str
    keys: tuple[str, ...]

    @property
    def table(self) -> str:
        return "__pre_" + "_".join((self.base, *self.keys))


def _is_aggregate(node: Expr) -> bool:
    """An aggregate call; MIN and MAX with two or more arguments are scalar."""
    if not isinstance(node, FuncCall) or node.name.upper() not in AGGREGATE_FUNCTIONS:
        return False
    return node.name.upper() not in ("MIN", "MAX") or len(node.args) == 1


def preaggregates(catalog: Catalog) -> dict[str, PreAggregate]:
    """Query relations whose grouped query reads a count tile instead of its
    base table: relation -> the tile. The rule and each exclusion are in
    "Pre-aggregates" in docs/dialect.md."""
    found: dict[str, PreAggregate] = {}
    sources: dict[str, tuple] = {}  # table -> the (base, keys) it was first named for
    for rel in catalog.by_kind(*QUERY_KINDS):
        pre = _preaggregate(rel, catalog)
        # a table name stands for one base table and key list and names no relation
        if pre is not None and pre.table not in catalog.relations and (
            sources.setdefault(pre.table, (pre.base, pre.keys)) == (pre.base, pre.keys)
        ):
            found[rel.name] = pre
    return found


def _preaggregate(relation: RelationDef, catalog: Catalog) -> PreAggregate | None:
    """The tile of a query over one base table B joined only to LATEST event
    rows, whose GROUP BY reads a LATEST column and whose only aggregate is
    COUNT(*); None when the query is not one."""
    query, bindings = relation.query, relation.bindings
    refs = query.table_refs()
    fixed = [ref for ref in refs if not ref.latest]
    if not query.group_by or len(fixed) != 1 or any(join.kind == "left" for join in query.joins):
        return None
    base = fixed[0]
    latest = [catalog.relations[ref.name] for ref in refs if ref is not base]
    if not catalog.relations[base.name].is_base or any(
        rel.kind is not RelationKind.EVENT_TABLE for rel in latest
    ):
        return None
    types = {c.name: c.type for c in catalog.relations[base.name].columns}
    others = {c.name for rel in latest for c in rel.physical_columns}
    aliases = {item.alias for item in query.items if item.alias}

    def alias(node: Expr) -> Expr | None:
        return bindings[node].alias if isinstance(node, ColumnRef) else None

    def of_latest(expr: Expr) -> bool:  # through the aliases it names
        return any(of_latest(alias(node)) if alias(node) is not None
                   else isinstance(node, ColumnRef) and bindings[node].ref.latest for node in walk(expr))

    def base_column(node: Expr) -> bool:
        return isinstance(node, ColumnRef) and bindings[node].ref is base

    # the groups are set by the interaction: GROUP BY reads a LATEST column
    if not any(of_latest(g) for g in query.group_by):
        return None

    nodes = [node for clause in query.clauses() for node in walk(clause)]
    if any(
        isinstance(node, (Star, ScalarSubquery))
        or (isinstance(node, FuncCall) and (node.name.upper() == "RANDOM" or node.name in catalog.udfs))
        or (alias(node) is not None and (node.column in types or node.column in others))
        for node in nodes
    ):
        return None

    # COUNT(*) alone: a sum of group sums adds its terms in another order,
    # which can round or overflow differently (COUNT(x), MIN and MAX would
    # regroup exactly, but no workload asks for them)
    if any(_is_aggregate(node) and not (node.star and node.name.upper() == "COUNT") for node in nodes):
        return None
    keys = {node.column for node in nodes if base_column(node)}
    if not keys or any(types.get(key) is None for key in keys):
        return None  # a rowid or an untyped column, whose equal values may differ in type

    # a base column outside an aggregate and outside every grouped expression
    # takes an arbitrary row's value, which the tile cannot give
    grouped = [alias(g) or g for g in query.group_by]

    def bare(expr: Expr) -> bool:
        if _is_aggregate(expr) or expr in grouped:
            return False
        if alias(expr) is not None:
            return bare(alias(expr))
        return base_column(expr) or any(bare(child) for child in children(expr))

    selected = [item.expr for item in query.items] + [o.expr for o in query.order_by]
    if any(bare(expr) for expr in selected + ([query.having] if query.having is not None else [])):
        return None
    if "__count" in types.keys() | others | aliases:
        return None
    return PreAggregate(base.name, base.binding, tuple(c for c in types if c in keys))


def preaggregated_query(query: SelectQuery, pre: PreAggregate) -> SelectQuery:
    """`query` over its tile, read under the base table's binding: each
    COUNT(*) becomes the SUM of the per-group counts. What does not change is
    shared with `query`."""

    def over(expr: Expr | None) -> Expr | None:
        if _is_aggregate(expr):  # a COUNT(*), the one aggregate a tile's reader computes
            return FuncCall("SUM", [ColumnRef("__count", pre.binding)])
        if isinstance(expr, BinaryOp):
            return BinaryOp(expr.op, over(expr.left), over(expr.right))
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op, over(expr.operand))
        if isinstance(expr, IsNull):
            return IsNull(over(expr.operand), expr.negated)
        if isinstance(expr, FuncCall):
            return FuncCall(expr.name, [over(arg) for arg in expr.args], expr.star)
        if isinstance(expr, CaseExpr):
            whens = [(over(cond), over(result)) for cond, result in expr.whens]
            return CaseExpr(over(expr.operand), whens, over(expr.else_result))
        return expr

    def table(ref: TableRef) -> TableRef:
        return ref if ref.latest else TableRef(pre.table, pre.binding)

    return replace(
        query,
        items=[SelectItem(over(item.expr), item.alias) for item in query.items],
        table=table(query.table),
        joins=[Join(join.kind, table(join.table), join.on) for join in query.joins],
        having=over(query.having),
        order_by=[OrderItem(over(order.expr), order.descending) for order in query.order_by],
    )


def add_preaggregates(catalog: Catalog) -> tuple[list[str], Catalog]:
    """The tiles of `preaggregates` by name, and a copy of the compiled
    `catalog` that holds each one as a view, `SELECT keys, COUNT(*) AS __count
    FROM base GROUP BY keys` (each key typed as its base column, `__count`
    untyped), and in which each reader is replaced, never changed, by one over
    `preaggregated_query`; `catalog` itself when no query qualifies. The
    planner places a tile as it places any view."""
    found = preaggregates(catalog)
    if not found:
        return [], catalog
    catalog = replace(catalog, relations=dict(catalog.relations))
    tiles = {pre.table: pre for pre in found.values()}
    for table, pre in sorted(tiles.items()):
        query = SelectQuery(
            items=[SelectItem(ColumnRef(key)) for key in pre.keys]
            + [SelectItem(FuncCall("COUNT", star=True), "__count")],
            table=TableRef(pre.base),
            group_by=[ColumnRef(key) for key in pre.keys],
        )
        types = {c.name: c.type for c in catalog.relations[pre.base].columns}
        columns = [ColumnDef(key, types[key]) for key in pre.keys] + [ColumnDef("__count", None)]
        catalog.relations[table] = RelationDef(
            table, RelationKind.VIEW, columns, query=query, bindings=resolve_query(query, catalog)
        )
    for name, pre in found.items():
        reader = replace(catalog.relations[name], query=preaggregated_query(catalog.relations[name].query, pre))
        reader.bindings = resolve_query(reader.query, catalog)
        catalog.relations[name] = reader
    catalog.graph = build_dependency_graph(catalog)
    return sorted(tiles), catalog


# --- request cache ---------------------------------------------------------------


def cacheable_views(catalog: Catalog) -> set[str]:
    """Async views whose result depends on the triggering event's payload alone,
    the ones the request cache serves: the only changing relation in the view's
    dependency closure is one event table, every reference to it is LATEST,
    no query reads its timestep or timestamp or a `*` over it (the cache key
    is the payload), nothing calls RANDOM(), and everything else the view
    reads is a base or plain table."""
    views = set()
    for view in catalog.by_kind(RelationKind.ASYNC_VIEW):
        changing = [
            name for name in dependency_closure(view.name, catalog)
            if catalog.relations[name].kind in GROWING_KINDS
        ]
        if len(changing) != 1 or catalog.relations[changing[0]].kind is not RelationKind.EVENT_TABLE:
            continue
        event = changing[0]
        if not all(ref.latest for ref in closure_table_refs(view.name, catalog) if ref.name == event):
            continue
        if any(
            isinstance(node, Star) or node.column in ("timestep", "timestamp")
            for rel in closure_relations(view.name, catalog) for node in rel.bindings.readers(event)
        ):
            continue
        if not calls_random(view.name, catalog):
            views.add(view.name)
    return views


def calls_random(name: str, catalog: Catalog) -> bool:
    """Whether a query in `name`'s dependency closure calls RANDOM(). Its
    result is then not a function of the state it runs on, and each
    evaluation moves the engine's seeded generator: such a relation must be
    evaluated exactly as often as it is asked for, never served from an
    earlier evaluation or skipped."""
    return any(rel.bindings.calls_random for rel in closure_relations(name, catalog))


# --- empty-delta checks ---------------------------------------------------------


def delta_paths(
    catalog: Catalog, materialized: Container[str]
) -> dict[str, tuple[str, list[str]]]:
    """Outputs monotone in exactly one event table E: output -> (E, the views
    and outputs from the output down to E). For such an output an append to E can
    only add rows, and only rows built from the appended ones, so when E alone
    changed and the query over E's new rows is empty, the output is unchanged.

    Monotone means: every query from the output down to E is select-project-
    join (no aggregate, GROUP BY, HAVING, ORDER BY, LIMIT or LEFT join) and
    reads E through exactly one plain reference, never through LATEST or a
    scalar subquery (any view or output that reads E counts as reading it),
    and no view on the way is materialized. Nothing in the
    closure calls RANDOM() (see `calls_random`) or reads E's `rowid`, which
    E's delta lacks."""
    paths = {}
    for output in catalog.by_kind(RelationKind.OUTPUT):
        found = {}
        for name in sorted(dependency_closure(output.name, catalog)):
            if catalog.relations[name].kind is RelationKind.EVENT_TABLE:
                path = _delta_path(output.name, name, catalog, materialized)
                if path is not None:
                    found[name] = path
        if len(found) == 1 and not calls_random(output.name, catalog) and not any(
            isinstance(node, ColumnRef) and node.column == "rowid"
            for rel in closure_relations(output.name, catalog) for node in rel.bindings.readers(*found)
        ):
            paths[output.name] = next(iter(found.items()))
    return paths


def _delta_path(
    name: str, event: str, catalog: Catalog, materialized: Container[str]
) -> list[str] | None:
    """The views and outputs from `name` down to `event`, or None when a query
    on the way is not select-project-join or does not read `event` exactly
    once, plainly. An async view is read as its result table, never as E."""

    def reaches(ref) -> bool:
        rel = catalog.relations[ref.name]
        return ref.name == event or (
            rel.kind in (RelationKind.VIEW, RelationKind.OUTPUT)
            and event in dependency_closure(ref.name, catalog)
        )

    views: list[str] = []
    while True:
        query = catalog.relations[name].query
        if not _select_project_join(query):
            return None
        direct = [ref for ref in query.table_refs() if reaches(ref)]
        nested = [ref for sub in all_queries(query)[1:] for ref in sub.table_refs() if reaches(ref)]
        if len(direct) != 1 or nested or direct[0].latest or direct[0].latest_request:
            return None
        name = direct[0].name
        if name == event:
            return views
        if name in materialized:
            return None
        views.append(name)


def _select_project_join(query: SelectQuery) -> bool:
    if query.group_by or query.having is not None or query.order_by or query.limit is not None:
        return False
    if any(join.kind == "left" for join in query.joins):
        return False
    return not any(
        isinstance(node, FuncCall) and node.name.upper() in AGGREGATE_FUNCTIONS
        for node in _nodes([query])
    )


class RequestCache:
    """Maps (async view, triggering parameters) to the rows of the first
    answer for that key.

    The key is the tuple itself: params are validated payload values, and a
    REAL column stores 2000 and 2000.0 alike, so equal params give equal rows.
    The cache keeps the very list the answer's event holds, neither copied nor
    compared with other answers, so a hit replays the same objects, exact in
    type and value: 1 and 1.0, -0.0 and 0.0, and a TEXT and a BLOB stay apart.
    """

    def __init__(self) -> None:
        self.rows: dict[tuple, list[tuple]] = {}  # (view, params) -> rows
        self.hits = 0
        self.misses = 0

    def lookup(self, view: str, params: tuple) -> list[tuple] | None:
        rows = self.rows.get((view, params))
        if rows is None:
            self.misses += 1
        else:
            self.hits += 1
        return rows

    def store(self, view: str, params: tuple, rows: list[tuple]) -> None:
        self.rows.setdefault((view, params), rows)

    def stats(self) -> dict[str, int]:
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_entries": len(self.rows),
        }
