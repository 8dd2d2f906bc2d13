"""Assign relations to database instances and emit per-instance SQL programs.

`FederationPlan.placement` is the one record of where each relation lives or
is evaluated; emission, materialization and NOT EMPTY probes read it:

- a base table is placed on the instance that owns it;
- an async view is placed on its leader, the instance that `choose_leader`
  picks so that the fewest rows are shipped (the planner's only choice);
- event, history and plain tables and outputs are placed on the coordinator;
- a plain view is placed on the coordinator when it reads no base table held
  by another instance. Otherwise it has no entry: it exists only inside the
  programs of the leaders whose async views read it.

What each instance stores is one rule, the coordinator's included: the base
tables it owns, the relations shipped to it, and, on the coordinator, every
event, history, plain and async-result table. Every async view's leader,
the coordinator too, receives each table its view reads off it: a base or
plain table as a setup snapshot, a growing one as deltas. Every stored table
is declared with its relation's column types, so its rows keep the affinity
of the query columns they came from.

Every output that reads a base table off the coordinator is rewritten into
an async view that runs at a leader instance plus a coordination output
implementing the strict default policy: result rows render, in the order of
the output's own ORDER BY, only when their request_timestep equals the newest
timestep of the event tables and async views the original query read; the
event tables are the ones it waits on (`FederationPlan.waits_on`). Declared
async views are never touched, so custom policies stay exactly as written.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .ast_nodes import (
    BinaryOp,
    ColumnDef,
    ColumnRef,
    FuncCall,
    InsertStatement,
    Literal,
    OrderItem,
    ScalarSubquery,
    SelectItem,
    SelectQuery,
    Star,
    TableRef,
)
from .compiler import (
    GROWING_KINDS,
    ROWID_NAMES,
    SYSTEM_COLUMNS,
    Catalog,
    RelationDef,
    RelationKind,
    build_dependency_graph,
    closure_table_refs,
    dependency_closure,
    fold_case,
    resolve_query,
)
from .engine import quote_name, sql_type
from .errors import (
    CompileError,
    ConfigError,
    DuplicateRelationError,
    UnknownRelationError,
)
from .optimizer import cacheable_views, calls_random, delta_paths
from .printer import expr_sql, query_sql, quote_ident

KIND_QUICK = "quick"


@dataclass
class DbDescriptor:
    db_id: str
    kind: str  # quick | background | remote
    tables: dict[str, list[ColumnDef]] = field(default_factory=dict)
    row_estimates: dict[str, int] = field(default_factory=dict)
    # each table of the instance's SQLite source file -> None when the
    # instance starts as a page copy of the file, else why it copies rows
    file_loads: dict[str, str | None] = field(default_factory=dict)


@dataclass(frozen=True)
class ShipmentSpec:
    # a snapshot is copied once at setup; otherwise, before each EvalRequest to
    # the destination, the rows not shipped yet go out (history tables included)
    relation: str
    destination: str
    snapshot: bool = False


class PlannedIndex(NamedTuple):
    """An index on `table`'s `column` in `instance`'s program. `reads` are the
    planned reads evaluated there that compare the column by a range; it is
    empty for a result table's request_timestep, which each policy reads by."""

    table: str
    column: str
    instance: str
    reads: tuple[str, ...] = ()


@dataclass
class FederationPlan:
    coordinator: str
    catalog: Catalog
    placement: dict[str, str]
    shipments: list[ShipmentSpec]
    # file-backed base table -> None when its owner starts as a page copy of
    # the file (its program then creates no table for it), else why the owner
    # copies its rows (`DbDescriptor.file_loads`). Snapshots copy rows
    file_loads: dict[str, str | None] = field(default_factory=dict)
    rewritten_outputs: dict[str, str] = field(default_factory=dict)  # output -> async view
    # rewritten output -> the event tables whose newest interaction its strict
    # tail awaits, read with or without LATEST; an output that reads none has
    # no entry. In the pass of an event on one of them the output has no
    # rows: the answer to that request enters later, as a timestep of its own
    waits_on: dict[str, list[str]] = field(default_factory=dict)
    # each view kept as a table where `materialized_on` says (a shared view or
    # a pre-aggregate) -> the growing relations whose change forces its
    # refresh, in dependency order; set before emit_per_db_sql, which reads it
    materialized: dict[str, frozenset[str]] = field(default_factory=dict)
    programs: dict[str, str] = field(default_factory=dict)
    # instance -> the tables its program creates, in program order (the one
    # storage rule, `emit_per_db_sql`); setup loads each base table into
    # exactly the instances that list it
    stored: dict[str, list[str]] = field(default_factory=dict)
    # every index the programs create, in program order (`planned_indexes`);
    # set by emit_per_db_sql
    indexes: list[PlannedIndex] = field(default_factory=list)
    # lowered SELECT of every query relation (each async view's leader runs
    # its own on each request), each output's read (`output_read_sql`), and
    # the statements each state program command runs (one per VALUES row; a
    # command that selects an output whole without RANDOM() runs the
    # output's read, so the engine serves the output its rows); set by
    # emit_per_db_sql
    relation_sql: dict[str, str] = field(default_factory=dict)
    output_sql: dict[str, str] = field(default_factory=dict)
    program_sql: dict[str, list[list[str]]] = field(default_factory=dict)
    # output -> (event table E, delta statement): one row iff the output's
    # query over E's rows at timestep ? is non-empty; set by emit_per_db_sql
    delta_sql: dict[str, tuple[str, str]] = field(default_factory=dict)
    # async views the request cache serves (`cacheable_views`); set by
    # emit_per_db_sql
    cached_views: set[str] = field(default_factory=set)

    @property
    def page_copied(self) -> set[str]:
        """The file-backed base tables whose owner takes them by page copy."""
        return {table for table, reason in self.file_loads.items() if reason is None}

    @property
    def leaders(self) -> dict[str, str]:
        """Each async view -> its leader, the instance it is placed on."""
        return {
            rel.name: self.placement[rel.name]
            for rel in self.catalog.by_kind(RelationKind.ASYNC_VIEW)
        }


def base_schemas_of(dbs: list[DbDescriptor]) -> dict[str, list[ColumnDef]]:
    schemas: dict[str, list[ColumnDef]] = {}
    for db in dbs:
        for name, cols in db.tables.items():
            if name in schemas:
                raise DuplicateRelationError(
                    f"base relation {name!r} exists on more than one instance"
                )
            schemas[name] = cols
    return schemas


def coordinator_of(dbs: list[DbDescriptor]) -> str:
    quick = [db.db_id for db in dbs if db.kind == KIND_QUICK]
    if len(quick) != 1:
        raise ConfigError(f"exactly one quick instance required, found {len(quick)}")
    return quick[0]


# --- placement -----------------------------------------------------------------


def locate_bases(catalog: Catalog, dbs: list[DbDescriptor]) -> dict[str, str]:
    """The instance that owns each base table."""
    owners: dict[str, str] = {}
    for db in dbs:
        for name in db.tables:
            if name not in catalog.relations:
                raise UnknownRelationError(
                    f"instance {db.db_id} provides {name!r}, which the catalog does not know"
                )
            owners[name] = db.db_id
    for rel in catalog.relations.values():
        if rel.is_base and rel.name not in owners:
            raise UnknownRelationError(f"base relation {rel.name!r} is on no instance")
    return owners


def locate_relations(
    catalog: Catalog, dbs: list[DbDescriptor], bases: dict[str, str], coordinator: str
) -> dict[str, str]:
    """Placement of every relation, by the rule in the module docstring."""
    placement = dict(bases)
    estimates = _estimates(catalog, dbs)
    for rel in catalog.relations.values():
        if rel.is_base:
            continue
        if rel.kind is RelationKind.ASYNC_VIEW:
            placement[rel.name] = choose_leader(rel.name, bases, estimates, catalog, dbs, coordinator)
        elif rel.kind is not RelationKind.VIEW or not remote_bases(
            rel.name, catalog, bases, coordinator
        ):
            placement[rel.name] = coordinator
    return placement


def _estimates(catalog: Catalog, dbs: list[DbDescriptor]) -> dict[str, int]:
    estimates: dict[str, int] = {}
    for db in dbs:
        estimates.update(db.row_estimates)
    for rel in catalog.relations.values():
        # events and derived state are counted at max(1, current count); at
        # setup nothing has happened yet, so they cost 1
        estimates.setdefault(rel.name, 1)
    return estimates


def base_closure(name: str, catalog: Catalog) -> set[str]:
    """Leaf relations a query relation reads, directly or through views: tables,
    and async views, which a reader reads as their local result tables."""
    return {
        leaf
        for leaf in dependency_closure(name, catalog)
        if leaf in catalog.relations
        and (catalog.relations[leaf].query is None
             or catalog.relations[leaf].kind is RelationKind.ASYNC_VIEW)
    }


def remote_bases(name: str, catalog: Catalog, placement: dict[str, str], coordinator: str) -> set[str]:
    """Base tables off the coordinator that a query relation reads. A base
    table on no instance counts as local; `locate_bases` rejects it."""
    return {
        leaf
        for leaf in base_closure(name, catalog)
        if catalog.relations[leaf].is_base and placement.get(leaf, coordinator) != coordinator
    }


def choose_leader(
    name: str,
    bases: dict[str, str],
    estimates: dict[str, int],
    catalog: Catalog,
    dbs: list[DbDescriptor],
    coordinator: str,
) -> str:
    """The instance that evaluates query relation `name` shipping the fewest
    estimated rows; ties go to the coordinator, then by id. Every leaf it reads
    but a base table is on the coordinator, an async view as its result table."""
    leaves = base_closure(name, catalog)

    def cost(db_id: str) -> int:
        return sum(estimates[leaf] for leaf in leaves if bases.get(leaf, coordinator) != db_id)

    return min((db.db_id for db in dbs), key=lambda db_id: (cost(db_id), db_id != coordinator, db_id))


# --- output rewriting ------------------------------------------------------------


def rewrite_remote_output(
    output: RelationDef, catalog: Catalog
) -> tuple[RelationDef, RelationDef, list[str]]:
    """Split a remote-spanning output into (async view, coordination output,
    the event tables whose newest interaction the coordination output awaits:
    only an event table surely gets a row in the pass of its own event)."""
    base = f"{output.name}Event"
    async_name = base
    n = 2
    taken = {fold_case(name) for name in catalog.relations}
    while fold_case(async_name) in taken:
        async_name = f"{base}{n}"
        n += 1
    async_view = RelationDef(
        name=async_name,
        kind=RelationKind.ASYNC_VIEW,
        columns=output.columns,
        query=output.query,
        bindings=output.bindings,
    )
    for col in output.columns:
        if col.name in SYSTEM_COLUMNS or col.name.lower() in ROWID_NAMES:
            raise CompileError(
                f"output {output.name!r} spans remote data but selects a column "
                f"named {col.name!r}; alias it so the async result schema is valid"
            )
    items = [SelectItem(ColumnRef(column=c.name, table="e")) for c in output.columns]
    coord_query = SelectQuery(items=items, table=TableRef(name=async_name, alias="e"))
    if output.query.order_by:
        # the result table holds the leader's rows in the output's own order
        coord_query.order_by = [OrderItem(ColumnRef(column="rowid", table="e"))]
    # the answer shown is the one to the newest request, made by a new row in
    # an event table or async view the output reads, with or without LATEST.
    # Those tables are append-only, and each row's timestep rises with its
    # rowid, so a table's newest timestep is its last row's, read from the
    # end of the rowid b-tree; NULL while it is empty. Two tables never share
    # a timestep: the newest request is the greatest of their newest, by
    # SQLite's multi-argument scalar MAX, NULL while any of them is empty
    requesting = list(dict.fromkeys(
        ref.name
        for ref in closure_table_refs(output.name, catalog)
        if catalog.relations[ref.name].kind in (RelationKind.EVENT_TABLE, RelationKind.ASYNC_VIEW)
    ))
    newest = [
        ScalarSubquery(SelectQuery(
            items=[SelectItem(ColumnRef(column="timestep"))],
            table=TableRef(name=table),
            order_by=[OrderItem(ColumnRef(column="rowid"), descending=True)],
            limit=Literal(1),
        ))
        for table in requesting
    ]
    if newest:
        coord_query.where = BinaryOp(
            "=",
            ColumnRef(column="request_timestep", table="e"),
            newest[0] if len(newest) == 1 else FuncCall("MAX", newest),
        )
    coord_output = RelationDef(
        name=output.name, kind=RelationKind.OUTPUT, columns=output.columns, query=coord_query
    )
    waits_on = [r for r in requesting if catalog.relations[r].kind is RelationKind.EVENT_TABLE]
    return async_view, coord_output, waits_on


# --- plan driver ------------------------------------------------------------------


def plan_federation(catalog: Catalog, dbs: list[DbDescriptor]) -> FederationPlan:
    # planning adds relations, swaps rewritten outputs and rebuilds the graph;
    # those containers are copied, the compiled queries are shared
    catalog = replace(
        catalog, relations=dict(catalog.relations), constraints=list(catalog.constraints)
    )
    coordinator = coordinator_of(dbs)
    bases = locate_bases(catalog, dbs)

    rewritten: dict[str, str] = {}
    waits_on: dict[str, list[str]] = {}
    for name in list(catalog.relations):
        rel = catalog.relations[name]
        if rel.kind is not RelationKind.OUTPUT or not remote_bases(name, catalog, bases, coordinator):
            continue
        async_view, coord_output, tables = rewrite_remote_output(rel, catalog)
        catalog.relations[async_view.name] = async_view
        catalog.relations[name] = coord_output
        coord_output.bindings = resolve_query(coord_output.query, catalog)
        rewritten[name] = async_view.name
        if tables:
            waits_on[name] = tables

    catalog.graph = build_dependency_graph(catalog)

    # placed after rewriting, so each new async view gets a leader
    placement = locate_relations(catalog, dbs, bases, coordinator)

    shipments: set[ShipmentSpec] = set()
    for async_view in catalog.by_kind(RelationKind.ASYNC_VIEW):
        view, leader = async_view.name, placement[async_view.name]
        for leaf in base_closure(view, catalog):
            rel = catalog.relations[leaf]
            if bases.get(leaf, coordinator) == leader:  # choose_leader's rule
                continue
            if rel.kind in GROWING_KINDS:  # ships as deltas
                shipments.add(ShipmentSpec(relation=leaf, destination=leader))
            elif rel.is_base or rel.kind is RelationKind.TABLE:
                shipments.add(ShipmentSpec(relation=leaf, destination=leader, snapshot=True))

    plan = FederationPlan(
        coordinator=coordinator,
        catalog=catalog,
        placement=placement,
        shipments=sorted(shipments, key=lambda s: (s.relation, s.destination)),
        file_loads={t: reason for db in dbs for t, reason in db.file_loads.items()},
        rewritten_outputs=rewritten,
        waits_on=waits_on,
    )
    return plan


# --- SQL emission -------------------------------------------------------------------


def index_name(table: str, column: str) -> str:
    """One name per (table, column): the table's length marks where it ends."""
    return f"__idx_{len(table)}_{table}_{column}"


def evaluated_on(plan: FederationPlan, name: str) -> list[str]:
    """The instances that evaluate query relation `name`: its placement, and,
    for a plain view, the leaders of the async views that read it, whose
    programs create it too (the only instances a view placed nowhere is on)."""
    on = {plan.placement[name]} if name in plan.placement else set()
    if plan.catalog.relations[name].kind is RelationKind.VIEW:
        on |= {
            leader for view, leader in plan.leaders.items() if name in dependency_closure(view, plan.catalog)
        }
    return sorted(on)


def materialized_on(plan: FederationPlan, view: str) -> list[str]:
    """Where materialized view `view` is a table: every instance that
    evaluates it when it reads no growing relation, else the coordinator,
    which refreshes it (a leader evaluates it as a view)."""
    return [plan.coordinator] if plan.materialized[view] else evaluated_on(plan, view)


def _create_table_sql(name: str, columns: list[ColumnDef], system: tuple[str, ...]) -> str:
    decls = []
    for col in columns:
        decl = quote_ident(col.name)
        typed = sql_type(col.type)
        if typed:
            decl += f" {typed}"
        decls.append(decl)
    decls.extend(f"{c} INTEGER" for c in system)
    return f"CREATE TABLE {quote_ident(name)} ({', '.join(decls)});"


def planned_indexes(plan: FederationPlan, stored: dict[str, list[RelationDef]]) -> list[PlannedIndex]:
    """The one index rule, over each instance's stored tables in order:
    - an async-result table, and each shadow of one, is indexed on
      request_timestep: each concurrency policy finds its rows by that column,
      and without the index SQLite builds an automatic one over the whole
      result history on every evaluation;
    - an event or history table is indexed on timestep on each instance that
      evaluates a planned read comparing that column by a range (`Bindings.ranged_tables`;
      programs run on the coordinator): without it SQLite scans the growing
      table on every evaluation. A table read only through LATEST, and any
      base table, gets no index."""
    ranged: dict[tuple[str, str], set[str]] = {}
    reads = [(rel.name, rel.bindings.ranged_tables, evaluated_on(plan, rel.name))
             for rel in plan.catalog.relations.values() if rel.bindings.ranged_tables]
    reads += [(program.name, program.bindings.ranged_tables, [plan.coordinator])
              for program in plan.catalog.programs.values() if program.bindings.ranged_tables]
    for read, tables, instances in reads:
        for table in tables:
            for db_id in instances:
                ranged.setdefault((table, db_id), set()).add(read)
    indexes = []
    for db_id, tables in stored.items():
        for rel in tables:
            if rel.kind is RelationKind.ASYNC_VIEW:
                indexes.append(PlannedIndex(rel.name, "request_timestep", db_id))
            elif (rel.name, db_id) in ranged:
                indexes.append(PlannedIndex(rel.name, "timestep", db_id, tuple(sorted(ranged[rel.name, db_id]))))
    return indexes


def output_read_sql(rel: RelationDef) -> str:
    """How an output is read. Without its own ORDER BY it is read in canonical
    order: NULL, numbers by value (integer before real on a tie), text by code
    point, blobs."""
    sql = f"SELECT * FROM {quote_ident(rel.name)}"
    if rel.query.order_by:
        return sql
    columns = [quote_name(c.name) for c in rel.columns]
    return sql + " ORDER BY " + ", ".join(f"{c}, typeof({c})" for c in columns)


def _command_sql(command, plan: FederationPlan) -> list[str]:
    """What a state-program command runs: its SELECT, the read of an output
    without RANDOM() it selects whole (`SELECT * FROM o`), or one SELECT per
    VALUES row."""
    udfs = plan.catalog.udfs
    query = command.select if isinstance(command, InsertStatement) else command
    if query is not None:
        name = query.table.name if query.table is not None else None
        if (name in plan.output_sql and query == SelectQuery([SelectItem(Star())], TableRef(name))
                and not calls_random(name, plan.catalog)):
            return [plan.output_sql[name]]
        return [query_sql(query, lower=True, udfs=udfs)]
    return [
        "SELECT " + ", ".join(expr_sql(v, lower=True, udfs=udfs) for v in row)
        for row in command.values or []
    ]


def emit_per_db_sql(plan: FederationPlan) -> dict[str, str]:
    """DDL and views per instance; executing them on fresh engines
    reconstructs the federation (and re-executing them collides, by design).
    Every instance, the coordinator included, gets one program: first the
    tables it stores (the base tables it owns, the relations shipped to it,
    and, on the coordinator, every event, history, plain and async-result
    table), each declared from its relation's columns and system columns;
    then the views and outputs evaluated on it, in dependency order. An
    owner that starts as a page copy of its SQLite file (`file_loads`)
    creates no table for the file's tables. No engine has a view of an async
    view: its leader runs its `relation_sql`. Each view in
    `plan.materialized` is a table, typed as the view's columns, on each
    instance `materialized_on` names.
    Every query is lowered to SQL once, here, and kept on the plan for the
    runtime (`relation_sql`, `output_sql`, `program_sql`, `delta_sql`), next
    to the async views the request cache serves (`cached_views`). The
    lowering inlines the built-in UDFs the catalog's registry leaves in
    place, so SQLite runs them natively. Each stored table's index
    (`planned_indexes`) is created right after it."""
    catalog = plan.catalog
    order = catalog.graph.topological_order()
    programs: dict[str, str] = {}

    plan.relation_sql = lowered = {
        rel.name: query_sql(rel.query, lower=True, udfs=catalog.udfs)
        for rel in catalog.relations.values()
        if rel.query is not None
    }
    plan.output_sql = {rel.name: output_read_sql(rel) for rel in catalog.by_kind(RelationKind.OUTPUT)}
    plan.program_sql = {
        program.name: [_command_sql(command, plan) for command in program.commands]
        for program in catalog.programs.values()
    }
    plan.cached_views = cacheable_views(catalog)

    def topo_sorted(names: set[str]) -> list[str]:
        return [n for n in order if n in names]

    def columns(name: str) -> str:
        # the compiler's column names, the ones tables of the view's rows use
        return ", ".join(quote_ident(c.name) for c in catalog.relations[name].columns)

    def create_view_sql(name: str) -> str:
        return f"CREATE VIEW {quote_ident(name)}({columns(name)}) AS {lowered[name]};"

    # the delta statement shadows E, and the views between the output and E
    # (each reads the next, so reversed they are in dependency order), with
    # common table expressions under the views' column names; E's rows at t
    # are read from E itself, so column affinity applies as in the full
    # query. E holds one row per timestep and changes only in the pass its
    # own event triggers, so that row is its last one, found by rowid
    # without a scan
    plan.delta_sql = {}
    for output, (event, views) in delta_paths(catalog, plan.materialized).items():
        table = f"main.{quote_ident(event)}"
        ctes = [
            f"{quote_ident(event)} AS (SELECT * FROM {table} WHERE timestep = ? "
            f"AND _rowid_ = (SELECT MAX(_rowid_) FROM {table}))"
        ]
        ctes += [f"{quote_ident(view)}({columns(view)}) AS ({lowered[view]})" for view in reversed(views)]
        plan.delta_sql[output] = (
            event, f"WITH {', '.join(ctes)} SELECT 1 FROM ({lowered[output]}) LIMIT 1"
        )

    # -- each instance: the tables it stores, then the queries it evaluates --
    page_copied = plan.page_copied
    shipped = {(spec.relation, spec.destination) for spec in plan.shipments}

    def stores(rel: RelationDef, db_id: str) -> bool:
        if (rel.name, db_id) in shipped:
            return True
        if rel.is_base:
            return plan.placement[rel.name] == db_id and rel.name not in page_copied
        return db_id == plan.coordinator and (rel.query is None or rel.kind is RelationKind.ASYNC_VIEW)

    evaluators = {
        rel.name: evaluated_on(plan, rel.name) for rel in catalog.by_kind(RelationKind.VIEW, RelationKind.OUTPUT)
    }
    stored = {
        db_id: [rel for rel in catalog.relations.values() if stores(rel, db_id)]
        for db_id in [plan.coordinator, *sorted(set(plan.placement.values()) - {plan.coordinator})]
    }
    plan.stored = {db_id: [rel.name for rel in tables] for db_id, tables in stored.items()}
    plan.indexes = planned_indexes(plan, stored)
    indexed = {(index.table, index.instance): index.column for index in plan.indexes}
    for db_id, tables in stored.items():
        lines = [f"-- program for instance {db_id}"]
        for rel in tables:
            lines.append(_create_table_sql(rel.name, rel.columns, rel.system_columns))
            column = indexed.get((rel.name, db_id))
            if column is not None:
                lines.append(
                    f"CREATE INDEX {quote_ident(index_name(rel.name, column))} "
                    f"ON {quote_ident(rel.name)} ({column});"
                )
        for name in topo_sorted({name for name, on in evaluators.items() if db_id in on}):
            if name in plan.materialized and db_id in materialized_on(plan, name):
                lines.append(_create_table_sql(name, catalog.relations[name].columns, ()))
            else:
                lines.append(create_view_sql(name))
        programs[db_id] = "\n".join(lines)

    plan.programs = programs
    return programs


def dump_plan(plan: FederationPlan) -> str:
    lines = ["== placement =="]
    for name in sorted(plan.placement):
        lines.append(f"{name} @ {plan.placement[name]}")
    if plan.leaders:
        lines.append("== leaders ==")
        for view in sorted(plan.leaders):
            lines.append(f"{view} -> {plan.leaders[view]}")
    if plan.rewritten_outputs:
        lines.append("== rewritten outputs ==")
        for output in sorted(plan.rewritten_outputs):
            line = f"{output} via {plan.rewritten_outputs[output]}"
            if output in plan.waits_on:
                line += f", waits on {', '.join(plan.waits_on[output])}"
            lines.append(line)
    if plan.shipments:
        lines.append("== shipments ==")
        for spec in plan.shipments:
            mode = "snapshot" if spec.snapshot else "deltas"
            lines.append(f"{spec.relation} -> {spec.destination} ({mode})")
    if plan.file_loads:
        lines.append("== base loads ==")
        for table, reason in sorted(plan.file_loads.items()):
            load = "page copy" if reason is None else f"row copy ({reason})"
            lines.append(f"{table} @ {plan.placement[table]}: {load}")
        snapshots = sorted(
            (table, db_id) for db_id, tables in plan.stored.items() for table in tables
            if table in plan.file_loads and db_id != plan.placement[table]
        )
        for table, db_id in snapshots:
            lines.append(f"{table} -> {db_id}: row copy (snapshot)")
    if plan.indexes:
        lines.append("== indexes ==")
        for index in plan.indexes:
            asked = f"range in {', '.join(index.reads)}" if index.reads else "policy reads"
            lines.append(f"{index.table} ({index.column}) @ {index.instance}, {asked}")
    if plan.materialized:
        lines.append("== materialized ==")
        for view in sorted(plan.materialized):
            reads = sorted(plan.materialized[view])
            kept = f"refreshed on {', '.join(reads)}" if reads else "filled once"
            lines.append(f"{view} @ {', '.join(materialized_on(plan, view))}, {kept}")
    if plan.output_sql:
        lines.append("== outputs ==")
        for output, sql in sorted(plan.output_sql.items()):
            lines.append(f"{output}: {sql}")
    if plan.delta_sql:
        lines.append("== delta ==")
        for output in sorted(plan.delta_sql):
            lines.append(f"{output} on {plan.delta_sql[output][0]}")
    return "\n".join(lines)
