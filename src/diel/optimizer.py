"""Performance layer: shared-view materialization and the async request cache.

Both are semantically transparent: materialization trades view re-evaluation
for refresh-on-change, and the cache replays stored result rows as ordinary
async result events, so concurrency policies apply to hits and misses alike.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .ast_nodes import InsertStatement
from .compiler import (
    GROWING_KINDS,
    Catalog,
    DependencyGraph,
    RelationKind,
    closure_table_refs,
    dependency_closure,
    referenced_relations,
)


@dataclass
class MaterializationPlan:
    # view name -> relations whose change forces a refresh
    tables: dict[str, frozenset[str]] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)  # refresh order (dependencies first)

    def __contains__(self, name: str) -> bool:
        return name in self.tables


def materialize_shared_views(
    catalog: Catalog,
    graph: DependencyGraph,
    evaluable: set[str] | None = None,
) -> MaterializationPlan:
    """Plan table-backed storage for every view with two or more consumers.

    `evaluable` restricts candidates to views placed on the coordinator (a
    view over remote base data exists only at the leaders that read it).
    """
    consumers: dict[str, int] = {}
    for name, reads in graph.reads.items():
        for dep in set(reads):
            consumers[dep] = consumers.get(dep, 0) + 1
    for program in catalog.programs.values():
        seen: set[str] = set()
        for command in program.commands:
            query = command.select if isinstance(command, InsertStatement) else command
            if query is not None:
                seen |= referenced_relations(query)
        for dep in seen:
            consumers[dep] = consumers.get(dep, 0) + 1

    plan = MaterializationPlan()
    for name in graph.topological_order():
        rel = catalog.relations.get(name)
        if rel is None or rel.kind is not RelationKind.VIEW:
            continue
        if consumers.get(name, 0) < 2:
            continue
        if evaluable is not None and name not in evaluable:
            continue
        plan.tables[name] = dependency_closure(name, catalog)
        plan.order.append(name)
    return plan


# --- request cache ---------------------------------------------------------------


def cacheable_views(catalog: Catalog) -> set[str]:
    """Async views whose result depends on the triggering event's payload alone,
    the ones the request cache serves: the only changing relation in the view's
    dependency closure is one event table, every reference to it is LATEST,
    and everything else the view reads is a base or plain table."""
    views = set()
    for view in catalog.by_kind(RelationKind.ASYNC_VIEW):
        changing = [
            name for name in dependency_closure(view.name, catalog)
            if catalog.relations[name].kind in GROWING_KINDS
        ]
        if len(changing) != 1 or catalog.relations[changing[0]].kind is not RelationKind.EVENT_TABLE:
            continue
        if all(ref.latest for ref in closure_table_refs(view.name, catalog) if ref.name == changing[0]):
            views.add(view.name)
    return views


@dataclass(frozen=True)
class RequestCacheRow:
    key: tuple  # (view, params)
    dataId: int
    viewName: str


class RequestCache:
    """Maps (async view, triggering parameters) to stored result row sets.

    The key is the tuple itself: params are validated payload values, and a
    REAL column stores 2000 and 2000.0 alike, so equal params give equal rows.
    Identical row sets share one dataId, so repeated results cost a pointer,
    not a copy; row sets are compared by a digest that keeps 1 and 1.0 apart,
    so a hit replays exactly the values that were stored.
    """

    def __init__(self) -> None:
        self.rows: dict[tuple, RequestCacheRow] = {}
        self.data: dict[int, list[tuple]] = {}
        self._by_digest: dict[str, int] = {}
        self._next_data_id = 1
        self.hits = 0
        self.misses = 0

    def lookup(self, view: str, params: tuple) -> list[tuple] | None:
        row = self.rows.get((view, params))
        if row is None:
            self.misses += 1
            return None
        self.hits += 1
        return self.data[row.dataId]

    def store(self, view: str, params: tuple, rows: list[tuple]) -> int:
        digest = hashlib.sha256(
            json.dumps([list(r) for r in rows], separators=(",", ":"), default=str).encode()
        ).hexdigest()
        data_id = self._by_digest.get(digest)
        if data_id is None:
            data_id = self._next_data_id
            self._next_data_id += 1
            self._by_digest[digest] = data_id
            self.data[data_id] = [tuple(r) for r in rows]
        key = (view, params)
        if key not in self.rows:
            self.rows[key] = RequestCacheRow(key=key, dataId=data_id, viewName=view)
        return data_id

    def stats(self) -> dict[str, int]:
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_entries": len(self.rows),
            "cache_row_sets": len(self.data),
        }
