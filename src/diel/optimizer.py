"""Performance layer: shared-view materialization and the async request cache.

Both are semantically transparent: materialization trades view re-evaluation
for refresh-on-change, and the cache replays stored result rows as ordinary
async result events, so concurrency policies apply to hits and misses alike.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .compiler import Catalog, DependencyGraph, RelationKind


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

    `evaluable` restricts candidates to views the coordinator can refresh
    locally (views spanning remote base data stay virtual at their leader).
    """
    consumers: dict[str, int] = {}
    for name, reads in graph.reads.items():
        for dep in set(reads):
            consumers[dep] = consumers.get(dep, 0) + 1
    for program in catalog.programs.values():
        seen: set[str] = set()
        for command in program.commands:
            query = command.select if hasattr(command, "select") else command
            if query is not None:
                from .compiler import referenced_relations

                seen |= referenced_relations(query)
        for dep in seen:
            consumers[dep] = consumers.get(dep, 0) + 1

    from .compiler import dependency_closure

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
