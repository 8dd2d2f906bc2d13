"""The MAX-subquery form of LATEST, built as a new AST: the independent
oracle the dialect's lowering is checked against (C02, C03 and the corpus's
lowered-SQL tests). The program itself lowers LATEST only while printing
(`query_sql(q, lower=True)`)."""

from __future__ import annotations

import copy

from diel.ast_nodes import BinaryOp, ColumnRef, FuncCall, ScalarSubquery, SelectItem, SelectQuery, TableRef
from diel.compiler import Catalog, all_queries
from diel.errors import LatestOnNonEventError


def desugar_latest(query: SelectQuery, catalog: Catalog) -> SelectQuery:
    """Expand LATEST / LATEST_REQUEST into MAX-subquery predicates: each
    reference prints bare, and `binding.timestep = (SELECT MAX(timestep)
    FROM T)` (request_timestep for LATEST_REQUEST) is appended to the WHERE
    of the query that holds it."""
    out = copy.deepcopy(query)
    for sub in all_queries(out):  # taken before the new subqueries are added
        conjuncts = []
        for ref in sub.table_refs():
            if not (ref.latest or ref.latest_request):
                continue
            column = "timestep" if ref.latest else "request_timestep"
            if column not in {c.name for c in catalog.relation(ref.name).physical_columns}:
                raise LatestOnNonEventError(
                    f"{'LATEST' if ref.latest else 'LATEST_REQUEST'} on {ref.name!r}, "
                    f"which has no {column} column"
                )
            latest = SelectQuery(items=[SelectItem(FuncCall("MAX", [ColumnRef(column)]))],
                                 table=TableRef(name=ref.name))
            conjuncts.append(BinaryOp("=", ColumnRef(column=column, table=ref.binding),
                                      ScalarSubquery(latest)))
            ref.latest = ref.latest_request = False
        for conjunct in conjuncts:
            sub.where = conjunct if sub.where is None else BinaryOp("AND", sub.where, conjunct)
    return out
