"""DIEL: an event-sourced reactive SQL engine.

Interaction events append to logically-timestamped event tables; declarative
outputs re-evaluate when their dependencies change; queries spanning remote
database instances are rewritten into async views whose results return as
events, so concurrency policies are ordinary queries over event history.
"""

from .ast_nodes import ColumnDef, SelectQuery, Statement, TableRef
from .compiler import (
    Catalog,
    DependencyGraph,
    ProgramDef,
    RelationDef,
    RelationKind,
    ViewConstraint,
    build_dependency_graph,
    check_constraints_wellformed,
    compile_program,
    dump_ir,
)
from .engine import SqlEngine, import_csv
from .errors import DielError, ParseError
from .federation import (
    Federation,
    LatencySpec,
    Message,
    SimInstance,
    encode_message,
    parse_latency_spec,
    run_until_quiescent,
)
from .optimizer import RequestCache, materialize_shared_views
from .parser import parse_diel, parse_query
from .planner import (
    DbDescriptor,
    FederationPlan,
    ShipmentSpec,
    choose_leader,
    dump_plan,
    emit_per_db_sql,
    locate_relations,
    plan_federation,
    rewrite_remote_output,
)
from .printer import program_sql, query_sql, statement_sql
from .runtime import EventRecord, OutputFrame, Runtime, setup
from .session import DbConfig, RunConfig, Session, TraceEntry, load_trace, parse_trace

__version__ = "0.1.0"

__all__ = [
    "Catalog",
    "ColumnDef",
    "DbConfig",
    "DbDescriptor",
    "DependencyGraph",
    "DielError",
    "EventRecord",
    "Federation",
    "FederationPlan",
    "LatencySpec",
    "Message",
    "OutputFrame",
    "ParseError",
    "ProgramDef",
    "RelationDef",
    "RelationKind",
    "RequestCache",
    "RunConfig",
    "Runtime",
    "SelectQuery",
    "Session",
    "ShipmentSpec",
    "SimInstance",
    "SqlEngine",
    "Statement",
    "TableRef",
    "TraceEntry",
    "ViewConstraint",
    "build_dependency_graph",
    "check_constraints_wellformed",
    "choose_leader",
    "compile_program",
    "dump_ir",
    "dump_plan",
    "emit_per_db_sql",
    "encode_message",
    "import_csv",
    "load_trace",
    "locate_relations",
    "materialize_shared_views",
    "parse_diel",
    "parse_latency_spec",
    "parse_query",
    "parse_trace",
    "plan_federation",
    "program_sql",
    "query_sql",
    "rewrite_remote_output",
    "run_until_quiescent",
    "setup",
    "statement_sql",
]
