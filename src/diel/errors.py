"""Exception hierarchy shared by the parser, compiler, planner and runtime."""

from __future__ import annotations


class DielError(Exception):
    """Base class for every error raised by this package."""


# --- dialect parsing ---------------------------------------------------------


class ParseError(DielError):
    """Syntax error with source position and the tokens that would have been legal."""

    def __init__(self, message: str, line: int, col: int, expected: frozenset[str] = frozenset()):
        self.line = line
        self.col = col
        self.expected = expected
        detail = f"{message} at line {line}, column {col}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)


class UnknownKeywordError(ParseError):
    """A CREATE form (or other statement head) the dialect does not define."""


# --- compilation -------------------------------------------------------------


class CompileError(DielError):
    """Base class for errors raised while resolving statements into a catalog."""


class UnknownTemplateError(CompileError):
    pass


class MissingBindingError(CompileError):
    pass


class SubstitutionParseError(CompileError):
    """A template body failed to parse after its variables were substituted."""


class UnknownSourceRelationError(CompileError):
    """Schema copy names a relation that is not declared (or not declared yet)."""


class UnknownRelationError(CompileError):
    pass


class DuplicateRelationError(CompileError):
    pass


class UnknownColumnError(CompileError):
    pass


class AmbiguousColumnError(CompileError):
    pass


class UnknownUdfError(CompileError):
    pass


class LatestOnNonEventError(CompileError):
    """LATEST / LATEST_REQUEST applied to a relation lacking the needed column."""


class ReservedColumnNameError(CompileError):
    """A user column would shadow timestep / timestamp / request_timestep."""


class CyclicDependencyError(CompileError):
    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__("cyclic dependency: " + " -> ".join(cycle + cycle[:1]))


# --- planning ----------------------------------------------------------------


class PlanError(DielError):
    pass


class UnsupportedSpanError(PlanError):
    """A query spans instances whose row estimates are missing."""


# --- runtime -----------------------------------------------------------------


class RuntimeDielError(DielError):
    pass


class SetupError(RuntimeDielError):
    """Setup of a database instance failed; carries the engine's error text."""

    def __init__(self, db_id: str, detail: str):
        self.db_id = db_id
        super().__init__(f"setup failed on instance {db_id!r}: {detail}")


class UnknownEventError(RuntimeDielError):
    pass


class UnknownOutputError(RuntimeDielError):
    pass


class UnknownAsyncViewError(RuntimeDielError):
    pass


class TypeMismatchError(RuntimeDielError):
    pass


class SchemaMismatchError(RuntimeDielError):
    pass


class EngineError(RuntimeDielError):
    """An embedded engine rejected a query; names the offending relation/query."""

    def __init__(self, context: str, detail: str):
        self.context = context
        super().__init__(f"{context}: {detail}")


# --- simulated federation ----------------------------------------------------


class FederationError(DielError):
    pass


class ScriptExhaustedError(FederationError):
    """A scripted latency model ran out of entries."""


class DependencyTimeoutError(FederationError):
    """An instance's channel stalled: messages wait behind one that never arrived."""


class DeadlineExceededError(FederationError):
    pass


# --- harness -----------------------------------------------------------------


class ConfigError(DielError):
    pass


class TraceParseError(DielError):
    pass


class MissingExampleError(DielError):
    pass
