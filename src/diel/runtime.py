"""The coordinator's event loop.

Each accepted event advances the logical clock by exactly one, is inserted
with its timestep and timestamp, ships deltas to the instances that need
them, and drives one atomic processing pass: materialized shared views
refresh first, state programs run (their inserts are staged), outputs whose
dependency closure changed re-evaluate (or keep their rows, when only an event
table they are monotone in changed and its new rows add none; or show none,
when they render only the answer to the event that triggered the pass), NOT EMPTY
constraints are checked, the frames are logged, callbacks fire, and finally
the staged history-table inserts are applied, even when a callback raises,
so they become visible from the next timestep onward.
Async results, including request-cache hits, come back as ordinary events of
their own.

No coordinator table changes from the refresh to the staged inserts, so a
pass reads once: every read goes through the engine (`SqlEngine.read`), which
serves a repeat of an unchanged read, such as an output a state program reads
whole, without running it again; and a NOT EMPTY probe re-runs only when its
view or closure changed (always, for a view that calls RANDOM()). What a pass
needs is fixed at setup, which also compiles every planned read: a read
SQLite rejects fails the build.

Events and results share one way in. `new_event` and `on_async_result` both
go through `_enter`: a call made during a pass (from a callback) is queued
and taken after that pass ends; any other call is taken at once, followed by
everything it queued (local results, cache hits, calls from callbacks), one
timestep each in arrival order, before it returns. Callers never drain.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from .ast_nodes import InsertStatement
from .compiler import Catalog, RelationKind, dependency_closure
from .engine import SqlEngine
from .errors import (
    EngineError,
    SchemaMismatchError,
    SetupError,
    TypeMismatchError,
    UnknownAsyncViewError,
    UnknownEventError,
    UnknownOutputError,
    UnknownRequestError,
)
from .federation import RESULT_ROWS, Federation, Message, SimInstance
from .optimizer import RequestCache, calls_random
from .planner import FederationPlan, materialized_on
from .printer import expr_sql, query_sql, quote_ident  # noqa: F401 (bench/tracing.py wraps query_sql here)


# the Python types a payload value of each column type may take (bool never)
_ACCEPTS = {"INT": int, "REAL": (int, float), "TEXT": str}


@dataclass(frozen=True)
class EventRecord:
    relation: str
    payload: dict
    timestep: int
    timestamp: int
    request_timestep: int | None = None


@dataclass(frozen=True)
class OutputFrame:
    output: str
    timestep: int
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "output": self.output,
                "timestep": self.timestep,
                "rows": [list(r) for r in self.rows],
            },
            separators=(",", ":"),
            default=str,
        )


class Runtime:
    def __init__(
        self,
        plan: FederationPlan,
        engine: SqlEngine,
        federation: Federation,
        bindings: dict[str, object] | None = None,
    ):
        self.plan = plan
        self.catalog: Catalog = plan.catalog
        self.engine = engine
        self.federation = federation
        self.bindings: dict[str, list] = {}

        self.clock = 0
        self.events: list[EventRecord] = []
        self.frames: list[OutputFrame] = []
        self.diagnostics: list[str] = []
        self.ignored_events = 0
        self.local_evals = 0
        self.cache = RequestCache()
        self._pending_params: dict[tuple[str, int], tuple] = {}
        self._ship_cursor: dict[tuple[str, str], int] = {}
        self._dirty_next: set[str] = set()
        self._last_rendered: dict[str, OutputFrame] = {}
        self._inbox: deque = deque()  # (step, args) taken once the current pass ends
        self._processing = False

        self._outputs = [r.name for r in self.catalog.by_kind(RelationKind.OUTPUT)]
        self._async_views = [r.name for r in self.catalog.by_kind(RelationKind.ASYNC_VIEW)]
        for output, callback in (bindings or {}).items():
            self.bind_output(output, callback)

        def watched(name: str) -> frozenset[str]:  # the relations whose change re-reads name
            return frozenset(dependency_closure(name, self.catalog) | {name})
        self._watch = {name: watched(name) for name in self._outputs}
        # relation -> the async views whose dependency closure holds it, in view order
        self._readers: dict[str, list[str]] = {}
        for view in self._async_views:
            for name in dependency_closure(view, self.catalog):
                self._readers.setdefault(name, []).append(view)
        # leader -> the relations the plan ships it as deltas, in plan order
        self._deltas: dict[str, list[str]] = {}
        for spec in plan.shipments:
            if not spec.snapshot:
                self._deltas.setdefault(spec.destination, []).append(spec.relation)
        # each output's columns, the compiler's: one tuple all of its frames share
        self._output_columns = {
            name: tuple(c.name for c in self.catalog.relations[name].columns) for name in self._outputs
        }
        # per-event statements, formatted once: NOT EMPTY probes (view, SQL,
        # the relations whose change re-runs it, or None when the view calls
        # RANDOM() and runs every timestep), the refresh (DELETE, INSERT) of
        # each materialized view that reads a growing relation, and the
        # backlog read of each relation shipped as deltas
        self._backlog_sql = {
            relation: f"SELECT _rowid_, * FROM {quote_ident(relation)} WHERE _rowid_ > ?"
            for relations in self._deltas.values()
            for relation in relations
        }
        self._probes = []
        self._empty: dict[str, bool] = {}  # each probe's last answer
        for c in self.catalog.constraints:
            rel = self.catalog.relations.get(c.view)
            if rel is None or rel.kind not in (RelationKind.VIEW, RelationKind.OUTPUT):
                continue  # the compiler reports these
            if plan.placement.get(c.view) == plan.coordinator:
                watch = None if calls_random(c.view, self.catalog) else watched(c.view)
                self._probes.append((c.view, f"SELECT 1 FROM {quote_ident(c.view)} LIMIT 1", watch))
            else:
                self.diagnostics.append(
                    f"NOT EMPTY on {c.view} is not checked: the view reads data "
                    "off the coordinator"
                )
        self._refresh_sql = {
            view: (f"DELETE FROM {quote_ident(view)}", f"INSERT INTO {quote_ident(view)} {plan.relation_sql[view]}")
            for view, reads in plan.materialized.items()
            if reads
        }
        # trigger -> the commands of the programs it runs, in program order:
        # (program, statements, (history table, the position in a command row
        # of each of the table's columns, None for one the INSERT leaves out)
        # or None)
        self._triggered: dict[str, list[tuple[str, list[str], tuple[str, list[int | None]] | None]]] = {}
        for program in self.catalog.programs.values():
            commands = []
            for command, sqls in zip(program.commands, plan.program_sql[program.name]):
                target = None
                if isinstance(command, InsertStatement):
                    names = [c.name for c in self.catalog.relations[command.table].columns]
                    given = command.columns or names
                    target = (command.table, [given.index(c) if c in given else None for c in names])
                commands.append((program.name, sqls, target))
            for trigger in dict.fromkeys(program.triggers):
                self._triggered.setdefault(trigger, []).extend(commands)
        self._result_widths = {
            name: len(self.catalog.relations[name].columns) for name in self._async_views
        }
        # event table -> its column names, and (column, type, accepted Python types)
        self._event_columns = {
            rel.name: (frozenset(c.name for c in rel.columns),
                       [(c.name, c.type, _ACCEPTS.get(c.type, ())) for c in rel.columns])
            for rel in self.catalog.by_kind(RelationKind.EVENT_TABLE)
        }
        # event table -> (column, SQL of its CHECK over the bound payload values)
        self._check_sql: dict[str, list[tuple[str, str]]] = {}
        for rel in self.catalog.by_kind(RelationKind.EVENT_TABLE):
            inner = ", ".join(f"? AS {quote_ident(c.name)}" for c in rel.columns)
            checks = [
                (c.name, f"SELECT ({expr_sql(c.check)}) FROM (SELECT {inner}) "
                 f"AS {quote_ident(rel.name)}")
                for c in rel.columns
                if c.check is not None
            ]
            if checks:
                self._check_sql[rel.name] = checks
        # every planned read is compiled now, each distinct statement once per
        # engine: a read SQLite rejects fails the build, naming its relation,
        # and never leaves a pass half done
        engines = {db_id: instance.engine for db_id, instance in federation.instances.items()}
        engines[plan.coordinator] = engine
        reads = {
            (engines[leader], plan.relation_sql[view]): (f"async view {view}", ())
            for view, leader in plan.leaders.items()
        }
        reads.update({
            (engine, sql): (f"program {p}", ()) for p, cmds in plan.program_sql.items() for c in cmds for sql in c
        })
        reads.update({(engine, sql): (f"output {o}", (0,)) for o, (_, sql) in plan.delta_sql.items()})
        reads.update({(engine, sql): (f"constraint {view}", ()) for view, sql, _ in self._probes})
        reads.update({(engine, sql): (f"output {o}", ()) for o, sql in plan.output_sql.items()})
        for (on, sql), (context, params) in reads.items():
            on.execute("EXPLAIN " + sql, params, context=context)

    # -- API ------------------------------------------------------------------

    def bind_output(self, output: str, callback) -> None:
        rel = self.catalog.relations.get(output)
        if rel is None or rel.kind is not RelationKind.OUTPUT:
            known = ", ".join(sorted(self._outputs)) or "(none)"
            raise UnknownOutputError(f"unknown output {output!r}; known outputs: {known}")
        self.bindings.setdefault(output, []).append(callback)

    def new_event(self, name: str, payload: dict, at_ms: int | None = None) -> int | None:
        """Append one event; return its timestep, or None when a CHECK rejects
        it or the call comes from inside a pass and is queued."""
        return self._enter(self._event_step, name, dict(payload), at_ms)

    def on_async_result(
        self, view: str, rows: list[tuple], request_timestep: int, at_ms: int | None = None
    ) -> int | None:
        """Append one async result; return its timestep, or None when queued."""
        return self._enter(self._result_step, view, rows, request_timestep, at_ms)

    def admit(self, msg: Message) -> None:
        """Admit a coordinator-bound transport message as the next event."""
        if msg.kind != RESULT_ROWS:
            raise EngineError("coordinator", f"unexpected message kind {msg.kind}")
        self.on_async_result(msg.view, msg.rows or [], msg.request_timestep, at_ms=msg.deliver_ms)

    def drain_inbox(self) -> None:
        """Take every queued step, one timestep each, in arrival order. The
        entry points already do this before they return."""
        while self._inbox and not self._processing:
            step, args = self._inbox.popleft()
            step(*args)

    def _enter(self, step, *args):
        """The one way in. Inside a pass the step is queued, so no pass is
        interrupted; outside one it is taken, and then everything it queued
        (local results, cache hits, calls made from callbacks)."""
        if self._processing:
            self._inbox.append((step, args))
            return None
        self.drain_inbox()  # steps left queued when an earlier one raised
        result = step(*args)
        self.drain_inbox()
        return result

    def _event_step(self, name: str, payload: dict, at_ms: int | None) -> int | None:
        at_ms = self._advance_clock_ms(at_ms)
        if name not in self._event_columns:
            raise UnknownEventError(f"{name!r} is not an event table")
        values = self._validate_payload(name, payload)
        if not self._checks_pass(name, values):
            self.ignored_events += 1
            return None
        return self._append(name, [values], at_ms, payload, params=values)

    def _result_step(
        self, view: str, rows: list[tuple], request_timestep: int, at_ms: int | None
    ) -> int:
        at_ms = self._advance_clock_ms(at_ms)
        rel = self.catalog.relations.get(view)
        if rel is None or rel.kind is not RelationKind.ASYNC_VIEW:
            raise UnknownAsyncViewError(f"{view!r} is not an async view")
        width = self._result_widths[view]
        for row in rows:
            if len(row) != width:
                raise SchemaMismatchError(
                    f"result row for {view!r} has {len(row)} values, expected {width}"
                )
        if request_timestep > self.clock:
            # an answer always takes a later timestep than its request; the
            # strict outputs' skip in _process_timestep relies on it
            raise UnknownRequestError(
                f"result for {view!r} answers request {request_timestep}, but the "
                f"clock is at {self.clock}"
            )
        pending = self._pending_params.pop((view, request_timestep), None)
        if pending is not None:
            self.cache.store(view, pending, rows)
        return self._append(view, rows, at_ms, {"rows": rows}, request_timestep=request_timestep)

    def _append(
        self,
        relation: str,
        rows: list[tuple],
        at_ms: int,
        payload: dict,
        request_timestep: int | None = None,
        params: tuple | None = None,
    ) -> int:
        """Take the next timestep: insert the rows with their system columns,
        log the event, send the async requests it triggers, run the pass."""
        self.clock += 1
        t = self.clock
        if request_timestep is None:
            system, context = (t, at_ms), f"event {relation}"
        else:
            system, context = (t, at_ms, request_timestep), f"result {relation}"
        self.engine.insert_rows(relation, [tuple(row) + system for row in rows], context=context)
        self.events.append(EventRecord(relation, payload, t, at_ms, request_timestep))
        self._dispatch_async(relation, params, t)
        self._process_timestep(t, relation)
        return t

    def event_log(self) -> list[EventRecord]:
        return list(self.events)

    def current_output(self, name: str) -> OutputFrame:
        rel = self.catalog.relations.get(name)
        if rel is None or rel.kind is not RelationKind.OUTPUT:
            known = ", ".join(sorted(self._outputs)) or "(none)"
            raise UnknownOutputError(f"unknown output {name!r}; known outputs: {known}")
        rows = tuple(self.engine.read(self.plan.output_sql[name], context=f"output {name}"))
        return OutputFrame(name, self.clock, self._output_columns[name], rows)

    def summary(self) -> dict:
        sent = self.federation.transport.sent_counts
        remote = sum(sent.get(k, 0) for k in ("ShipData", "EvalRequest", "ResultRows"))
        return {
            "events": len(self.events),
            "ignored_events": self.ignored_events,
            "frames": len(self.frames),
            "remote_messages": remote,
            "ship_messages": sent.get("ShipData", 0),
            "eval_requests": sent.get("EvalRequest", 0),
            "result_messages": sent.get("ResultRows", 0),
            "local_evals": self.local_evals,
            "diagnostics": len(self.diagnostics),
            **self.cache.stats(),
        }

    # -- validation -------------------------------------------------------------

    def _validate_payload(self, name: str, payload: dict) -> tuple:
        keys, columns = self._event_columns[name]
        if payload.keys() != keys:
            raise TypeMismatchError(
                f"event {name!r}: payload keys {sorted(payload)} do not match "
                f"columns {[column for column, _, _ in columns]}"
            )
        values = tuple(payload[column] for column, _, _ in columns)
        for (column, type_, accepts), value in zip(columns, values):
            if value is not None and (isinstance(value, bool) or not isinstance(value, accepts)):
                raise TypeMismatchError(
                    f"event {name!r}: column {column} expects {type_}, "
                    f"got {type(value).__name__}"
                )
        return values

    def _checks_pass(self, name: str, values: tuple) -> bool:
        for column, sql in self._check_sql.get(name, ()):
            try:
                cursor = self.engine.conn.execute(sql, values)
            except Exception as exc:  # engine-level failure counts as a violation
                self.diagnostics.append(f"check on {name}.{column} failed to run: {exc}")
                return False
            result = cursor.fetchone()[0]
            if result == 0:  # NULL passes, matching SQL CHECK semantics
                self.diagnostics.append(
                    f"event on {name!r} ignored: CHECK on column {column} failed"
                )
                return False
        return True

    # -- async dispatch ------------------------------------------------------------

    def _dispatch_async(self, relation: str, params: tuple | None, t: int) -> None:
        evals: list[tuple[str, str]] = []  # (view, leader)
        now = self.federation.transport.now
        for view in self._readers.get(relation, ()):
            leader = self.plan.placement[view]
            if view in self.plan.cached_views:
                cached = self.cache.lookup(view, params)
                if cached is not None:
                    self._inbox.append((self._result_step, (view, cached, t, now)))
                    continue
                self._pending_params[(view, t)] = params
            if leader == self.plan.coordinator:
                self.local_evals += 1
                rows = self.engine.read(self.plan.relation_sql[view], context=f"async view {view}")
                self._inbox.append((self._result_step, (view, rows, t, now)))
            else:
                evals.append((view, leader))
        for leader in sorted({leader for _, leader in evals}):
            self._ship_backlog(leader, t)
        for view, leader in evals:
            self.federation.request_eval(leader, view, t)

    def _advance_clock_ms(self, at_ms: int | None) -> int:
        """Move the transport's virtual clock to at_ms (the wall clock when
        None) and return it."""
        at_ms = int(time.time() * 1000) if at_ms is None else at_ms
        self.federation.transport.advance_to(at_ms)
        return at_ms

    def _ship_backlog(self, db_id: str, t: int) -> None:
        """Ship each relation the plan sends db_id as deltas: the rows not
        shipped yet. Growing tables are append-only, so a rowid cursor marks
        them, and also catches history rows stamped t that land after the
        request at t."""
        for relation in self._deltas.get(db_id, ()):
            cursor = self._ship_cursor.get((relation, db_id), 0)
            rows = self.engine.read(self._backlog_sql[relation], (cursor,), context=f"backlog of {relation}")
            if rows:
                self._ship_cursor[(relation, db_id)] = rows[-1][0]
                self.federation.ship(db_id, relation, [row[1:] for row in rows], t)

    # -- the processing pass ----------------------------------------------------------

    def _process_timestep(self, t: int, triggering: str) -> None:
        self._processing = True
        try:
            changed = {triggering} | self._dirty_next
            self._dirty_next = set()

            # (1) refresh the materialized views whose growing reads changed,
            # so that programs and outputs read them as of t
            for view, (delete, insert) in self._refresh_sql.items():
                if not self.plan.materialized[view].isdisjoint(changed):
                    self.engine.execute(delete, context=f"refresh {view}")
                    self.engine.execute(insert, context=f"refresh {view}")
                    changed.add(view)

            # (2) state programs; inserts are staged until the end of the pass,
            # each row full width: the table's columns, then its timestep
            staged: list[tuple[str, list[tuple]]] = []  # (history table, rows)
            for program, sqls, target in self._triggered.get(triggering, ()):
                rows = [row for sql in sqls for row in self.engine.read(sql, context=f"program {program}")]
                if target is not None:
                    table, positions = target
                    staged.append((table, [
                        tuple(None if i is None else row[i] for i in positions) + (t,) for row in rows
                    ]))

            # (3) re-evaluate outputs whose dependency closure changed, unless
            # the output is rewritten and waits on the triggering event table:
            # it shows only the answer to request t, which enters later as a
            # timestep of its own, so it has no rows; or only an event table E
            # changed and the output's query over E's new rows is empty: then
            # the last rendered rows still hold
            frames: list[OutputFrame] = []
            for name in self._outputs:
                watch = self._watch[name]
                if watch.isdisjoint(changed):
                    continue
                last = self._last_rendered.get(name)
                event, delta_sql = self.plan.delta_sql.get(name, (None, None))
                if triggering in self.plan.waits_on.get(name, ()):
                    frame = OutputFrame(name, t, self._output_columns[name], ())
                elif (
                    last is not None
                    and watch & changed == {event}
                    and not self.engine.read(delta_sql, (t,), context=f"output {name}")
                ):
                    frame = OutputFrame(name, t, last.columns, last.rows)
                else:
                    rows = tuple(self.engine.read(self.plan.output_sql[name], context=f"output {name}"))
                    frame = OutputFrame(name, t, self._output_columns[name], rows)
                frames.append(frame)

            # (4) NOT EMPTY debugging constraints, reported every timestep; a
            # probe re-runs only when its view's inputs changed
            for view, sql, watch in self._probes:
                if watch is None or view not in self._empty or not watch.isdisjoint(changed):
                    self._empty[view] = not self.engine.read(sql, context=f"constraint {view}")
                if self._empty[view]:
                    self.diagnostics.append(f"NOT EMPTY violated: {view} is empty at timestep {t}")

            # (5) log every frame, then fire callbacks; (6) the staged history
            # inserts land even when a callback raises, visible from t+1 onward
            for frame in frames:
                self.frames.append(frame)
                self._last_rendered[frame.output] = frame
            try:
                for frame in frames:
                    for callback in self.bindings.get(frame.output, []):
                        callback(frame)
            finally:
                for table, rows in staged:
                    if rows:
                        self.engine.insert_rows(table, rows, context=f"history insert {table}")
                        self._dirty_next.add(table)
        except BaseException:
            self._empty.clear()  # a pass cut short may leave a change no probe saw
            raise
        finally:
            self._processing = False


# --- setup ---------------------------------------------------------------------------


def setup(
    plan: FederationPlan,
    sources: dict[str, list[tuple] | Path],
    links=None,
    bindings: dict | None = None,
    seed: int | None = None,
) -> Runtime:
    """Execute per-instance programs, load base data, open shipping
    channels, and return the runtime at clock 0, its materialized views
    filled.

    Every decision made at plan time is read from `plan`: the per-instance
    programs, the UDF registry every engine registers (`catalog.udfs`), the
    materialized views (`materialized`) and the async views the request
    cache serves (`cached_views`). `sources` maps each base table to its
    rows as Python values or to the SQLite file it is copied from. Each base
    table is loaded from that source alone, into exactly the instances whose
    program creates it (`plan.stored`); the owner that starts as the page
    copy of a file (`file_loads`) creates none of the file's tables."""
    remote_ids = sorted(set(plan.programs) - {plan.coordinator})
    for db_id in remote_ids:
        if links is None or db_id not in links:
            raise SetupError(db_id, "no latency link configured for this instance")

    page_copies = {plan.placement[relation]: sources[relation] for relation in plan.page_copied}

    def start(db_id: str) -> SqlEngine:
        new_engine = SqlEngine(db_id, seed=seed, udfs=plan.catalog.udfs)
        try:
            if db_id in page_copies:
                new_engine.copy_file(page_copies[db_id], context="load")
            new_engine.execute_script(plan.programs[db_id])
        except EngineError as exc:
            raise SetupError(db_id, str(exc)) from exc
        return new_engine

    engine = start(plan.coordinator)
    instances: dict[str, SimInstance] = {}
    for db_id in remote_ids:
        instances[db_id] = SimInstance(db_id, start(db_id), plan.relation_sql)

    def engine_of(db_id: str) -> SqlEngine:
        return engine if db_id == plan.coordinator else instances[db_id].engine

    # given rows are inserted; a file's tables are copied row by row, each
    # file attached once per engine
    for db_id, tables in plan.stored.items():
        copies: dict[Path, list[str]] = {}
        for relation in tables:
            source = sources.get(relation)
            if isinstance(source, Path):
                copies.setdefault(source, []).append(relation)
            elif source is not None:
                engine_of(db_id).insert_rows(relation, source, context=f"load {relation}")
        for path, relations in copies.items():
            engine_of(db_id).copy_tables(
                path,
                {r: [c.name for c in plan.catalog.relations[r].columns] for r in relations},
                context="load",
            )

    # each materialized view is filled once its inputs are loaded, in
    # dependency order, on each instance that keeps it as a table
    for view in plan.materialized:
        for db_id in materialized_on(plan, view):
            fill = f"INSERT INTO {quote_ident(view)} {plan.relation_sql[view]}"
            engine_of(db_id).execute(fill, context=f"fill {view}")

    federation = Federation(plan.coordinator, instances, links or {})

    return Runtime(plan, engine, federation, bindings)
