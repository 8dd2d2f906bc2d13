"""Seeded workloads for the trace-replay benchmark.

A workload is a DIEL program, the database instances it runs on (written as
SQLite files so that `Session.build` loads them the way `diel run --db` does),
and a trace. Everything is generated from the seed: the same seed gives the
same files and the same trace. Only the seed-driven choices vary between
seeds; sizes and event mixes are fixed so that different seeds cost about the
same.

`scale` shrinks traces and tables for the benchmark's own tests.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

from diel import ColumnDef, DbConfig, RunConfig, TraceEntry, import_csv
from diel.corpus import load_examples

COORDINATOR = "main"

AIRPORTS = ["ATL", "BOS", "DEN", "DFW", "JFK", "LAX", "MIA", "ORD", "SEA", "SFO"]
LOCAL_YEARS = range(1990, 2020)
SORT_COLUMNS = ["origin", "destination", "delay"]


@dataclass
class Instance:
    name: str
    kind: str  # quick | remote
    latency: str | None
    tables: dict[str, tuple[list[ColumnDef], list[tuple]]]


@dataclass
class Workload:
    name: str
    program: str
    instances: list[Instance]
    trace: list[TraceEntry]
    seed: int
    # "placement": final frames must equal the all-local run of the same trace;
    # "optimizer": the log must equal the run with cache and materialization off
    reference: str

    def write_sources(self, directory: Path) -> dict[str, Path]:
        """Write one SQLite file per instance that holds tables; returns name -> path."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for inst in self.instances:
            if not inst.tables:
                continue
            db_path = directory / f"{self.name}-{self.seed}-{inst.name}.db"
            if db_path.exists():
                db_path.unlink()
            for table, (columns, rows) in inst.tables.items():
                csv_path = directory / f"{self.name}-{self.seed}-{table}.csv"
                header = ",".join(f"{c.name}:{c.type}" for c in columns)
                lines = [header] + [",".join(str(v) for v in row) for row in rows]
                csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                import_csv(csv_path, table, db_path)
                csv_path.unlink()
            paths[inst.name] = db_path
        return paths

    def config(self, sources: dict[str, Path], cache: bool = True, materialize: bool = True) -> RunConfig:
        """The planned configuration: tables load from the SQLite files at build time."""
        databases = [
            DbConfig(
                name=inst.name,
                kind=inst.kind,
                path=str(sources[inst.name]) if inst.name in sources else None,
                latency=inst.latency,
            )
            for inst in self.instances
        ]
        return RunConfig([self.program], databases, seed=self.seed, cache=cache, materialize=materialize)

    def local_config(self) -> RunConfig:
        """Every table on the coordinator, preloaded: the placement reference."""
        coordinator = DbConfig(name=COORDINATOR, kind="quick")
        for inst in self.instances:
            coordinator.tables.update(inst.tables)
        return RunConfig([self.program], [coordinator], seed=self.seed)


def _scaled(n: int, scale: float) -> int:
    return max(8, int(n * scale))


def _corpus_source(name: str) -> str:
    return "\n".join(load_examples()[name].diel_sources())


# --- data --------------------------------------------------------------------------------

def _schema(*cells: str) -> list[ColumnDef]:
    return [ColumnDef(*cell.split(":")) for cell in cells]


FLIGHTS = _schema("origin:TEXT", "destination:TEXT", "flight_year:INT", "delay:INT", "distance:INT")


def _flights(rng: random.Random, n: int, years: range) -> list[tuple]:
    rows = []
    for _ in range(n):
        origin, destination = rng.sample(AIRPORTS, 2)
        delay = max(-30, min(180, int(rng.gauss(15, 30))))
        rows.append((origin, destination, rng.choice(years), delay, rng.randint(100, 3000)))
    return rows


def _box(lat: float, lon: float, half_lat: float, half_lon: float) -> dict:
    return {
        "latMin": round(lat - half_lat, 6),
        "lonMin": round(lon - half_lon, 6),
        "latMax": round(lat + half_lat, 6),
        "lonMax": round(lon + half_lon, 6),
    }


# --- local_dashboard ------------------------------------------------------------------------

LOCAL_PROGRAMS = ["slider", "connect_templates", "undo", "realtime_tweets", "reconfigure_order"]

# share of each interaction kind in the trace; the counts are fixed, the order is seeded
LOCAL_MIX = {
    "tweets": 0.40,
    "slideItx": 0.12,
    "zoomItx": 0.08,
    "originSelItx": 0.08,
    "clickItx": 0.10,
    "undoItx": 0.06,
    "brushItx": 0.08,
    "columnSelectionItx": 0.08,
}


def local_dashboard(seed: int, scale: float = 1.0) -> Workload:
    rng = random.Random(f"local_dashboard/{seed}")
    program = "\n".join(_corpus_source(name) for name in LOCAL_PROGRAMS)
    program += "\nfilteredFlights NOT EMPTY;\n"
    flights = _flights(rng, _scaled(3000, scale), LOCAL_YEARS)

    n_events = _scaled(1000, scale)
    kinds = [kind for kind, share in LOCAL_MIX.items() for _ in range(round(share * n_events))]
    rng.shuffle(kinds)
    # every control is set once first, so each output has something to show
    kinds = ["slideItx", "zoomItx", "originSelItx", "clickItx", "brushItx", "columnSelectionItx"] + kinds

    trace, at_ms, tweet_id, click_id = [], 0, 0, 0
    for kind in kinds:
        at_ms += rng.randint(10, 60)
        if kind == "tweets":
            tweet_id += 1
            payload = {
                "tId": f"t{tweet_id}",
                "content": f"tweet {tweet_id}",
                "lat": round(rng.uniform(-90, 90), 6),
                "lon": round(rng.uniform(-180, 180), 6),
            }
        elif kind == "slideItx":
            payload = {"flight_year": rng.choice(LOCAL_YEARS)}
        elif kind == "zoomItx":
            lo = rng.randint(-30, 60)
            payload = {"minD": lo, "maxD": lo + rng.randint(20, 120)}
        elif kind == "originSelItx":
            payload = {"origin": rng.choice(AIRPORTS)}
        elif kind == "clickItx":
            click_id += 1
            payload = {"id": click_id}
        elif kind == "undoItx":
            payload = {}
        elif kind == "brushItx":
            payload = _box(rng.uniform(-60, 60), rng.uniform(-120, 120), 30, 60)
        else:
            # about one pick in eight names a column the CHECK rejects
            payload = {"col": rng.choice(SORT_COLUMNS * 7 + ["bogus", "arrival", "carrier"])}
        trace.append(TraceEntry(at_ms, kind, payload))

    return Workload(
        name="local_dashboard",
        program=program,
        instances=[Instance(COORDINATOR, "quick", None, {"flights": (FLIGHTS, flights)})],
        trace=trace,
        seed=seed,
        reference="optimizer",
    )


# --- remote_brush ----------------------------------------------------------------------------


def _without_brush_table(source: str) -> str:
    stripped, count = re.subn(r"CREATE EVENT TABLE brushItx\s*\([^)]*\);", "", source)
    if count != 1:
        raise ValueError("connect example no longer declares brushItx exactly once")
    return stripped


def remote_brush(seed: int, scale: float = 1.0) -> Workload:
    rng = random.Random(f"remote_brush/{seed}")
    # brush_select and connect share brushItx; connect's copy of it is dropped
    program = _corpus_source("brush_select") + "\n" + _without_brush_table(_corpus_source("connect"))

    n_users = _scaled(60, scale)
    users = [(f"u{i}", rng.randint(16, 80)) for i in range(n_users)]
    follows = sorted(
        {(f"u{rng.randrange(n_users)}", f"u{rng.randrange(n_users)}") for _ in range(_scaled(250, scale))}
    )
    # tweets outnumber users and follows together, so r1 leads and r2 ships
    # snapshots; one tweet per cell of a jittered grid keeps the density even,
    # so a brush of fixed size selects about the same rows for every seed
    lat_cells, lon_cells = max(2, round(20 * scale**0.5)), max(2, round(30 * scale**0.5))
    tweets = []
    for i in range(lat_cells * lon_cells):
        lat_cell, lon_cell = divmod(i, lon_cells)
        lat = -90 + (lat_cell + rng.random()) * 180 / lat_cells
        lon = -180 + (lon_cell + rng.random()) * 360 / lon_cells
        tweets.append((f"t{i}", f"u{rng.randrange(n_users)}", f"tweet {i}", round(lat, 6), round(lon, 6)))

    # one continuous drag at 60 Hz: the box centre wanders
    trace, lat, lon = [], 0.0, 0.0
    for i in range(_scaled(150, scale)):
        lat = max(-60.0, min(60.0, lat + rng.uniform(-3, 3)))
        lon = max(-120.0, min(120.0, lon + rng.uniform(-6, 6)))
        trace.append(TraceEntry(i * 1000 // 60, "brushItx", _box(lat, lon, 15, 30)))

    return Workload(
        name="remote_brush",
        program=program,
        instances=[
            Instance(COORDINATOR, "quick", None, {}),
            Instance(
                "r1",
                "remote",
                "fixed(5)",
                {"tweets": (_schema("tId:TEXT", "uId:TEXT", "content:TEXT", "lat:REAL", "lon:REAL"), tweets)},
            ),
            Instance(
                "r2",
                "remote",
                "fixed(20)",
                {
                    "users": (_schema("id:TEXT", "age:INT"), users),
                    "follows": (_schema("uId:TEXT", "followerId:TEXT"), follows),
                },
            ),
        ],
        trace=trace,
        seed=seed,
        reference="placement",
    )


# --- remote_reorder_cached ----------------------------------------------------------------------

# the default strict policy over the same query as latest_request's async view
STRICT_TWIN = """
CREATE OUTPUT distStrict AS
  SELECT origin, COUNT()
  FROM flights JOIN LATEST slideItx ON flight_year
  GROUP BY origin;
"""

REORDER_LATENCY = "uniform(10,150)"


def remote_reorder_cached(seed: int, scale: float = 1.0) -> Workload:
    rng = random.Random(f"remote_reorder_cached/{seed}")
    program = _corpus_source("latest_request") + STRICT_TWIN

    # each burst drags forward over fresh positions (misses), pauses until the
    # responses are in, then drags back over them (hits)
    n_events = _scaled(400, scale)
    trace, at_ms, position = [], 0, 1000
    while len(trace) < n_events:
        steps = rng.randint(4, 10)
        start = position
        for _ in range(steps):
            position += 1
            at_ms += 16
            trace.append(TraceEntry(at_ms, "slideItx", {"flight_year": position}))
        at_ms += rng.randint(400, 700)
        for back in range(position - 1, start, -1):
            at_ms += 16
            trace.append(TraceEntry(at_ms, "slideItx", {"flight_year": back}))
        at_ms += rng.randint(400, 700)
        position += rng.randint(3, 8)
    trace = trace[:n_events]
    years = range(1000, position + 1)
    flights = _flights(rng, _scaled(4000, scale), years)

    return Workload(
        name="remote_reorder_cached",
        program=program,
        instances=[
            Instance(COORDINATOR, "quick", None, {}),
            Instance("r1", "remote", REORDER_LATENCY, {"flights": (FLIGHTS, flights)}),
        ],
        trace=trace,
        seed=seed,
        reference="placement",
    )


WORKLOADS = {
    "local_dashboard": local_dashboard,
    "remote_brush": remote_brush,
    "remote_reorder_cached": remote_reorder_cached,
}
