"""Bundled example corpus: programs, datasets, traces, and golden output logs.

Each example directory holds a manifest.json naming its program file(s), the
database instances with their CSV-backed tables, a trace, and a seed; the
golden output log freezes the expected frames byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .engine import read_csv_table
from .errors import MissingExampleError
from .session import DbConfig, RunConfig, Session, TraceEntry, load_trace

CORPUS_ROOT = Path(__file__).parent / "corpus"
EXAMPLES_ROOT = CORPUS_ROOT / "examples"
GOLDEN_NAME = "golden.jsonl"


@dataclass
class Example:
    name: str
    directory: Path
    manifest: dict

    def _file(self, rel: str, what: str) -> Path:
        path = (self.directory / rel).resolve()
        if not path.exists():
            raise MissingExampleError(f"example {self.name}: missing {what} {rel}")
        return path

    def _data_file(self, rel: str) -> Path:
        path = (CORPUS_ROOT / rel).resolve()
        if not path.exists():
            raise MissingExampleError(f"example {self.name}: missing dataset {rel}")
        return path

    def diel_sources(self) -> list[str]:
        return [
            self._file(rel, "program").read_text(encoding="utf-8")
            for rel in self.manifest["diel"]
        ]

    def databases(self) -> list[DbConfig]:
        configs = []
        for db in self.manifest["databases"]:
            tables = {}
            for entry in db.get("tables", []):
                columns, rows = read_csv_table(self._data_file(entry["csv"]))
                tables[entry["table"]] = (columns, rows)
            configs.append(
                DbConfig(
                    name=db["name"],
                    kind=db["kind"],
                    latency=db.get("latency"),
                    tables=tables,
                )
            )
        return configs

    def trace(self) -> list[TraceEntry]:
        return load_trace(self._file(self.manifest["trace"], "trace"))

    def golden_path(self) -> Path:
        return self.directory / GOLDEN_NAME

    def golden_text(self) -> str:
        return self._file(GOLDEN_NAME, "golden log").read_text(encoding="utf-8")

    def config(self, cache: bool = True, materialize: bool = True) -> RunConfig:
        return RunConfig(
            diel_sources=self.diel_sources(),
            databases=self.databases(),
            seed=self.manifest.get("seed", 0),
            cache=cache,
            materialize=materialize,
        )


def load_examples() -> dict[str, Example]:
    if not EXAMPLES_ROOT.is_dir():
        raise MissingExampleError(f"corpus directory {EXAMPLES_ROOT} is missing")
    examples: dict[str, Example] = {}
    for directory in sorted(EXAMPLES_ROOT.iterdir()):
        manifest_path = directory / "manifest.json"
        if not directory.is_dir() or not manifest_path.exists():
            continue
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        examples[directory.name] = Example(directory.name, directory, manifest)
    if not examples:
        raise MissingExampleError(f"no examples found under {EXAMPLES_ROOT}")
    return examples


def run_example(example: Example, cache: bool = True, materialize: bool = True) -> Session:
    config = example.config(cache=cache, materialize=materialize)
    session = Session.build(config)
    session.run_replay(example.trace())
    return session


def regenerate_goldens(names: list[str] | None = None) -> list[str]:
    regenerated = []
    for name, example in load_examples().items():
        if names and name not in names:
            continue
        session = run_example(example)
        example.golden_path().write_text(session.output_log_text(), encoding="utf-8")
        regenerated.append(name)
    return regenerated
