from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest
from hypothesis import settings

from diel.ast_nodes import ColumnDef

# on CI, property tests draw the same examples on every run and keep no
# example database, so a failure there reproduces locally with CI=1
settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")

FLIGHT_COLUMNS = [
    ColumnDef("origin", "TEXT"),
    ColumnDef("destination", "TEXT"),
    ColumnDef("flight_year", "INT"),
    ColumnDef("delay", "INT"),
    ColumnDef("distance", "INT"),
]

TWEET_COLUMNS = [
    ColumnDef("tId", "TEXT"),
    ColumnDef("uId", "TEXT"),
    ColumnDef("content", "TEXT"),
    ColumnDef("lat", "REAL"),
    ColumnDef("lon", "REAL"),
]

BASE_SCHEMAS = {
    "flights": FLIGHT_COLUMNS,
    "tweets": TWEET_COLUMNS,
    "follows": [ColumnDef("uId", "TEXT"), ColumnDef("followerId", "TEXT")],
    "users": [ColumnDef("id", "TEXT"), ColumnDef("age", "INT")],
    "countries": [
        ColumnDef("country", "TEXT"),
        ColumnDef("centroidLat", "REAL"),
        ColumnDef("centroidLon", "REAL"),
    ],
}


@pytest.fixture
def base_schemas():
    return {name: list(cols) for name, cols in BASE_SCHEMAS.items()}
