"""Scalar UDFs registered on every embedded engine instance.

Boxes are (latMin, lonMin, latMax, lonMax) tuples using closed intervals,
matching the column order of the brush-style event tables.

Each built-in also has an SQL body, printed over the SQL of its arguments:
planned queries run it natively instead of calling back into Python for every
candidate row (see `native_sql`). The body gives the Python function's result
for NULL, integer, real and all-TEXT arguments. A comparison of TEXT with a
number follows SQLite's type order (and column affinity) where the Python
function raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping


@dataclass(frozen=True)
class UdfDef:
    name: str
    arity: int
    fn: Callable


def point_in_box(lat, lon, lat_min, lon_min, lat_max, lon_max) -> int:
    if None in (lat, lon, lat_min, lon_min, lat_max, lon_max):
        return 0
    return int(lat_min <= lat <= lat_max and lon_min <= lon <= lon_max)


def box_in_box(ilat_min, ilon_min, ilat_max, ilon_max, olat_min, olon_min, olat_max, olon_max) -> int:
    args = (ilat_min, ilon_min, ilat_max, ilon_max, olat_min, olon_min, olat_max, olon_max)
    if None in args:
        return 0
    return int(
        olat_min <= ilat_min
        and ilat_max <= olat_max
        and olon_min <= ilon_min
        and ilon_max <= olon_max
    )


def point_in_box_sql(lat, lon, lat_min, lon_min, lat_max, lon_max) -> str:
    return (
        f"COALESCE(({lat_min} <= {lat} AND {lat} <= {lat_max} "
        f"AND {lon_min} <= {lon} AND {lon} <= {lon_max}), 0)"
    )


def box_in_box_sql(ilat_min, ilon_min, ilat_max, ilon_max, olat_min, olon_min, olat_max, olon_max) -> str:
    return (
        f"COALESCE(({olat_min} <= {ilat_min} AND {ilat_max} <= {olat_max} "
        f"AND {olon_min} <= {ilon_min} AND {ilon_max} <= {olon_max}), 0)"
    )


BUILTIN_UDFS: dict[str, UdfDef] = {
    "point_in_box": UdfDef("point_in_box", 6, point_in_box),
    "is_within_box": UdfDef("is_within_box", 6, point_in_box),
    "box_in_box": UdfDef("box_in_box", 8, box_in_box),
}

_BUILTIN_SQL: dict[str, Callable[..., str]] = {
    "point_in_box": point_in_box_sql,
    "is_within_box": point_in_box_sql,
    "box_in_box": box_in_box_sql,
}


def native_sql(udfs: Mapping[str, UdfDef]) -> dict[str, Callable[..., str]]:
    """The SQL body of each built-in that a catalog with this UDF registry
    still runs as the built-in: the entry under its name is the built-in, and
    so is the function SQLite calls by that name (it folds case, and the
    engines register the registry in order, so a later entry wins)."""
    registered = {(udf.name.lower(), udf.arity): udf for udf in udfs.values()}
    return {
        name: body
        for name, body in _BUILTIN_SQL.items()
        if udfs.get(name) == BUILTIN_UDFS[name]
        and registered.get((name, BUILTIN_UDFS[name].arity)) == BUILTIN_UDFS[name]
    }

# the engine's aggregate functions (MAX and MIN are also scalar with two or
# more arguments)
AGGREGATE_FUNCTIONS = frozenset({"COUNT", "MAX", "MIN", "SUM", "AVG", "TOTAL"})

# SQL functions the dialect delegates to the embedded engine; anything not
# listed here and not in the UDF registry fails compilation.
ENGINE_FUNCTIONS = AGGREGATE_FUNCTIONS | {
    "ROUND", "COALESCE", "ABS", "RANDOM", "LENGTH", "LOWER", "UPPER", "IFNULL",
}
