"""Scalar UDFs registered on every embedded engine instance.

Boxes are (latMin, lonMin, latMax, lonMax) tuples using closed intervals,
matching the column order of the brush-style event tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


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


BUILTIN_UDFS: dict[str, UdfDef] = {
    "point_in_box": UdfDef("point_in_box", 6, point_in_box),
    "is_within_box": UdfDef("is_within_box", 6, point_in_box),
    "box_in_box": UdfDef("box_in_box", 8, box_in_box),
}

# the engine's aggregate functions (MAX and MIN are also scalar with two or
# more arguments)
AGGREGATE_FUNCTIONS = frozenset({"COUNT", "MAX", "MIN", "SUM", "AVG", "TOTAL"})

# SQL functions the dialect delegates to the embedded engine; anything not
# listed here and not in the UDF registry fails compilation.
ENGINE_FUNCTIONS = AGGREGATE_FUNCTIONS | {
    "ROUND", "COALESCE", "ABS", "RANDOM", "LENGTH", "LOWER", "UPPER", "IFNULL",
}
