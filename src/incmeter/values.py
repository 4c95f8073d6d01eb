"""Inconsistency values: non-negative integers or infinity."""

from __future__ import annotations

INF = float("inf")

Value = int | float

MEASURES = (
    "contension",
    "forgetting",
    "hitting-set",
    "max-distance",
    "sum-distance",
    "hit-distance",
)

# Measures whose value can be infinite (some formula individually contradictory).
INFINITY_MEASURES = frozenset({"hitting-set", "max-distance", "sum-distance"})


def format_value(value: Value) -> str:
    return "inf" if value == INF else str(int(value))
