"""Correctness gate: compare each report with the golden reference.

The golden reference holds, per problem, the exit code, every check
verdict, the kernel dimensions and the well-conditioned values (gap radius,
operator and coupling norms, certificate eigenvalues, stability norms and
family norm sequences).  Values match when they agree to ``REL_TOL``
relative (``ABS_TOL`` absolute near zero).  Rounding-level residuals would
differ between equally correct implementations, so they are held only to
the bounds of their own checks, never to golden values.
"""

from __future__ import annotations

import json
import math
from typing import Any

REL_TOL = 1e-8
ABS_TOL = 1e-12

_SECTIONS = ("certificate", "representation", "kernel", "stability", "family")

#: Rounding-level residual -> (comparison, bound) at ``tol_scale`` 1.  The
#: bounds are the thresholds of the library's own checks.
RESIDUAL_BOUNDS = {
    "representation.first_rep_residual": ("<=", 1e-10),
    "representation.second_rep_residual": ("<=", 1e-10),
    "representation.gap_margin": (">=", -1e-8),
    "kernel.principal_angle": ("<=", 1e-8),
}
#: Residuals whose only bounds are the relative thresholds behind the
#: ``stability.conditions`` flags, which the golden reference does hold.
_FLAG_RESIDUALS = {
    "stability.involution_residual",
    "stability.inverse_pair_residual",
    "stability.sgn_invariance_residual",
}


def _plain(value: Any) -> Any:
    # numpy scalars (from in-memory reports) become Python scalars.
    return value.item() if hasattr(value, "item") else value


def _flatten(prefix: str, node: Any, out: dict[str, Any]) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _flatten(f"{prefix}.{key}", value, out)
    elif isinstance(node, (list, tuple)):
        out[prefix] = [_plain(v) for v in node]
    else:
        out[prefix] = _plain(node)


def flatten(exit_code: int, report: dict[str, Any]) -> dict[str, Any]:
    """Every gated quantity of a report, keyed by its dotted path."""
    flat: dict[str, Any] = {"exit_code": int(exit_code), "kind": report["kind"]}
    for name, ok in report["checks"].items():
        flat[f"checks.{name}"] = bool(ok)
    for section in _SECTIONS:
        if report.get(section) is not None:
            _flatten(section, report[section], flat)
    return flat


def golden_entry(exit_code: int, report: dict[str, Any]) -> dict[str, Any]:
    """The part of a report the golden reference stores."""
    return {
        key: value
        for key, value in flatten(exit_code, report).items()
        if key not in RESIDUAL_BOUNDS and key not in _FLAG_RESIDUALS
    }


def _close(expected: Any, actual: Any) -> bool:
    if isinstance(expected, bool) or expected is None or isinstance(expected, (int, str)):
        return type(actual) is type(expected) and actual == expected
    if isinstance(expected, float):
        if not isinstance(actual, (int, float)) or isinstance(actual, bool):
            return False
        if expected == actual:
            return True
        if math.isnan(expected) or math.isnan(actual):
            return math.isnan(expected) and math.isnan(actual)
        return abs(actual - expected) <= REL_TOL * max(abs(expected), abs(actual)) + ABS_TOL
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(_close(e, a) for e, a in zip(expected, actual))
        )
    return False


def compare(
    expected: dict[str, Any] | None, exit_code: int, report: dict[str, Any] | None
) -> list[str]:
    """Mismatches between one output and its golden entry; empty when it passes."""
    if expected is None:
        return ["no golden entry for this problem"]
    if report is None:
        return [f"no report written (exit code {exit_code})"]
    flat = flatten(exit_code, report)
    mismatches = []
    for key, (op, bound) in RESIDUAL_BOUNDS.items():
        if key in flat:
            value = flat.pop(key)
            ok = value <= bound if op == "<=" else value >= bound
            if not ok:
                mismatches.append(f"{key} = {value!r} breaks its bound {op} {bound!r}")
    for key in _FLAG_RESIDUALS:
        flat.pop(key, None)
    for key in sorted(set(expected) | set(flat)):
        if key not in flat:
            mismatches.append(f"{key} missing (expected {expected[key]!r})")
        elif key not in expected:
            mismatches.append(f"{key} = {flat[key]!r} not in the golden reference")
        elif not _close(expected[key], flat[key]):
            mismatches.append(f"{key} = {flat[key]!r}, expected {expected[key]!r}")
    return mismatches


def load(path: str) -> dict[str, dict[str, Any]]:
    """Golden entries by problem key.

    The file stores each entry as ``[schema index, value, ...]`` against a
    shared list of key schemas, which keeps it small.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    schemas = document["schemas"]
    return {
        key: dict(zip(schemas[row[0]], row[1:])) for key, row in document["problems"].items()
    }
