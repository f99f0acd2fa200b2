"""Outside-in tracer for the traced run.

It wraps every public function of the formrep layer modules wherever the
function is bound (``from .x import y`` copies the binding into each
importing module, so each copy is replaced), plus the ``numpy.linalg``
entry points that do the O(n^3) work.  Nothing inside formrep changes.
Only public functions are wrapped: wrapping private helpers such as the
per-entry formatter costs more than the work it would measure.

Spans stay in memory as ``(name, start, end, parent, problem)`` and are
written out when the benchmark ends.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import time
from collections import Counter
from typing import Any, Callable

import numpy as np

LAYERS = ("spectral", "involution", "general", "offdiag", "stability", "harness", "cli")

#: Functions whose per-layer metrics the benchmark reports (all public
#: functions are traced; these are the ones named in BENCHMARK.json).
REPORTED = {
    "spectral": (
        "symmetrize", "eig_sym", "apply_fn", "nullspace", "op_norm",
        "min_abs_eig", "subspace_intersection", "principal_angle",
    ),
    "involution": ("make_involution", "commutes", "block_decompose"),
    "general": (
        "check_gap_hypothesis", "shifted_coefficient", "associate_general",
        "first_rep_residual", "second_rep_residual", "gap_certificate_check",
        "default_probes",
    ),
    "offdiag": ("offdiag_problem", "assemble_offdiag", "direct_coefficient", "kernel_via_theorem"),
    "stability": ("stability_suite", "family_diagnostics"),
    "harness": ("load_spec", "spec_to_dict", "spec_from_dict", "run"),
    "cli": ("main",),
}
REPORTED_GENERATORS = ("involution.enumerate_diagonal_involutions",)
KERNELS = ("eigh", "eigvalsh", "norm2", "solve", "qr", "eigvals")


def per_layer_metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units: dict[str, str] = {}
    for layer, functions in REPORTED.items():
        for function in functions:
            name = f"{layer}.{function}"
            units[f"{name}.calls"] = "count"
            units[f"{name}.total_s"] = "s"
            units[f"{name}.self_s"] = "s"
    for name in REPORTED_GENERATORS:
        units[f"{name}.yielded"] = "count"
    for kernel in KERNELS:
        units[f"kernel.{kernel}.calls"] = "count"
        units[f"kernel.{kernel}.s"] = "s"
        units[f"kernel.{kernel}.n3"] = "count"
    return units


def cubic_work(arr: Any) -> int:
    """Sigma m*k*min(m, k) over the matrices of ``arr``: n^3 for an n x n matrix."""
    shape = np.shape(arr)
    if len(shape) < 2:
        return 0
    rows, cols = int(shape[-2]), int(shape[-1])
    return math.prod(shape[:-2]) * rows * cols * min(rows, cols)


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket a traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str | None] | None] = []
        self.problem: str | None = None
        self.yielded: Counter[str] = Counter()
        self.work: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, fn: Callable, work: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                self.work[name] += work(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, self.problem)

        return traced

    def _counted_generator(self, name: str, fn: Callable) -> Callable:
        yielded = self.yielded

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                yielded[name] += 1
                yield item

        return counted

    def _norm(self, original: Callable) -> Callable:
        # Only the SVD-based matrix 2-norm is a kernel; other norms pass through.
        traced = self._span("kernel.norm2", original, lambda x, *a, **k: cubic_work(x))

        @functools.wraps(original)
        def norm(x, ord=None, axis=None, keepdims=False):
            if ord == 2 and axis is None and np.ndim(x) == 2:
                return traced(x, ord, axis, keepdims)
            return original(x, ord, axis, keepdims)

        return norm

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- install / uninstall --------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("formrep")
        modules = [package] + [importlib.import_module(f"formrep.{layer}") for layer in LAYERS]
        wrapped: dict[Callable, Callable] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                package_name, _, home = obj.__module__.rpartition(".")
                if package_name != "formrep" or home not in LAYERS or obj.__name__.startswith("_"):
                    continue
                if obj not in wrapped:
                    name = f"{home}.{obj.__name__}"
                    if inspect.isgeneratorfunction(obj):
                        wrapped[obj] = self._counted_generator(name, obj)
                    else:
                        wrapped[obj] = self._span(name, obj)
                self._patch(module, attr, wrapped[obj])
        linalg = np.linalg
        for kernel in ("eigh", "eigvalsh", "solve", "qr", "eigvals"):
            original = getattr(linalg, kernel)
            self._patch(
                linalg,
                kernel,
                self._span(f"kernel.{kernel}", original, lambda a, *rest, **kw: cubic_work(a)),
            )
        self._patch(linalg, "norm", self._norm(linalg.norm))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s``, ``self_s``; kernels also ``n3``."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {}
        for span, covered in zip(spans, child):
            if span is None:
                continue
            name, start, end, _, _ = span
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        for name, count in self.yielded.items():
            out.setdefault(name, {})["yielded"] = count
        for name, n3 in self.work.items():
            out[name]["n3"] = n3
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of one traced pass; absent work reads 0."""
        summary = self.summary()
        values: dict[str, float] = {}
        for metric, unit in per_layer_metric_units().items():
            name, _, field = metric.rpartition(".")
            if name.startswith("kernel.") and field == "s":
                field = "total_s"
            values[metric] = summary.get(name, {}).get(field, 0 if unit == "count" else 0.0)
        return values

    def write_spans(self, path: str) -> None:
        """Gzipped JSON lines ``[name, start, end, parent, problem]``.

        Times are seconds from the first span, to the microsecond; ``parent``
        is the line index of the enclosing span, -1 at the top.
        """
        spans = [span for span in self.spans if span is not None]
        origin = min((span[1] for span in spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for name, start, end, parent, problem in spans:
                handle.write(
                    f'["{name}", {start - origin:.6f}, {end - origin:.6f}, {parent}, '
                    f"{json.dumps(problem)}]\n"
                )
