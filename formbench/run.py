"""formrep benchmark: closed-loop workloads, correctness gate, per-layer trace.

Run from the repository root:

    python3 formbench/run.py --workload verify-general-n384 --seed 0 --seconds 45 --trace 0

With ``--trace 0`` the last line of standard output is one JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of one traced pass over the workload's problems, plus the tracing
overhead.  Every output is checked against ``golden.json``; the result
counts problems attempted and failed.  Provenance, per-problem latencies
and the spans of the traced run are written under ``formbench/out/``.

formrep is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import gate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")

#: ``setup_s`` is the median import time of a fresh interpreter plus the
#: median time to generate and write the inputs, over this many repetitions,
#: so one slow repetition (first BLAS call, cold page cache) does not decide it.
SETUP_REPS = 3

END_TO_END_UNITS = {
    "problems_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p95_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
TRACE_UNITS = {
    "trace.untraced_pass_s": "s",
    "trace.traced_pass_s": "s",
    "trace.overhead_s": "s",
}


def fresh_import_s() -> float:
    """Wall time of a fresh interpreter importing formrep's command-line layer."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); import formrep.cli"],
        cwd=ROOT,
        check=True,
        timeout=60,
    )
    return time.perf_counter() - start


def import_formrep():
    """Import formrep from ``src/``; return (package, seconds) or None."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    try:
        import formrep
        from formrep import cli, harness  # noqa: F401  (part of the measured import)
    except ImportError as exc:
        print(f"error: cannot import formrep from {SRC}: {exc}", file=sys.stderr)
        return None
    elapsed = time.perf_counter() - start
    if not os.path.abspath(formrep.__file__).startswith(SRC + os.sep):
        print(f"error: formrep was imported from {formrep.__file__}, not {SRC}", file=sys.stderr)
        return None
    return formrep, elapsed


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads(np) -> int | str:
    """Thread count OpenBLAS uses right now, asked of the library numpy loaded."""
    import ctypes

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{os.environ[var]} (from {var})"
    return "unknown"


def source_lines() -> int:
    """``wc -l src/formrep/*.py``: newline count of the library's sources."""
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "formrep", "*.py"))):
        with open(path, "rb") as handle:
            total += handle.read().count(b"\n")
    return total


def provenance(formrep, workload, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(ROOT),
        "formrep": formrep.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
        },
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(np),
        "workload": workload.name,
        "seed": seed,
        "spec_seeds": workload.spec_seeds(seed),
        "source_lines": source_lines(),
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


class Tally:
    """Problems attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ident: str, mismatches: list[str]) -> None:
        self.attempted += 1
        if mismatches:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{ident}: {'; '.join(mismatches[:5])}")


def execute(problem, golden: dict, tally: Tally, tracer=None) -> float:
    """Run one problem (only ``call`` is timed), gate its outputs, return its wall time."""
    args = problem.prepare()
    if tracer is not None:
        tracer.problem = problem.ident
    start = time.perf_counter()
    try:
        result = problem.call(args)
    except Exception as exc:  # a raising problem is a failed problem, not a crash
        tally.record(problem.ident, [f"raised {type(exc).__name__}: {exc}"])
        return time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.problem = None
    elapsed = time.perf_counter() - start
    mismatches = []
    for key, code, report in problem.outputs(result):
        mismatches.extend(f"{key}: {m}" for m in gate.compare(golden.get(key), code, report))
    tally.record(problem.ident, mismatches)
    return elapsed


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def closed_loop(problems, golden, tally: Tally, seconds: float) -> list[list[float]]:
    """Cycle through the problems, one at a time, until ``seconds`` have passed.

    Returns the latencies of each problem, in the order of ``problems``.
    """
    latencies: list[list[float]] = [[] for _ in problems]
    start = time.perf_counter()
    index = 0
    while True:
        latencies[index].append(execute(problems[index], golden, tally))
        index = (index + 1) % len(problems)
        if time.perf_counter() - start >= seconds:
            return latencies


def latency_metrics(latencies: list[list[float]]) -> dict[str, float]:
    """Throughput and percentiles over problems of each problem's median latency.

    Every problem counts once, however many passes the run completed, so a
    partial last pass does not tilt the mix; and a problem's median ignores
    the minority of its samples that a busy moment of the machine slowed.
    """
    typical = [statistics.median(samples) for samples in latencies if samples]
    return {
        "problems_per_s": len(typical) / sum(typical),
        "latency_p50_s": statistics.median(typical),
        "latency_p95_s": percentile(typical, 95),
    }


def traced_passes(problems, golden, tally: Tally, seconds: float, spans_path: str):
    """Alternate untraced and traced passes over every problem until ``seconds`` pass.

    Counts come from the first traced pass; times are medians over the
    traced passes, and the tracing overhead is the median of traced minus
    untraced wall time over the pairs.  Returns (metrics, pass walls,
    whether counts repeated).
    """
    from tracer import Tracer

    untraced, traced, runs = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(sum(execute(p, golden, tally) for p in problems))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(sum(execute(p, golden, tally, tracer) for p in problems))
        finally:
            tracer.uninstall()
        runs.append(tracer.metrics())
        if len(runs) == 1:
            tracer.write_spans(spans_path)
        del tracer
        if time.perf_counter() - start >= seconds:
            break
    first = runs[0]
    metrics = {}
    for name, value in first.items():
        if isinstance(value, int):
            metrics[name] = value
        else:
            metrics[name] = statistics.median(run[name] for run in runs)
    counts_repeat = all(
        run[name] == first[name] for run in runs for name in first if isinstance(first[name], int)
    )
    metrics["trace.untraced_pass_s"] = statistics.median(untraced)
    metrics["trace.traced_pass_s"] = statistics.median(traced)
    # Each traced pass runs right after an untraced one; differencing the
    # pairs cancels the slow drift of a shared machine.
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    return metrics, {"untraced": untraced, "traced": traced}, counts_repeat


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    imported = import_formrep()
    if imported is None:
        return 2
    formrep, import_s = imported
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    golden = gate.load(GOLDEN)
    workdir = os.path.join(OUT, f"{workload.name}-seed{args.seed}")
    os.makedirs(workdir, exist_ok=True)

    import_times, setup_times = [], []
    for _ in range(SETUP_REPS):
        import_times.append(fresh_import_s())
        start = time.perf_counter()
        problems = workload.setup(args.seed, workdir)
        setup_times.append(time.perf_counter() - start)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    prov = provenance(formrep, workload, args.seed)
    tally = Tally()
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": prov,
        "import_s": import_s,
        "fresh_import_reps_s": import_times,
        "setup_reps_s": setup_times,
    }

    if args.trace:
        from tracer import per_layer_metric_units

        values, walls, counts_repeat = traced_passes(
            problems, golden, tally, args.seconds, os.path.join(OUT, f"spans-{tag}.jsonl.gz")
        )
        units = {**per_layer_metric_units(), **TRACE_UNITS}
        record.update(pass_walls_s=walls, counts_repeat=counts_repeat)
        print(f"traced passes: {len(walls['traced'])}, counts repeat across passes: "
              f"{counts_repeat}, tracing overhead {values['trace.overhead_s']:.3f} s per pass")
    else:
        latencies = closed_loop(problems, golden, tally, args.seconds)
        values = {
            **latency_metrics(latencies),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        record.update(latencies_s={p.ident: v for p, v in zip(problems, latencies)})
        samples = [len(v) for v in latencies]
        print(f"latency samples: {sum(samples)} over {sum(1 for n in samples if n)} problems, "
              f"{min(samples)} to {max(samples)} per problem")

    failed_ratio = tally.failed / max(tally.attempted, 1)
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"failed_ratio: {failed_ratio:.6g} ({tally.failed}/{tally.attempted})")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record["result"] = result
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
