"""Wall time and peak memory of ``harness.run``, and problem-file I/O, across problem sizes.

Runs each size in its own Python process, so that its peak resident set
size is its own: a general problem ``gen_random("general", n, SEED)`` for
each ``n`` in ``GENERAL_SIZES`` and an offdiag problem
``gen_random("offdiag", (p, p), SEED)`` for each ``p`` in ``OFFDIAG_SIZES``.
Each process times ``REPEATS`` runs of ``harness.run`` on one generated
spec and keeps the best, reads its peak RSS, and then traces one more run
with ``tracemalloc``.  After that, so that the peak RSS stays that of the
runs, it times ``REPEATS`` ``save_spec`` calls writing the spec into a
temporary directory and ``REPEATS`` ``load_spec`` calls reading it back.  The
JSON written to ``--out`` (or standard output) holds, per size, the best and
all wall times in seconds, the peak RSS in MB, the traced peak of the extra
run in units of ``n^2`` doubles (``n`` the problem dimension), whether every
run passed, the best and all ``save_spec`` and ``load_spec`` times in
seconds, and the traced peaks of one more ``save_spec`` and one more
``load_spec`` in MB.  ``peak_rss_mb`` is read before any file I/O, so only
``load_traced_peak_mb`` sees what reading a problem file costs: the file's
text, the rows being converted and the loaded matrices.

    python3 scripts/size_sweep.py --out sweep.json

formrep is imported from the ``src`` directory of the checkout that holds
this script, so a copy of the script measures the tree it is copied into.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

GENERAL_SIZES = (512, 1024, 2048)
OFFDIAG_SIZES = (256, 512, 1024)
REPEATS = 2
SEED = 0


def measure(kind: str, size: int) -> dict:
    """Best-of-``REPEATS`` ``harness.run`` on one problem, then its file I/O, in this process."""
    sys.path.insert(0, str(SRC))
    from formrep import gen_random, load_spec, run, save_spec

    spec = gen_random(kind, size if kind == "general" else (size, size), SEED)
    walls, passed = [], True
    for _ in range(REPEATS):
        start = time.perf_counter()
        report = run(spec)
        walls.append(time.perf_counter() - start)
        passed = passed and report.passed
    # ru_maxrss is in kilobytes on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracemalloc.start()
    passed = passed and run(spec).passed
    traced = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    n = size if kind == "general" else 2 * size
    result = {
        "best_s": min(walls),
        "runs_s": walls,
        "peak_rss_mb": peak_mb,
        "traced_peak_n2": traced / (8.0 * n * n),
        "passed": passed,
    }
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "spec.json")
        calls = {"save": lambda: save_spec(spec, path), "load": lambda: load_spec(path)}
        for label, call in calls.items():
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            result[f"{label}_best_s"], result[f"{label}_runs_s"] = min(times), times
        for label, call in calls.items():
            tracemalloc.start()
            call()
            result[f"{label}_traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    parser.add_argument("--one", nargs=2, metavar=("KIND", "SIZE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.one:
        print(json.dumps(measure(args.one[0], int(args.one[1]))))
        return 0

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    results = {}
    for kind, sizes in (("general", GENERAL_SIZES), ("offdiag", OFFDIAG_SIZES)):
        for size in sizes:
            command = [sys.executable, __file__, "--one", kind, str(size)]
            child = subprocess.run(command, capture_output=True, text=True)
            if child.returncode:
                sys.exit(f"{kind} {size} failed: {child.stderr.strip().splitlines()[-1:]}")
            label = f"general-{size}" if kind == "general" else f"offdiag-{size}x{size}"
            results[label] = json.loads(child.stdout.splitlines()[-1])
            print(label, json.dumps(results[label]), file=sys.stderr)
    document = {
        "repeats": REPEATS,
        "seed": SEED,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
        },
        "results": results,
    }
    text = json.dumps(document, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
