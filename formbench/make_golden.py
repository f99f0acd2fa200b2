"""Regenerate ``golden.json``: the expected outputs of every pool problem.

Run from the repository root at the commit whose outputs are the reference:

    python3 formbench/make_golden.py

It runs every problem of every workload's seed pool once, through the same
calls the benchmark times, and stores the gated part of each report.  Pass
``--out PATH`` to write elsewhere, for example to compare two BLAS thread
counts before trusting ``gate.REL_TOL``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import run


def _rounded(value):
    # 12 significant digits are ample for the gate's relative tolerance.
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=run.GOLDEN)
    args = parser.parse_args(argv)

    imported = run.import_formrep()
    if imported is None:
        return 2
    formrep, _ = imported
    import gate
    import workloads as wl

    ensemble = wl.ensemble_pool()
    with tempfile.TemporaryDirectory(dir=run.HERE) as workdir:
        pool = range(wl.VERIFY_POOL)
        problems = (
            wl.verify_problems("general", list(pool), workdir)
            + wl.verify_problems("offdiag", list(pool), workdir)
            + wl.ensemble_problems(ensemble["general"], ensemble["offdiag"])
            + wl.WORKLOADS["family-sweep"].setup(0, workdir)
        )
        golden = {}
        for number, problem in enumerate(problems, 1):
            result = problem.call(problem.prepare())
            for key, code, report in problem.outputs(result):
                if report is None:
                    raise SystemExit(f"{key}: no report written (exit code {code})")
                golden[key] = gate.golden_entry(code, report)
            if number % 50 == 0:
                print(f"{number}/{len(problems)} problems", file=sys.stderr)

    import numpy as np

    schemas: list[list[str]] = []
    rows = {}
    for key, entry in sorted(golden.items()):
        names = sorted(entry)
        if names not in schemas:
            schemas.append(names)
        rows[key] = [schemas.index(names)] + [_rounded(entry[name]) for name in names]
    document = {
        "generated_at": {
            "commit": run.git_commit(run.ROOT),
            "formrep": formrep.__version__,
            "numpy": np.__version__,
            "blas_threads": run.blas_threads(np),
        },
        "rel_tol": gate.REL_TOL,
        "abs_tol": gate.ABS_TOL,
        "schemas": schemas,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        # One problem per line keeps the file diffable.
        head = json.dumps(document, indent=1, sort_keys=True)
        handle.write(head[:-2] + ',\n "problems": {\n')
        handle.write(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in rows.items()))
        handle.write("\n }\n}\n")
    print(f"wrote {len(golden)} entries to {os.path.relpath(args.out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
