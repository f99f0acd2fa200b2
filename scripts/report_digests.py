"""SHA-256 digests of ``harness.run`` reports over a fixed list of problems.

Each case is a seeded problem; its digest is taken over the report as JSON
(``Report.to_dict()`` without ``wall_time_s``, keys sorted), so two trees
whose reports agree bit for bit print the same digests.  The cases are the
parity problems of ``tests/test_parity.py`` (``PARITY_CASES``), general
n=384 and offdiag p=q=192 with kernel dimensions (3, 2) (the benchmark's
shapes, spec seeds ``LARGE_SEEDS``), ``gen_counterexample(3)`` forced and
refused, both families at sizes ``FAMILY_SIZES``, and the ``TOL_CASES`` parity
problems again at ``tol_scale`` ``TOL_SCALE`` (label suffix ``-tol<scale>``), whose
checks fail or pass by the tolerance each one reads.  The JSON written to
``--out`` (or standard output) maps each case to its digest and its report
flattened to dotted field names.  ``--compare`` reads such a file, written on
another tree, prints each case whose digest differs from it (a case on one side
only differs too) with the fields that differ, old and new value and, for
numbers, the new/old ratio, and exits 1 if any case differs.

    python3 scripts/report_digests.py --out digests.json
    python3 scripts/report_digests.py --compare digests.json

formrep is imported from the ``src`` directory of the checkout that holds
this script, so a copy of the script measures the tree it is copied into.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PARITY_CASES = [("general", n, seed) for n in (5, 24, 64) for seed in range(4)] + [
    ("offdiag", dims, seed) for dims in ((6, 5), (24, 20)) for seed in range(3)
]
LARGE_SEEDS = (0, 1, 2)
GENERAL_N = 384
OFFDIAG_DIMS = (192, 192)
OFFDIAG_KERNEL_DIMS = (3, 2)
COUNTEREXAMPLE_SIZE = 3
FAMILY_SIZES = [1, 2, 3, 4, 5, 6]
TOL_CASES = [("general", 24, 0), ("offdiag", (6, 5), 0)]
TOL_SCALE = 1e-12


def cases() -> dict:
    """Case label -> a function building its ``ProblemSpec``."""
    from formrep import ProblemSpec, gen_counterexample, gen_random

    def counterexample(force: bool):
        spec = gen_counterexample(COUNTEREXAMPLE_SIZE)
        spec.force = force
        return spec

    def scaled(kind, shape, seed):
        spec = gen_random(kind, shape, seed)
        spec.tolerances["tol_scale"] = TOL_SCALE
        return spec

    def parity_label(kind, shape, seed) -> str:
        dims = shape if kind == "general" else f"{shape[0]}x{shape[1]}"
        return f"parity-{kind}-{dims}-{seed}"

    out = {}
    for case in PARITY_CASES:
        out[parity_label(*case)] = lambda c=case: gen_random(*c)
    for seed in LARGE_SEEDS:
        out[f"general-{GENERAL_N}-{seed}"] = lambda r=seed: gen_random("general", GENERAL_N, r)
        out[f"offdiag-{OFFDIAG_DIMS[0]}x{OFFDIAG_DIMS[1]}-{seed}"] = lambda r=seed: gen_random(
            "offdiag", OFFDIAG_DIMS, r, kernel_dims=OFFDIAG_KERNEL_DIMS
        )
    for force in (True, False):
        label = "forced" if force else "refused"
        out[f"counterexample-{COUNTEREXAMPLE_SIZE}-{label}"] = lambda f=force: counterexample(f)
    for name in ("counterexample", "constant"):
        out[f"family-{name}"] = lambda n=name: ProblemSpec(
            kind="family", family_name=n, sizes=list(FAMILY_SIZES)
        )
    for case in TOL_CASES:
        out[f"{parity_label(*case)}-tol{TOL_SCALE:g}"] = lambda c=case: scaled(*c)
    return out


def flatten(node, prefix: str = "") -> dict:
    """Dotted field name -> leaf value of nested dicts and lists (list items by index)."""
    if not isinstance(node, (dict, list)):
        return {prefix: node}
    out = {}
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        out.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def entry(report) -> dict:
    """The report's digest and its flattened fields, without ``wall_time_s``."""
    body = report.to_dict()
    del body["wall_time_s"]
    text = json.dumps(body, sort_keys=True)
    return {"digest": hashlib.sha256(text.encode()).hexdigest(), "fields": flatten(body)}


def field_changes(new: dict, old: dict) -> list[str]:
    """One line per field whose value differs: old -> new, with new/old for numbers."""
    lines = []
    for name in sorted(new.keys() | old.keys()):
        was, now = old.get(name, "<absent>"), new.get(name, "<absent>")
        if was == now:
            continue
        line = f"  {name}: {was!r} -> {now!r}"
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (was, now))
        if numbers and was != 0:
            line += f" (x{now / was:.3g})"
        lines.append(line)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    parser.add_argument("--compare", metavar="FILE")
    args = parser.parse_args(argv)
    other = json.loads(Path(args.compare).read_text()) if args.compare else None

    sys.path.insert(0, str(SRC))
    from formrep import run

    entries = {label: entry(run(build())) for label, build in cases().items()}
    text = json.dumps(entries, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    elif other is None:
        print(text)
    if other is None:
        return 0
    labels = sorted(entries.keys() | other.keys())
    absent = {"digest": None, "fields": {}}
    differ = 0
    for label in labels:
        new, old = entries.get(label, absent), other.get(label, absent)
        if new["digest"] != old["digest"]:
            differ += 1
            print(f"differs: {label}")
            print("\n".join(field_changes(new["fields"], old["fields"])))
    print(f"{len(labels) - differ} of {len(labels)} identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
