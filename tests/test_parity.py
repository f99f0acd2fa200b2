"""Report values match the reference recorded before factorizations were shared.

``parity_fixture.json`` holds the gated values of ``harness.run`` on a fixed
set of seeded problems, recorded at commit aab33fa, where every helper still
factored its matrices afresh: check verdicts, certificate eigenvalues, gap
radius, operator and coupling norms, stability norms and flags, and kernel
dimensions.  They must agree to ``REL_TOL`` relative.  Rounding-level
residuals differ between equally correct evaluation orders, so, as in
``formbench/gate.py``, they are held only to the bounds of their own checks.

Regenerate the fixture with ``PYTHONPATH=src python tests/test_parity.py``,
and only on a commit whose values are the reference.
"""

import json
import math
from pathlib import Path

import pytest

from formrep import gen_random, run

FIXTURE = Path(__file__).with_name("parity_fixture.json")
REL_TOL = 1e-10

CASES = [f"general-{n}-{seed}" for n in (5, 24, 64) for seed in range(4)] + [
    f"offdiag-{p}x{q}-{seed}" for p, q in ((6, 5), (24, 20)) for seed in range(3)
]

#: Residual -> (comparison, bound) of the check that holds it.
RESIDUAL_BOUNDS = {
    "representation.first_rep_residual": ("<=", 1e-10),
    "representation.second_rep_residual": ("<=", 1e-10),
    "representation.gap_margin": (">=", -1e-8),
    "kernel.principal_angle": ("<=", 1e-8),
}
#: Residuals bounded only through the ``stability.conditions`` flags.
FLAG_RESIDUALS = {
    "stability.involution_residual",
    "stability.inverse_pair_residual",
    "stability.sgn_invariance_residual",
}


def build(case):
    kind, shape, seed = case.split("-")
    if kind == "general":
        return gen_random("general", int(shape), int(seed))
    p, q = shape.split("x")
    return gen_random("offdiag", (int(p), int(q)), int(seed))


def flatten(report):
    flat = {"exit_code": report.exit_code}
    flat.update({f"checks.{name}": bool(ok) for name, ok in report.checks.items()})
    for section in ("certificate", "representation", "kernel", "stability"):
        for key, value in (getattr(report, section) or {}).items():
            if isinstance(value, dict):
                flat.update({f"{section}.{key}.{k}": bool(v) for k, v in value.items()})
            else:
                flat[f"{section}.{key}"] = value
    return flat


def gated(flat):
    return {
        key: value
        for key, value in flat.items()
        if key not in RESIDUAL_BOUNDS and key not in FLAG_RESIDUALS
    }


@pytest.fixture(scope="module")
def reference():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_report_matches_reference(case, reference):
    flat = flatten(run(build(case)))
    for key, (op, bound) in RESIDUAL_BOUNDS.items():
        if key in flat:
            value = flat[key]
            assert value <= bound if op == "<=" else value >= bound, (key, value)
    actual = gated(flat)
    expected = reference[case]
    assert sorted(actual) == sorted(expected)
    for key, want in expected.items():
        got = actual[key]
        if isinstance(want, float):
            assert math.isclose(got, want, rel_tol=REL_TOL), (key, got, want)
        else:
            assert got == want and type(got) is type(want), (key, got, want)


if __name__ == "__main__":
    values = {case: gated(flatten(run(build(case)))) for case in CASES}
    FIXTURE.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(values)} cases to {FIXTURE}")
