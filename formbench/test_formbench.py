"""Tests of the benchmark itself: metric names, the correctness gate, exact counts.

Run from the repository root (takes about two minutes on two cores):

    python3 -m pytest -q formbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, per_layer_metric_units  # noqa: E402

GOLDEN = gate.load(str(HERE / "golden.json"))
#: Workload seed never used while the benchmark was written or tuned.
HELD_OUT_SEED = 48611


@pytest.fixture
def workdir(request) -> Path:
    """A scratch directory inside the benchmark's own output directory."""
    path = HERE / "out" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def test_declared_metrics_match_the_code():
    assert declared("end_to_end") == run.END_TO_END_UNITS
    assert declared("per_layer") == {**per_layer_metric_units(), **run.TRACE_UNITS}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # ensemble-small and family-sweep run by hand only: they are bound by
    # the Python interpreter, whose speed on a shared host drifts between
    # runs by more than the bounds.
    by_hand = ["ensemble-small", "family-sweep"]
    assert [w["name"] for w in spec["workloads"]] + by_hand == list(workloads.WORKLOADS)


def test_every_metric_printed_with_its_unit():
    untraced = bench("--workload", "ensemble-small", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in untraced["metrics"].values())

    traced = bench("--workload", "ensemble-small", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert traced["correct"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == declared("per_layer")


def _ensemble_output():
    problem = workloads.ensemble_problems([5], [])[0]
    ((key, code, report),) = problem.outputs(problem.call(problem.prepare()))
    return key, code, report


def test_untampered_report_passes_the_gate():
    key, code, report = _ensemble_output()
    assert gate.compare(GOLDEN[key], code, report) == []


@pytest.mark.parametrize(
    "tamper",
    [
        lambda r: r["checks"].update(first_rep_residual=not r["checks"]["first_rep_residual"]),
        lambda r: r["stability"]["conditions"].update(v=False),
        lambda r: r["representation"].update(gap_radius=r["representation"]["gap_radius"] * (1 + 1e-6)),
        lambda r: r["stability"].update(norm_sign_conjugate=r["stability"]["norm_sign_conjugate"] * 0.999),
        lambda r: r["representation"].update(first_rep_residual=1e-9),
        lambda r: r["checks"].pop("shifted_unit_gap"),
    ],
    ids=["flipped-verdict", "flipped-condition", "gap-radius-1e-6", "norm-1e-3", "residual-over-bound", "missing-check"],
)
def test_tampered_report_raises_failed_ratio(tamper):
    key, code, report = _ensemble_output()
    tampered = copy.deepcopy(report)
    tamper(tampered)
    problem = workloads.Problem(key, lambda: None, lambda _: None, lambda _: [(key, code, tampered)])
    tally = run.Tally()
    run.execute(problem, GOLDEN, tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_rounding_level_changes_pass_the_gate():
    key, code, report = _ensemble_output()
    report["representation"]["gap_radius"] *= 1 + 1e-13
    report["representation"]["first_rep_residual"] = 9e-11
    assert gate.compare(GOLDEN[key], code, report) == []


def test_wrong_exit_code_fails_the_gate():
    key, code, report = _ensemble_output()
    assert gate.compare(GOLDEN[key], 1, report)


@pytest.mark.parametrize("name", ["verify-general-n384", "verify-offdiag-p192", "ensemble-small"])
def test_held_out_seed_passes_the_gate(name, workdir):
    workload = workloads.WORKLOADS[name]
    tally = run.Tally()
    for problem in workload.setup(HELD_OUT_SEED, str(workdir)):
        run.execute(problem, GOLDEN, tally)
    assert tally.failed == 0, tally.reasons
    assert tally.attempted == (3 if name.startswith("verify") else 300)


def test_offdiag_windows_cover_every_coupling_mode():
    for seed in (0, 7, HELD_OUT_SEED):
        seeds = workloads.WORKLOADS["verify-offdiag-p192"].spec_seeds(seed)["spec"]
        assert sorted(s % 3 for s in seeds) == [0, 1, 2]
        dims = sorted(GOLDEN[workloads.offdiag_key(s)]["kernel.theorem_dim"] for s in seeds)
        assert dims == [0, 3, 5]


def test_ensemble_seeds_keep_the_shape_mix():
    shapes = {"general": workloads.ensemble_general_shape, "offdiag": workloads.ensemble_offdiag_shape}
    picks = [workloads.WORKLOADS["ensemble-small"].spec_seeds(s) for s in (0, 7, HELD_OUT_SEED)]
    for kind, shape in shapes.items():
        assert len({tuple(p[kind]) for p in picks}) == len(picks)
        assert len({tuple(map(shape, p[kind])) for p in picks}) == 1
        assert set().union(*(p[kind] for p in picks)) <= set(workloads.ensemble_pool()[kind])


def _traced_counts(problem) -> dict[str, int]:
    tracer = Tracer()
    tracer.install()
    try:
        tally = run.Tally()
        run.execute(problem, GOLDEN, tally, tracer)
    finally:
        tracer.uninstall()
    assert tally.failed == 0, tally.reasons
    units = per_layer_metric_units()
    return {k: v for k, v in tracer.metrics().items() if units[k] == "count"}


def test_counterexample_pass_makes_every_gap_check(workdir):
    command = [c for c in workloads.FAMILY_COMMANDS if c[0] == "family/counterexample"]
    counts = _traced_counts(workloads.cli_problem("counterexample", command, str(workdir)))
    splittings = sum(2 ** (2 * s) - 2 for s in range(1, 7))
    assert splittings == 5448
    assert counts["involution.enumerate_diagonal_involutions.yielded"] == splittings
    assert counts["general.check_gap_hypothesis.calls"] == splittings


def test_traced_counts_repeat_exactly(workdir):
    problems = workloads.WORKLOADS["verify-offdiag-p192"].setup(4, str(workdir))[:1]
    first = _traced_counts(problems[0])
    second = _traced_counts(problems[0])
    assert first == second
    assert first["kernel.eigh.calls"] > 0 and first["kernel.norm2.n3"] > 0


def test_traced_runs_give_identical_counts():
    args = ("--workload", "family-sweep", "--seed", "0", "--seconds", "0", "--trace", "1")
    units = per_layer_metric_units()
    counts = [
        {k: v["value"] for k, v in bench(*args)["metrics"].items() if units.get(k) == "count"}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["general.check_gap_hypothesis.calls"] > 5448


def test_exits_nonzero_without_the_library(workdir):
    (workdir / "formbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file() and not path.name.startswith("test_"):
            (workdir / "formbench" / path.name).write_bytes(path.read_bytes())
    (workdir / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "formbench/run.py", "--workload", "ensemble-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(workdir)
    assert proc.returncode != 0
    assert proc.stdout == ""
