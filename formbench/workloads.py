"""The benchmark's workloads: seeded inputs, the timed call, and its outputs.

Every workload is a closed loop with one client: the next problem starts
only after the previous one has returned.  formrep only ever sees the
generated ``ProblemSpec`` objects or the spec files written from them.

Inputs come from fixed pools of per-problem seeds; the workload seed picks
problems from each pool.  The golden reference (``golden.json``) holds the
expected outputs of every pool member, so any workload seed can be checked.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

from formrep import cli, harness

GENERAL_N = 384
OFFDIAG_DIMS = (192, 192)
#: With these kernel dimensions the coupling modes ``seed % 3`` = 0, 1, 2
#: give kernel dimensions 0, 5 and 3.
OFFDIAG_KERNEL_DIMS = (3, 2)
VERIFY_POOL = 30
VERIFY_COUNT = 3

ENSEMBLE_GENERAL_COUNT = 200
ENSEMBLE_OFFDIAG_COUNT = 100
#: A spec's shape is periodic in its seed: a general spec's size and gap
#: margin repeat every lcm(31, 4) = 124 seeds, an offdiag spec's blocks and
#: kernel dimensions every lcm(17, 16) = 272 seeds.
ENSEMBLE_GENERAL_PERIOD = 124
ENSEMBLE_OFFDIAG_PERIOD = 272
#: Random draws per ensemble slot.  Slot ``i`` runs spec seed
#: ``i + period * k`` with ``k`` below this, picked by the workload seed, so
#: every workload seed runs the same mix of shapes on different matrices.
ENSEMBLE_DRAWS = 4
#: Gap-margin targets of the acceptance ensembles, picked by ``seed % 4``.
ENSEMBLE_ALPHAS = (0.3, 0.5, 0.8, 1.0)

FAMILY_SIZES = "1..6"

# A reported output: (golden key, exit code, report as a JSON-like dict or None).
Output = tuple[str, int, "dict[str, Any] | None"]


@dataclass
class Problem:
    """One unit of closed-loop work.

    ``prepare`` runs untimed and returns the argument of ``call``, which is
    the timed call into formrep.  ``outputs`` turns the value of ``call``
    into the reports the correctness gate checks; it also runs untimed.
    """

    ident: str
    prepare: Callable[[], Any]
    call: Callable[[Any], Any]
    outputs: Callable[[Any], list[Output]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec_seeds: Callable[[int], dict[str, list[int]]]
    setup: Callable[[int, str], list[Problem]]


def _window(seed: int, stride: int, count: int, pool: int) -> list[int]:
    start = (seed * stride) % pool
    return [(start + i) % pool for i in range(count)]


def _read_report(path: str) -> dict[str, Any] | None:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def cli_problem(ident: str, commands: list[tuple[str, list[str]]], workdir: str) -> Problem:
    """In-process ``formrep <argv> --json-out <file>`` for each command, in order."""
    outs = [os.path.join(workdir, key.replace("/", "-") + ".out.json") for key, _ in commands]
    argvs = [argv + ["--json-out", out] for (_, argv), out in zip(commands, outs)]

    def prepare() -> None:
        for out in outs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(out)

    def call(_: None) -> list[int]:
        with contextlib.redirect_stdout(io.StringIO()):
            return [cli.main(argv) for argv in argvs]

    def outputs(codes: list[int]) -> list[Output]:
        return [
            (key, code, _read_report(out))
            for (key, _), out, code in zip(commands, outs, codes)
        ]

    return Problem(ident, prepare, call, outputs)


def library_problem(ident: str, spec: harness.ProblemSpec) -> Problem:
    """``harness.run`` on a fresh copy of an in-memory spec."""

    def prepare() -> harness.ProblemSpec:
        return dataclasses.replace(
            spec,
            matrices={name: mat.copy() for name, mat in spec.matrices.items()},
            tolerances=dict(spec.tolerances),
        )

    def outputs(report: harness.Report) -> list[Output]:
        return [(ident, report.exit_code, report.to_dict())]

    # ``harness.run`` is looked up at call time so the traced run sees its wrapper.
    return Problem(ident, prepare, lambda fresh: harness.run(fresh), outputs)


# ----------------------------------------------------------------------
# verify-general-n384 and verify-offdiag-p192
# ----------------------------------------------------------------------


def general_key(seed: int) -> str:
    return f"general-n{GENERAL_N}/{seed}"


def offdiag_key(seed: int) -> str:
    return f"offdiag-p{OFFDIAG_DIMS[0]}/{seed}"


def verify_problems(kind: str, seeds: list[int], workdir: str) -> list[Problem]:
    """Write one seeded spec file per seed; each problem verifies one file."""
    problems = []
    for seed in seeds:
        if kind == "general":
            key = general_key(seed)
            spec = harness.gen_random("general", GENERAL_N, seed)
        else:
            key = offdiag_key(seed)
            spec = harness.gen_random(
                "offdiag", OFFDIAG_DIMS, seed, kernel_dims=OFFDIAG_KERNEL_DIMS
            )
        path = os.path.join(workdir, key.replace("/", "-") + ".spec.json")
        harness.save_spec(spec, path)
        problems.append(cli_problem(key, [(key, ["verify", path])], workdir))
    return problems


def _verify_seeds(seed: int) -> dict[str, list[int]]:
    # Stride 3 over a pool that is a multiple of 3 keeps ``seed % 3`` = 0, 1, 2
    # in every window, so the offdiag workload covers all three coupling modes.
    return {"spec": _window(seed, VERIFY_COUNT, VERIFY_COUNT, VERIFY_POOL)}


# ----------------------------------------------------------------------
# ensemble-small
# ----------------------------------------------------------------------


def ensemble_general_key(seed: int) -> str:
    return f"ensemble-general/{seed}"


def ensemble_offdiag_key(seed: int) -> str:
    return f"ensemble-offdiag/{seed}"


def ensemble_general_shape(seed: int) -> tuple[int, float]:
    """Size and gap-margin target of the general ensemble spec with this seed."""
    return 2 + (7 * seed) % 31, ENSEMBLE_ALPHAS[seed % 4]


def ensemble_offdiag_shape(seed: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Block sizes and kernel dimensions of the offdiag ensemble spec with this seed."""
    return (4 + (3 * seed) % 17, 4 + (5 * seed) % 17), (seed % 4, (seed // 4) % 4)


def ensemble_problems(general_seeds: list[int], offdiag_seeds: list[int]) -> list[Problem]:
    """Specs shaped like the acceptance ensembles, interleaved two general to one offdiag."""
    general = []
    for seed in general_seeds:
        n, alpha = ensemble_general_shape(seed)
        spec = harness.gen_random("general", n, seed, alpha)
        general.append(library_problem(ensemble_general_key(seed), spec))
    offdiag = []
    for seed in offdiag_seeds:
        dims, kernel_dims = ensemble_offdiag_shape(seed)
        spec = harness.gen_random("offdiag", dims, seed, kernel_dims=kernel_dims)
        offdiag.append(library_problem(ensemble_offdiag_key(seed), spec))
    ratio = max(len(general) // max(len(offdiag), 1), 1)
    problems: list[Problem] = []
    while general or offdiag:
        problems.extend(general[:ratio])
        del general[:ratio]
        problems.extend(offdiag[:1])
        del offdiag[:1]
    return problems


def _ensemble_slots(count: int, period: int, draw: Callable[[int], int]) -> list[int]:
    return [slot + period * draw(ENSEMBLE_DRAWS) for slot in range(count)]


def _ensemble_seeds(seed: int) -> dict[str, list[int]]:
    rng = random.Random(seed)
    return {
        "general": _ensemble_slots(ENSEMBLE_GENERAL_COUNT, ENSEMBLE_GENERAL_PERIOD, rng.randrange),
        "offdiag": _ensemble_slots(ENSEMBLE_OFFDIAG_COUNT, ENSEMBLE_OFFDIAG_PERIOD, rng.randrange),
    }


def ensemble_pool() -> dict[str, list[int]]:
    """Every spec seed any workload seed can pick, for the golden reference."""
    return {
        "general": sorted({
            slot + ENSEMBLE_GENERAL_PERIOD * k
            for slot in range(ENSEMBLE_GENERAL_COUNT) for k in range(ENSEMBLE_DRAWS)
        }),
        "offdiag": sorted({
            slot + ENSEMBLE_OFFDIAG_PERIOD * k
            for slot in range(ENSEMBLE_OFFDIAG_COUNT) for k in range(ENSEMBLE_DRAWS)
        }),
    }


def _ensemble_setup(seed: int, workdir: str) -> list[Problem]:
    seeds = _ensemble_seeds(seed)
    return ensemble_problems(seeds["general"], seeds["offdiag"])


# ----------------------------------------------------------------------
# family-sweep
# ----------------------------------------------------------------------

FAMILY_COMMANDS = [
    (f"family/{name}", ["family", name, "--sizes", FAMILY_SIZES])
    for name in ("counterexample", "constant")
]


def _family_setup(seed: int, workdir: str) -> list[Problem]:
    # Deterministic: one problem is the counterexample sweep followed by the
    # constant sweep, so every sample does the same work.
    return [cli_problem("family-sweep", FAMILY_COMMANDS, workdir)]


WORKLOADS: dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            "verify-general-n384",
            "large-n general path: eigh, SVD 2-norms, probe loops, stability suite, spec JSON echo",
            _verify_seeds,
            lambda seed, workdir: verify_problems(
                "general", _verify_seeds(seed)["spec"], workdir
            ),
        ),
        Workload(
            "verify-offdiag-p192",
            "kernel formula, nullspace, subspace intersection, assemble_offdiag three times per problem",
            _verify_seeds,
            lambda seed, workdir: verify_problems(
                "offdiag", _verify_seeds(seed)["spec"], workdir
            ),
        ),
        Workload(
            "ensemble-small",
            "300 small library runs: per-call Python overhead, validation, canonical probe pairs",
            _ensemble_seeds,
            _ensemble_setup,
        ),
        Workload(
            "family-sweep",
            "the only caller of the diagonal-involution sweep: 5,448 gap checks on n <= 12",
            lambda seed: {},
            _family_setup,
        ),
    )
}
