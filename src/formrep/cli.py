"""Command-line front end.

Exit codes: 0 all enabled checks passed, 1 at least one check failed,
2 malformed or mathematically inadmissible input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn

from .errors import FormrepError, SpecFormatError
from .harness import (
    MAX_FAMILY_INDEX,
    ProblemSpec,
    _tolerance,
    Report,
    gen_counterexample,
    gen_random,
    load_spec,
    run,
    save_spec,
)

FLAGS = {
    "--tol-scale": {"type": float, "help": "multiply every check tolerance, not kernel decisions"},
    "--force": {
        "action": "store_true",
        "help": "build the associated matrix even when the gap check refuses",
    },
    "--json-out": {"metavar": "PATH", "help": "write the full report as JSON to PATH"},
    "--seed": {"type": int, "default": 0},
    "--alpha": {"type": float, "default": 0.5, "help": "gap margin target"},
    "--kernel-dims": {"default": "1,1", "help": "kernel dims k_plus,k_minus"},
    "--out": {"required": True, "help": "output path for the problem JSON"},
}

#: Commands that run a problem file: the kinds each accepts, its help, the
#: check-name prefixes it prints and its flags.  Each also prints
#: ``hypothesis_certified``, so a refused certificate fails every one of them.
REPORT_COMMANDS = {
    "verify": (
        ("general", "offdiag", "family"),
        "run the full pipeline for a problem file",
        "",
        ("--tol-scale", "--force", "--json-out"),
    ),
    "kernel": (
        ("offdiag",),
        "kernel report for an off-diagonal problem",
        "kernel",
        ("--tol-scale", "--json-out"),
    ),
    "stability": (
        ("general", "offdiag"),
        "domain-stability suite for a problem file",
        ("stability", "shifted"),
        ("--tol-scale", "--force", "--json-out"),
    ),
}

#: ``generate`` sub-commands: the meaning of ``--n`` and the flags each reads.
GENERATORS = {
    "general": ("dimension", ("--seed", "--alpha", "--out", "--tol-scale", "--force")),
    "offdiag": ("block sizes p,q", ("--seed", "--kernel-dims", "--out", "--tol-scale")),
    "counterexample": ("truncation size", ("--out", "--tol-scale")),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one ``error:`` line; sub-command parsers share the class."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


def _add_flags(parser: argparse.ArgumentParser, flags: tuple[str, ...]) -> None:
    for flag in flags:
        parser.add_argument(flag, **FLAGS[flag])


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="formrep",
        description=(
            "Construct self-adjoint matrices associated with sign-indefinite "
            "weighted forms, certify spectral gaps, compute kernels, and audit "
            "domain stability."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (kinds, text, _, flags) in REPORT_COMMANDS.items():
        p_report = sub.add_parser(command, help=text)
        p_report.add_argument("spec", help=f"problem JSON file (kind {' or '.join(kinds)})")
        _add_flags(p_report, flags)

    p_family = sub.add_parser("family", help="truncation-family diagnostics by name")
    p_family.add_argument("name", help="family name (counterexample, constant)")
    p_family.add_argument(
        "--sizes",
        required=True,
        help="sizes as start..stop (inclusive) or a comma list, e.g. 1..5 or 1,3,5",
    )
    _add_flags(p_family, ("--tol-scale", "--json-out"))

    p_gen = sub.add_parser("generate", help="write a seeded problem file")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    for kind, (n_help, flags) in GENERATORS.items():
        p_kind = gen_sub.add_parser(kind, help=f"write a {kind} problem file")
        p_kind.add_argument("--n", required=True, help=n_help)
        _add_flags(p_kind, flags)
    return parser


def _parse_sizes(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise SpecFormatError(f"empty size range {text!r}")
        if hi > MAX_FAMILY_INDEX:
            raise SpecFormatError(f"family sizes stop at {MAX_FAMILY_INDEX}, got {text!r}")
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 2:
        raise SpecFormatError(f"{what} must be two comma-separated integers, got {text!r}")
    return int(parts[0]), int(parts[1])


def _apply_overrides(spec: ProblemSpec, args: argparse.Namespace) -> ProblemSpec:
    if args.tol_scale is not None:
        spec.tolerances["tol_scale"] = _tolerance("tol_scale", args.tol_scale)
    if getattr(args, "force", False):
        spec.force = True
    return spec


def _emit(report: Report, json_out: str | None) -> int:
    if json_out:  # written first: a path that cannot be written prints no summary
        with open(json_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    for name, ok in report.checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    print(f"{'passed' if report.passed else 'failed'} in {report.wall_time_s:.3f}s")
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            if args.kind == "counterexample":
                spec = gen_counterexample(int(args.n))
            elif args.kind == "general":
                spec = gen_random("general", int(args.n), args.seed, args.alpha)
            else:
                dims = _parse_pair(args.n, "--n")
                kdims = _parse_pair(args.kernel_dims, "--kernel-dims")
                spec = gen_random("offdiag", dims, args.seed, kernel_dims=kdims)
            save_spec(_apply_overrides(spec, args), args.out)
            print(f"wrote {args.out}")
            return 0

        if args.command == "family":
            spec = ProblemSpec(kind="family", family_name=args.name, sizes=_parse_sizes(args.sizes))
            prefixes = ""
        else:
            kinds, _, prefixes, _ = REPORT_COMMANDS[args.command]
            spec = load_spec(args.spec)
            if spec.kind not in kinds:
                raise SpecFormatError(
                    f"{args.command} command needs kind {' or '.join(kinds)}, got {spec.kind!r}"
                )
        owned = [_apply_overrides(spec, args)]
        del spec  # run gets the only reference, so it frees each matrix after its last read
        report = run(owned.pop())
        report.checks = {
            name: ok
            for name, ok in report.checks.items()
            if name.startswith(prefixes) or name == "hypothesis_certified"
        }
        return _emit(report, args.json_out)
    except (FormrepError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
