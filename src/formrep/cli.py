"""Command-line front end.

Exit codes: 0 all enabled checks passed, 1 at least one check failed,
2 malformed or mathematically inadmissible input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import FormrepError, SpecFormatError
from .harness import (
    MAX_FAMILY_SIZE,
    ProblemSpec,
    _tolerance,
    Report,
    gen_counterexample,
    gen_random,
    load_spec,
    run,
    save_spec,
)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tol-scale",
        type=float,
        default=None,
        help="multiply every check tolerance by this factor",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="build the associated matrix even when the gap check refuses",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formrep",
        description=(
            "Construct self-adjoint matrices associated with sign-indefinite "
            "weighted forms, certify spectral gaps, compute kernels, and audit "
            "domain stability."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full pipeline for a problem file")
    p_verify.add_argument("spec", help="problem JSON file")
    _common_flags(p_verify)

    p_kernel = sub.add_parser("kernel", help="kernel report for an off-diagonal problem")
    p_kernel.add_argument("spec", help="problem JSON file (kind offdiag)")
    _common_flags(p_kernel)

    p_stab = sub.add_parser("stability", help="domain-stability suite for a problem file")
    p_stab.add_argument("spec", help="problem JSON file")
    _common_flags(p_stab)

    p_family = sub.add_parser("family", help="truncation-family diagnostics by name")
    p_family.add_argument("name", help="family name (counterexample, constant)")
    p_family.add_argument(
        "--sizes",
        required=True,
        help="sizes as start..stop (inclusive) or a comma list, e.g. 1..5 or 1,3,5",
    )
    _common_flags(p_family)
    for report_parser in (p_verify, p_kernel, p_stab, p_family):
        report_parser.add_argument(
            "--json-out", metavar="PATH", help="write the full report as JSON to PATH"
        )

    p_gen = sub.add_parser("generate", help="write a seeded problem file")
    p_gen.add_argument("kind", choices=["general", "offdiag", "counterexample"])
    p_gen.add_argument("--n", required=True, help="dimension, or p,q for offdiag blocks")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--alpha", type=float, default=0.5, help="gap margin target")
    p_gen.add_argument(
        "--kernel-dims", default="1,1", help="kernel dims k_plus,k_minus for offdiag"
    )
    p_gen.add_argument("--out", required=True, help="output path for the problem JSON")
    _common_flags(p_gen)

    return parser


def _parse_sizes(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise SpecFormatError(f"empty size range {text!r}")
        if hi > MAX_FAMILY_SIZE:
            raise SpecFormatError(f"family sizes stop at {MAX_FAMILY_SIZE}, got {text!r}")
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
    if args.force:
        spec.force = True
    return spec


def _emit(report: Report, json_out: str | None) -> int:
    for name, ok in report.checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    print(f"{'passed' if report.passed else 'failed'} in {report.wall_time_s:.3f}s")
    if json_out:
        with open(json_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            report = run(_apply_overrides(load_spec(args.spec), args))
            return _emit(report, args.json_out)

        if args.command == "kernel":
            spec = _apply_overrides(load_spec(args.spec), args)
            if spec.kind != "offdiag":
                raise SpecFormatError(
                    f"kernel command requires kind offdiag, got {spec.kind!r}"
                )
            report = run(spec)
            report.checks = {
                name: ok
                for name, ok in report.checks.items()
                if name.startswith("kernel")
            }
            return _emit(report, args.json_out)

        if args.command == "stability":
            spec = _apply_overrides(load_spec(args.spec), args)
            if spec.kind == "family":
                raise SpecFormatError("stability command needs a general or offdiag problem")
            report = run(spec)
            report.checks = {
                name: ok
                for name, ok in report.checks.items()
                if name in ("stability_conditions_agree", "shifted_unit_gap")
                or name.startswith("shifted_gap")
            }
            return _emit(report, args.json_out)

        if args.command == "family":
            spec = ProblemSpec(
                kind="family",
                family_name=args.name,
                sizes=_parse_sizes(args.sizes),
            )
            report = run(_apply_overrides(spec, args))
            return _emit(report, args.json_out)

        if args.command == "generate":
            if args.kind == "counterexample":
                spec = gen_counterexample(int(args.n))
            elif args.kind == "general":
                spec = gen_random("general", int(args.n), args.seed, args.alpha)
            else:
                dims = _parse_pair(args.n, "--n")
                kdims = _parse_pair(args.kernel_dims, "--kernel-dims")
                spec = gen_random("offdiag", dims, args.seed, args.alpha, kdims)
            spec = _apply_overrides(spec, args)
            save_spec(spec, args.out)
            print(f"wrote {args.out}")
            return 0

        raise SpecFormatError(f"unknown command {args.command!r}")
    except (FormrepError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
