"""Command-line front end.

Subcommands:

* ``gen``         write seeded instance files
* ``verify``      run the inequality suite over a seeded stream
* ``rank``        order the catalog by tightness on one instance
* ``optimize``    profile and minimize one exponent family on one instance
* ``demo-remark`` print the two scalar triples whose (A, B) orderings differ
* ``check-file``  evaluate named variants against one instance file

Exit codes: 0 success / no violations, 1 at least one inequality violated,
2 invalid input or flags.  Reports are CSV on stdout; ``--json`` adds the
full payload.  Output is a pure function of the flags, so repeated runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .bounds import SKIP_REASONS, EvalContext, TolerancePolicy, plan_for
from .space import load_instance, save_instance
from .tuning import PROFILE_FAMILIES, profile_exponent, rank_variants
from .variants import parse_variant_list
from .verify import GenConfig, generate_instance, remark_comparison_rows, run_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    value = int(text)
    return value, value


# The generator and tolerance flags store into the GenConfig and
# TolerancePolicy field they fill, so ``_from_flags`` builds either object.
def _add_gen_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", dest="master_seed", type=int, default=0, metavar="U64")
    parser.add_argument("--count", type=int, default=1000, metavar="N")
    parser.add_argument("--n", dest="n_range", type=_parse_range, default=(1, 8), metavar="MIN..MAX")
    parser.add_argument("--dim", dest="d_range", type=_parse_range, default=(1, 8), metavar="MIN..MAX")
    parser.add_argument("--field", dest="field_mode", choices=("real", "complex", "both"), default="both")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--structured", dest="structured_families", action="store_true",
        help="include positive scalar-triple families in the stream",
    )


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-rel", type=float, default=1e-9)
    parser.add_argument("--tol-abs", type=float, default=1e-12)


def _from_flags(cls, args, **given):
    """A ``cls`` dataclass with each field from its flag, unless ``given``."""
    return cls(**{f.name: given.get(f.name, getattr(args, f.name)) for f in fields(cls)})


def _instance_for(args):
    """Instance plus optional coefficients, from --file or the seeded stream."""
    if args.file is not None:
        return load_instance(args.file)
    return generate_instance(_from_flags(GenConfig, args, count=1), 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbbounds",
        description="Evaluate and verify upper bounds on inner-product expressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write instance files")
    _add_gen_flags(p_gen)
    p_gen.add_argument("--out", default="instances", metavar="DIR")

    p_verify = sub.add_parser("verify", help="run the inequality suite")
    _add_gen_flags(p_verify)
    _add_tolerance_flags(p_verify)
    p_verify.add_argument("--variants", default="all", metavar="LIST|all")
    p_verify.add_argument("--json", metavar="PATH")
    p_verify.add_argument("--csv", metavar="PATH")
    p_verify.add_argument("--jobs", type=int, default=1)

    p_rank = sub.add_parser("rank", help="rank variants by tightness on one instance")
    _add_gen_flags(p_rank)
    p_rank.add_argument("--file", metavar="PATH", default=None)
    p_rank.add_argument("--variants", default="all", metavar="LIST|all")
    p_rank.add_argument("--csv", metavar="PATH")

    p_opt = sub.add_parser("optimize", help="profile one exponent family")
    _add_gen_flags(p_opt)
    p_opt.add_argument("--family", required=True, choices=PROFILE_FAMILIES)
    p_opt.add_argument("--file", metavar="PATH", default=None)
    p_opt.add_argument("--csv", metavar="PATH")

    sub.add_parser("demo-remark", help="print the incomparability demonstration")

    p_check = sub.add_parser("check-file", help="check variants against an instance file")
    p_check.add_argument("file", metavar="FILE")
    p_check.add_argument("--variants", default="all", metavar="LIST|all")
    _add_tolerance_flags(p_check)

    return parser


def _emit(text: str, path: str | None) -> None:
    sys.stdout.write(text)
    if path:
        Path(path).write_text(text)


def _cmd_gen(args) -> int:
    config = _from_flags(GenConfig, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for index in range(config.count):
        inst, coeffs = generate_instance(config, index)
        save_instance(out / f"instance_{index:05d}.json", inst, coeffs)
    print(f"wrote {config.count} instance files to {out}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    variants = parse_variant_list(args.variants)
    policy = _from_flags(TolerancePolicy, args)
    report = run_suite(_from_flags(GenConfig, args), variants, policy, jobs=args.jobs)
    _emit(report.to_csv(), args.csv)
    if args.json:
        Path(args.json).write_text(report.to_json())
    if report.violated:
        print(f"{report.violated} violation(s) found", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_rank(args) -> int:
    variants = parse_variant_list(args.variants)
    inst, coeffs = _instance_for(args)
    plan = plan_for(variants)
    skips = plan.skips(EvalContext(inst, coeffs))[list(plan.order)].tolist()
    ranking = rank_variants(inst, coeffs, [v for v, skip in zip(variants, skips) if not skip])
    for variant, skip in zip(variants, skips):
        if skip:
            print(f"skipping {variant.name}: {SKIP_REASONS[skip]}", file=sys.stderr)
    _emit(ranking.to_csv(), args.csv)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    inst, coeffs = _instance_for(args)
    profile = profile_exponent(args.family, inst, coeffs)
    lines = ["exponent,value"]
    lines += [f"{repr(e)},{repr(v)}" for e, v in profile.grid]
    lines.append(f"{repr(profile.minimizer[0])},{repr(profile.minimizer[1])}")
    _emit("\n".join(lines) + "\n", args.csv)
    print(
        f"minimizer exponent={profile.minimizer[0]!r} value={profile.minimizer[1]!r} "
        f"at_boundary={profile.at_boundary}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_demo_remark(args) -> int:
    rows = remark_comparison_rows()
    for triple, a, b in rows:
        verdict = "A > B" if a > b else "B > A"
        label = "(" + ", ".join(f"{v:g}" for v in triple) + ")"
        print(f"family {label}: A={a!r}, B={b!r} -> {verdict}")
    print("neither off-diagonal weight dominates: the two bounds are incomparable")
    return EXIT_OK


def _cmd_check_file(args) -> int:
    variants = parse_variant_list(args.variants)
    policy = _from_flags(TolerancePolicy, args)
    inst, coeffs = load_instance(args.file)
    lines = ["variant,lhs,rhs,slack,status"]
    violated = 0
    for variant, ev in zip(variants, plan_for(variants).check(EvalContext(inst, coeffs), policy)):
        if isinstance(ev, str):
            lines.append(f"{variant.name},,,,skipped:{ev}")
            continue
        violated += not ev.holds
        status = "held" if ev.holds else "violated"
        lines.append(f"{variant.name},{ev.lhs!r},{ev.rhs!r},{ev.slack!r},{status}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_VIOLATION if violated else EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "rank": _cmd_rank,
    "optimize": _cmd_optimize,
    "demo-remark": _cmd_demo_remark,
    "check-file": _cmd_check_file,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    # ValidationError and VariantError are ValueErrors; profile_exponent
    # raises ArithmeticError on a non-finite profile value
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
