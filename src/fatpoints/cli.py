"""Command-line front end: fatpoints {generate|alpha|alphaseq|dim|kernel|check|repro|search|plot}.

Exit codes: 0 success, 1 error or failed reproduction, 2 success with
certification-gap warnings (an existence side certified only modulo
primes, or an UNDECIDED/INCONSISTENT verdict).
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import AlgebraError, QQ, field_from_string, reduce_points
from .analysis import (
    IMPLICATIONS,
    INCONSISTENT,
    UNDECIDED,
    conjecture_search,
    load_registry,
    repro,
)
from .cache import CacheVerificationError, ResultCache
from .configs import DEGREE_FAMILIES, FAMILIES, PARAMETERS, ConfigSpec, generate
from .linsys import (
    CERTIFIED_EXISTENCE,
    FatPointScheme,
    alpha_search,
    alpha_sequence,
    kernel_basis,
    parse_strategy,
    system_dim,
)
from .serialize import (
    dump_json,
    load_json_file,
    points_from_json_dict,
    points_to_json_dict,
    poly_to_json_dict,
    record,
)
from .svgplot import render_svg

# Every option; COMMANDS names the ones each command reads.
_OPTIONS = {
    "--points": {"help": "point-set JSON file"},
    "--family": {"choices": FAMILIES},
    "--r": {"type": int},
    "--p": {"type": int, "help": "line count for star families"},
    "--d1": {"type": int},
    "--d2": {"type": int},
    "--prime": {"type": int, "help": "prime for finite-field families"},
    "--height": {"type": int},
    "--field": {"help": "rational | prime:P; omit to keep the input's field"},
    "--d": {"type": int},
    "--mults": {"help": "comma-separated multiplicities, or one value for all"},
    "--kmax": {"type": int},
    "--seed": {"type": int},  # absent: each family's or conjecture_search's default
    "--strategy": {"help": "exact | prime | multiprime:K"},
    "--cache": {"help": "cache directory (or FATPOINTS_CACHE)"},
    "--verify-cache": {"action": "store_true"},
    "--out": {"help": "output file (.json, .csv for tables, .svg for plots)"},
    "--pretty": {"action": "store_true"},
    "--theorem": {"required": True, "choices": sorted(IMPLICATIONS)},
    "--k": {"type": int, "required": True},
    "--id": {"help": "registry example id"},
    "--all": {"action": "store_true"},
    "--conjecture": {"type": int, "choices": (2, 3)},
    "--trials": {"type": int, "required": True},
    "--r-min": {"type": int, "default": 4},
    "--r-max": {"type": int, "default": 9},
}
_FAMILY_PARAMETERS = [f"--{n}" for n in PARAMETERS]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fatpoints",
        description="Exact initial degrees of symbolic powers of planar point sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, takes) in COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(command_parser=p, handler=handler)
        for flag in takes.split():
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


class UsageError(Exception):
    """Usage error surfaced with exit code 1 and a message."""


def _convert_field(points, args):
    if args.field is None:
        return points
    want = field_from_string(args.field)
    have = points[0].field
    if want == have:
        return points
    if have != QQ:
        raise UsageError(
            f"cannot move points from {have!r} to {want!r}; prime-field "
            "configurations stay in their field"
        )
    return reduce_points(points, want)


def resolve_points(args, command=""):
    if args.points and args.family:
        raise UsageError("pass either --points or --family, not both")
    if args.points:
        return _convert_field(points_from_json_dict(load_json_file(args.points)), args)
    if args.family:
        spec = {n: getattr(args, n) for n in PARAMETERS}
        if command in ("dim", "kernel"):  # --d is the system degree there
            spec["d"] = None
        # the families with a degree parameter also take it as --p, which is
        # their only way to get it in dim and kernel
        if args.family in DEGREE_FAMILIES and spec["d"] is None:
            if args.p is None and command in ("dim", "kernel"):
                raise UsageError(
                    f"--d means the system degree for {command}; pass the "
                    f"{args.family} size as --p, or generate a points file first"
                )
            spec["d"], spec["p"] = args.p, None
        return _convert_field(generate(ConfigSpec(args.family, **spec)), args)
    raise UsageError("one of --points or --family is required")


def resolve_mults(args, npoints: int):
    if not args.mults:
        return (1,) * npoints
    parts = [int(x) for x in args.mults.split(",") if x.strip() != ""]
    if len(parts) == 1:
        return (parts[0],) * npoints
    if len(parts) != npoints:
        raise UsageError(
            f"--mults has {len(parts)} entries for {npoints} points"
        )
    return tuple(parts)


def resolve_cache(args):
    root = args.cache or os.environ.get("FATPOINTS_CACHE")
    if not root:
        if args.verify_cache:
            raise UsageError("--verify-cache needs a cache directory")
        return None
    return ResultCache(root, verify=args.verify_cache)


def strategy(args) -> dict:
    """``strategy=`` for a library call if ``--strategy`` is given, so the
    library's own default holds otherwise."""
    return {"strategy": parse_strategy(args.strategy)} if args.strategy else {}


def search_options(args) -> dict:
    """Certify existence exactly unless ``--strategy`` names the strategy."""
    return {**strategy(args), "certify_existence": not args.strategy}


def write(args, text: str) -> None:
    """Write ``text`` to ``--out``, or to stdout without one."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def emit(args, payload: dict, pretty_text: str = "", csv: str = "") -> None:
    pretty = args.pretty and pretty_text
    if csv and args.out and args.out.endswith(".csv"):
        write(args, csv)
    elif args.out or not pretty:
        write(args, dump_json(payload))
    if pretty:
        print(pretty_text)


def cmd_generate(args) -> int:
    pts = resolve_points(args)
    payload = points_to_json_dict(pts)
    emit(args, payload, "\n".join(repr(P) for P in pts))
    return 0


def cmd_alpha(args) -> int:
    pts = resolve_points(args)
    mults = resolve_mults(args, len(pts))
    scheme = FatPointScheme(pts, mults)
    av = alpha_search(scheme, **search_options(args), cache=resolve_cache(args))
    warnings = []
    if not av.fully_certified:
        warnings.append("existence side certified only modulo primes")
    payload = record("alpha", value=av.value, existence_certified=av.existence,
                     certification=av.certification, multiplicities=list(mults),
                     warnings=warnings)
    emit(args, payload, f"alpha = {av.value}  [{av.certification}]")
    return 2 if warnings else 0


def cmd_alphaseq(args) -> int:
    if not args.kmax or args.kmax < 1:
        raise UsageError("--kmax >= 1 is required")
    pts = resolve_points(args)
    rep = alpha_sequence(pts, args.kmax, **search_options(args), cache=resolve_cache(args))
    payload = rep.to_json_dict()
    csv = rep.to_csv()
    warnings = [
        f"k={e['k']}: existence side certified only modulo primes"
        for e in rep.entries
        if e["existence_certified"] not in CERTIFIED_EXISTENCE
    ]
    payload["warnings"] = warnings
    emit(args, payload, csv.replace(",", "  ").rstrip("\n"), csv)
    return 2 if warnings else 0


def cmd_dim(args) -> int:
    if args.d is None:
        raise UsageError("--d is required")
    pts = resolve_points(args, "dim")
    mults = resolve_mults(args, len(pts))
    scheme = FatPointScheme(pts, mults)
    report = system_dim(scheme, args.d, **strategy(args), cache=resolve_cache(args))
    payload = report.to_json_dict()
    pretty = (
        f"degree {report.degree}: actual_dim {report.actual_dim}, "
        f"expected_dim {report.expected_dim}, superabundance "
        f"{report.superabundance}  [{report.certification}]"
    )
    emit(args, payload, pretty)
    return 0


def cmd_kernel(args) -> int:
    if args.d is None:
        raise UsageError("--d is required")
    pts = resolve_points(args, "kernel")
    mults = resolve_mults(args, len(pts))
    scheme = FatPointScheme(pts, mults)
    basis = kernel_basis(scheme, args.d, **strategy(args))
    payload = record("kernel", degree=args.d, dimension=len(basis),
                     basis=[poly_to_json_dict(g) for g in basis])
    emit(args, payload, "\n".join(str(g) for g in basis) or "(empty system)")
    return 0


def cmd_check(args) -> int:
    pts = resolve_points(args)
    verdict = IMPLICATIONS[args.theorem].check(pts, args.k, **strategy(args))
    payload = verdict.to_json_dict()
    emit(args, payload, f"{verdict.theorem}: {verdict.status}")
    return 2 if verdict.status in (UNDECIDED, INCONSISTENT) else 0


def cmd_repro(args) -> int:
    if args.all and args.id:
        raise UsageError("pass either --id or --all, not both")
    if not (args.all or args.id):
        raise UsageError("pass --id ID or --all")
    registry = load_registry()
    if not args.all and args.id not in registry["examples"]:
        raise UsageError(f"unknown example id {args.id!r}")
    ids = sorted(registry["examples"]) if args.all else [args.id]
    reports = [repro(eid, registry) for eid in ids]
    payload = record("repro_run", reports=[r.to_json_dict() for r in reports],
                     **{"pass": all(r.passed for r in reports)})
    for r in reports:
        print(r.table())
    if args.out:
        write(args, dump_json(payload))
    return 0 if payload["pass"] else 1


def cmd_search(args) -> int:
    # unset options keep conjecture_search's defaults; an empty --field is unset
    given = {"k": args.kmax, "seed": args.seed, "difference": args.conjecture,
             "field": field_from_string(args.field) if args.field else None}
    rep = conjecture_search(args.trials, (args.r_min, args.r_max),
                            **{n: v for n, v in given.items() if v is not None})
    payload = rep.to_json_dict()
    pretty = (
        f"{rep.trials} trials: {len(rep.hypothesis_true)} hypothesis-true, "
        f"{len(rep.inconsistent)} inconsistent"
    )
    emit(args, payload, pretty)
    return 0


def cmd_plot(args) -> int:
    write(args, render_svg(resolve_points(args)))
    return 0


_POINTS = " ".join(["--points --family --field", *_FAMILY_PARAMETERS])
_STRATEGY_CACHE = "--strategy --cache --verify-cache"
# each command's handler and the options it reads; its parser refuses others
COMMANDS = {
    "generate": (cmd_generate, f"{_POINTS} --out --pretty"),
    "alpha": (cmd_alpha, f"{_POINTS} --mults {_STRATEGY_CACHE} --out --pretty"),
    "alphaseq": (cmd_alphaseq, f"{_POINTS} --kmax {_STRATEGY_CACHE} --out --pretty"),
    "dim": (cmd_dim, f"{_POINTS} --mults {_STRATEGY_CACHE} --out --pretty"),
    "kernel": (cmd_kernel, f"{_POINTS} --mults --strategy --out --pretty"),
    "plot": (cmd_plot, f"{_POINTS} --out"),
    "check": (cmd_check, f"{_POINTS} --strategy --out --pretty --theorem --k"),
    "repro": (cmd_repro, "--out --id --all"),
    "search": (cmd_search, "--field --kmax --seed --out --pretty --conjecture --trials "
                           "--r-min --r-max"),
}
# the --out suffixes a command writes, if not only .json; another known one is refused
_WRITES = {"alphaseq": (".json", ".csv"), "plot": (".svg",)}


def main(argv=None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    if unread:
        args.command_parser.error(f"unrecognized arguments: {' '.join(unread)}")
    given = [f for f in _FAMILY_PARAMETERS if getattr(args, f[2:], None) is not None
             and not (f == "--d" and args.command in ("dim", "kernel"))]
    if getattr(args, "points", None) and not args.family and given:
        args.command_parser.error(f"--points takes no family parameters: {' '.join(given)}")
    suffix = os.path.splitext(getattr(args, "out", None) or "")[1]
    if suffix in (".json", ".csv", ".svg") and suffix not in _WRITES.get(args.command, (".json",)):
        args.command_parser.error(f"--out {args.out}: {args.command} writes no {suffix} file")
    try:
        return args.handler(args)
    except (UsageError, ValueError, KeyError, OSError, AlgebraError,
            CacheVerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
