"""Command-line interface: ``ibistat analyze`` and ``ibistat simulate``."""

from __future__ import annotations

import argparse
import os
import sys

from ._version import __version__
from .errors import IbistatError
from .inference import coverage_simulation
from .report import AnalysisConfig, dumps_report, load_csv, run_analysis
from .svgplot import svg_from_report


def _parse_groups(raw: str) -> dict:
    mapping = {}
    for part in raw.split(","):
        if "=" not in part:
            raise argparse.ArgumentTypeError(
                "groups must look like A=label1,B=label2,C=label3"
            )
        key, value = part.split("=", 1)
        mapping[key.strip()] = value.strip()
    if sorted(mapping) != ["A", "B", "C"]:
        raise argparse.ArgumentTypeError("groups must assign exactly A, B and C")
    return mapping


def _parse_levels(raw: str) -> tuple:
    try:
        levels = tuple(float(x) for x in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad levels {raw!r}") from None
    if not levels or not all(0.0 < lv < 1.0 for lv in levels):
        raise argparse.ArgumentTypeError("levels must lie in (0, 1)")
    return levels


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibistat",
        description="In-betweenness analysis of three groups in feature space",
    )
    parser.add_argument("--version", action="version", version=f"ibistat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a CSV of grouped observations")
    pa.add_argument("--input", required=True, help="CSV file with a header row")
    pa.add_argument("--group-col", required=True, help="name of the group column")
    pa.add_argument(
        "--groups", required=True, type=_parse_groups,
        help="mapping A=<label>,B=<label>,C=<label>; B is the candidate in-between group",
    )
    pa.add_argument(
        "--features", default="",
        help="comma-separated feature columns (default: all non-group columns)",
    )
    pa.add_argument(
        "--standardize", default="feature", choices=["none", "feature", "whiten"],
    )
    pa.add_argument("--boot", type=int, default=2000, help="bootstrap replicates")
    pa.add_argument("--perm", type=int, default=0, help="permutations (0 = skip)")
    pa.add_argument("--levels", type=_parse_levels, default=(0.8, 0.95))
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--threads", type=_positive_int, metavar="N",
                    help="accepted for compatibility; has no effect")
    pa.add_argument("--report", default="", help="write the JSON report here")
    pa.add_argument("--plot", default="", help="write a shape-space SVG here")

    ps = sub.add_parser("simulate", help="coverage simulation for a known mean shape")
    ps.add_argument("--r", type=float, required=True, help="mean shape radius in [0, 1]")
    ps.add_argument("--phi", type=float, required=True, help="mean shape angle (radians)")
    ps.add_argument("--p", type=int, required=True, help="ambient dimension (>= 2)")
    ps.add_argument("--n", type=int, required=True, help="observations per group")
    ps.add_argument("--sigma2", type=float, required=True, help="noise variance")
    ps.add_argument("--sims", type=int, required=True, help="simulated datasets")
    ps.add_argument("--boot", type=int, required=True, help="bootstrap replicates per dataset")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--level", type=float, default=0.95)
    ps.add_argument("--out", default="", help="also append the row to this CSV")
    return parser


def _cmd_analyze(args) -> int:
    config = AnalysisConfig(
        input_path=args.input,
        group_column=args.group_col,
        group_order=args.groups,
        feature_columns=tuple(c for c in args.features.split(",") if c),
        standardize_mode=args.standardize,
        boot_k=args.boot,
        levels=args.levels,
        seed=args.seed,
        perm_k=args.perm,
    )
    ds = load_csv(config.input_path, config)
    report, _, regions = run_analysis(config, ds)
    text = dumps_report(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.plot:
        points = {
            key: [(float(u), float(v)) for u, v in cr.member_points]
            for key, cr in regions.items()
        }
        svg = svg_from_report(report, ensemble_points=points)
        with open(args.plot, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return 0


def _cmd_simulate(args) -> int:
    result = coverage_simulation(
        r=args.r, phi=args.phi, p=args.p, n_per_group=args.n,
        sigma2=args.sigma2, n_sims=args.sims, k=args.boot,
        seed=args.seed, level=args.level,
    )
    row = {
        "n": args.n,
        "sigma2": args.sigma2,
        "ci_coverage": result["ci_coverage"],
        "ci_length": result["ci_length"],
        "cr_coverage": result["cr_coverage"],
        "cr_area": result["cr_area"],
    }
    sys.stdout.write(dumps_report(row))
    if args.out:
        header = ",".join(row)
        line = ",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                        for v in row.values())
        fresh = not os.path.exists(args.out)
        with open(args.out, "a", encoding="utf-8") as fh:
            if fresh:
                fh.write(header + "\n")
            fh.write(line + "\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_simulate(args)
    except (IbistatError, FileNotFoundError, ValueError) as exc:
        print(f"ibistat: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
