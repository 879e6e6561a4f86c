"""Command-line interface: ``ibistat analyze`` and ``ibistat simulate``."""

from __future__ import annotations

import argparse
import errno
import os
import sys
from itertools import combinations

from ._version import __version__
from .errors import IbistatError
from .inference import STANDARDIZE_MODES, coverage_simulation
from .report import AnalysisConfig, dumps_report, load_csv, run_analysis
from .svgplot import svg_from_report


def _parse_groups(raw: str) -> dict:
    """{role: label} of "A=x,B=y,C=z"; AnalysisConfig checks the roles."""
    mapping = {}
    for part in raw.split(","):
        if "=" not in part:
            raise argparse.ArgumentTypeError(
                "groups must look like A=label1,B=label2,C=label3"
            )
        key, value = (s.strip() for s in part.split("=", 1))
        if key in mapping:
            raise argparse.ArgumentTypeError(f"groups assign {key} more than once")
        mapping[key] = value
    return mapping


def _parse_levels(raw: str) -> tuple:
    """The floats of "0.8,0.95"; AnalysisConfig checks their range."""
    try:
        return tuple(float(x) for x in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad levels {raw!r}") from None


def _parse_features(raw: str) -> tuple:
    """The feature columns of ``raw``; () for "", which means every
    non-group column.  An empty name in a list is an error, not skipped."""
    if not raw:
        return ()
    names = tuple(raw.split(","))
    if "" in names:
        raise argparse.ArgumentTypeError(f"empty column name in {raw!r}")
    return names


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
    # the defaults are AnalysisConfig's, so the CLI and the library agree
    pa.add_argument(
        "--features", default=AnalysisConfig.feature_columns, type=_parse_features,
        help="comma-separated feature columns (default: all non-group columns)",
    )
    pa.add_argument("--standardize", choices=STANDARDIZE_MODES,
                    default=AnalysisConfig.standardize_mode)
    pa.add_argument("--boot", type=int, default=AnalysisConfig.boot_k, help="bootstrap replicates")
    pa.add_argument("--perm", type=int, default=AnalysisConfig.perm_k,
                    help="permutations (0 = skip)")
    pa.add_argument("--levels", type=_parse_levels, default=AnalysisConfig.levels)
    pa.add_argument("--seed", type=int, default=AnalysisConfig.seed)
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


def _check_output(path: str) -> None:
    """Raise OSError naming ``path`` unless a file could be written there:
    it is no directory, and it or, if it does not exist, its directory
    may be written.  Creates and truncates nothing, so a run that fails
    leaves an existing file as it was."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _same_file(a: str, b: str) -> bool:
    """True if paths ``a`` and ``b`` name one file, existing or not."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _cmd_analyze(args) -> int:
    config = AnalysisConfig(
        input_path=args.input,
        group_column=args.group_col,
        group_order=args.groups,
        feature_columns=args.features,
        standardize_mode=args.standardize,
        boot_k=args.boot,
        levels=args.levels,
        seed=args.seed,
        perm_k=args.perm,
    )
    paths = [("--input", args.input), ("--report", args.report), ("--plot", args.plot)]
    for (one, a), (other, b) in combinations([(o, p) for o, p in paths if p], 2):
        if _same_file(a, b):
            raise ValueError(f"{one} and {other} name the same file: {b}")
    for path in (args.report, args.plot):
        if path:
            _check_output(path)
    ds = load_csv(config.input_path, config)
    report, regions = run_analysis(config, ds)
    text = dumps_report(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.plot:
        svg = svg_from_report(report, regions)
        with open(args.plot, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return 0


# the header of a ``simulate --out`` file: the keys of ``row`` below
_OUT_HEADER = "n,sigma2,ci_coverage,ci_length,cr_coverage,cr_area"


def _out_needs_header(path: str) -> bool:
    """True if ``path`` is missing or empty; ValueError if its first line
    is not ``_OUT_HEADER`` or its last line has no line break."""
    if not os.path.exists(path):
        return True
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first:
            return True
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)
    if first.rstrip(b"\r\n") != _OUT_HEADER.encode():
        raise ValueError(f"{path} does not start with the header line {_OUT_HEADER}")
    if last != b"\n":
        raise ValueError(f"{path} does not end with a line break")
    return False


def _cmd_simulate(args) -> int:
    if args.out:
        _check_output(args.out)
        header = _out_needs_header(args.out)
    result = coverage_simulation(
        r=args.r, phi=args.phi, p=args.p, n_per_group=args.n,
        sigma2=args.sigma2, n_sims=args.sims, k=args.boot,
        seed=args.seed, level=args.level,
    )
    row = {"n": args.n, "sigma2": args.sigma2, **result}
    sys.stdout.write(dumps_report(row))
    if args.out:
        line = ",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                        for v in row.values())
        with open(args.out, "a", encoding="utf-8") as fh:
            if header:
                fh.write(_OUT_HEADER + "\n")
            fh.write(line + "\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_simulate(args)
    # OSError: a missing, unreadable or unwritable path, or a directory
    except (IbistatError, OSError, ValueError) as exc:
        print(f"ibistat: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
