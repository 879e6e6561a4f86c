"""Analysis configuration, CSV ingestion, and the JSON report.

The report serializer is hand-rolled so floats always carry 17
significant digits (lossless round trip) and field order is fixed,
making reports byte-stable for a given (input, config, seed).
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from array import array
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring
from operator import itemgetter

import numpy as np

from ._version import __version__
from .errors import (
    CsvParseError,
    FewerThanThreeGroupsError,
    InsufficientDataError,
    UnknownGroupLabelError,
)
from .inference import (
    GROUPS,
    STANDARDIZE_MODES,
    GroupedDataset,
    _MIN_REGION_REPLICATES,
    _observed_triangle,
    confidence_region,
    percentile_ci,
    permutation_test,
    region_summary,
    standardize,
    stratified_bootstrap,
)
from .sampling import MAX_STREAMS

REPORT_FORMAT = 1


def _level_key(level: float) -> str:
    """The key of a level's CI and region in the report."""
    return format(float(level), "g")


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything a run needs; the report's ``config`` block echoes it,
    with the feature columns as resolved against the CSV header."""

    input_path: str
    group_column: str
    group_order: dict  # {"A": label, "B": label, "C": label}
    feature_columns: tuple = ()  # empty = every non-group column
    standardize_mode: str = "feature"
    boot_k: int = 2000
    levels: tuple = (0.8, 0.95)
    seed: int = 0
    perm_k: int = 0

    def __post_init__(self):
        # the report echoes the path as UTF-8 text; a name with bytes that
        # are not UTF-8 (surrogate escapes in a str) has no such text
        try:
            str(self.input_path).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(
                f"input_path (--input) is not valid UTF-8: {self.input_path!r}"
            ) from None
        if sorted(self.group_order) != sorted(GROUPS):
            raise ValueError("group_order (--groups) must map exactly A, B and C")
        if len(set(self.group_order.values())) != 3:
            raise ValueError("group_order (--groups) must map to three distinct labels")
        if self.boot_k < 3:
            raise ValueError(f"boot_k (--boot) must be >= 3, got {self.boot_k}")
        if self.boot_k > MAX_STREAMS:
            raise ValueError(f"boot_k (--boot) must be at most 2**32, got {self.boot_k}")
        if not all(0.0 < lv < 1.0 for lv in self.levels):
            raise ValueError(f"levels (--levels) must lie in (0, 1), got {list(self.levels)}")
        keys = [_level_key(lv) for lv in self.levels]
        if len(set(keys)) != len(keys):
            raise ValueError(
                f"levels (--levels) {list(self.levels)} share a report key "
                f"({', '.join(keys)}); give each level once"
            )
        if self.perm_k < 0:
            raise ValueError(f"perm_k (--perm) must be >= 0, got {self.perm_k}")
        if self.perm_k > MAX_STREAMS:
            raise ValueError(f"perm_k (--perm) must be at most 2**32, got {self.perm_k}")
        if self.seed < 0:
            raise ValueError(f"seed (--seed) must be >= 0, got {self.seed}")
        if self.standardize_mode not in STANDARDIZE_MODES:
            raise ValueError(f"standardize_mode (--standardize) must be one of {STANDARDIZE_MODES}")
        repeated = [c for c, count in Counter(self.feature_columns).items() if count > 1]
        if repeated:
            raise ValueError(f"feature_columns (--features) name {repeated[0]!r} more than once")
        if self.group_column in self.feature_columns:
            raise ValueError(f"feature_columns (--features) name --group-col {self.group_column!r}")
        object.__setattr__(self, "feature_columns", tuple(self.feature_columns))
        object.__setattr__(self, "levels", tuple(float(lv) for lv in self.levels))


def _decoded_lines(fh):
    """The lines of the binary file ``fh``, each decoded where it is read
    (line 1 as ``utf-8-sig``, so a byte-order mark is allowed) and split
    as the text layer splits them: a lone carriage return ends a line too.
    CsvParseError on the first line that is not UTF-8."""
    line = 0
    for raw in fh:
        for part in raw.splitlines(keepends=True) if b"\r" in raw else (raw,):
            line += 1
            try:
                yield part.decode("utf-8-sig" if line == 1 else "utf-8")
            except UnicodeDecodeError:
                raise CsvParseError(line, "", "not UTF-8 text") from None


def _rows(reader):
    """The rows of the CSV ``reader``; CsvParseError for a row it cannot
    split, naming the line it stopped on."""
    try:
        yield from reader
    except csv.Error as exc:
        raise CsvParseError(reader.line_num, "", str(exc)) from None


def _row_values(line, feature_cols, cells):
    """A row's feature ``cells`` as floats; CsvParseError at the first
    cell that ``float()`` cannot read or reads as not finite. The row
    starts on ``line``."""
    try:
        values = list(map(float, cells))
    except ValueError:
        values = None
    if values is None or not math.isfinite(sum(values)):
        # finite values whose sum overflows pass this walk
        for name, cell in zip(feature_cols, cells):
            try:
                value = float(cell)
            except ValueError:
                raise CsvParseError(line, name, f"not a number: {cell!r}") from None
            if not math.isfinite(value):
                raise CsvParseError(line, name, "non-finite value")
    return values


def _header_columns(header, config):
    """The group column's index, the feature columns and their indices
    in ``header``; CsvParseError on line 1 if they do not fit it."""
    repeated = [c for c, count in Counter(header).items() if count > 1]
    if repeated:
        raise CsvParseError(1, repeated[0], "column named more than once")
    if config.group_column not in header:
        raise CsvParseError(1, config.group_column, "group column not in header")
    group_idx = header.index(config.group_column)
    feature_cols = list(config.feature_columns) or [
        c for c in header if c != config.group_column
    ]
    if not feature_cols:
        raise CsvParseError(1, "", "no feature column")
    # such as a written row index (",x,y,g") or a trailing comma ("x,y,g,")
    if "" in feature_cols and not config.feature_columns:
        raise CsvParseError(
            1, "", "unnamed column would be a feature; name it or choose features with --features"
        )
    missing = [c for c in feature_cols if c not in header]
    if missing:
        raise CsvParseError(1, missing[0], "feature column not in header")
    col_idx = [header.index(c) for c in feature_cols]
    return group_idx, feature_cols, col_idx


def load_csv(path: str, config: AnalysisConfig) -> GroupedDataset:
    """Read an RFC-4180 CSV with a header into a GroupedDataset.

    The file is read once, line by line, and each row is checked as it is
    read, so the first defect in file order is raised with its 1-based
    file line: a header that does not fit ``config`` (a UTF-8 byte-order
    mark is ignored, a repeated or unnamed column is rejected), a line
    that is not UTF-8, a row the CSV reader cannot split or of the wrong
    width, a group label outside the A/B/C mapping
    (UnknownGroupLabelError), or a feature cell that ``float()`` cannot
    read or reads as not finite.  The loader holds the values read so far
    and one row of cells as strings.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"input file not found: {path}")
    with open(path, "rb") as fh:
        reader = csv.reader(_decoded_lines(fh))
        rows = _rows(reader)
        header = next(rows, None)
        if header is None:
            raise CsvParseError(1, "", "empty file, header row required")
        group_idx, feature_cols, col_idx = _header_columns(header, config)
        label_map = {v: k for k, v in config.group_order.items()}
        # a getter of one index returns the bare cell, not a 1-tuple
        cells = itemgetter(*col_idx) if len(col_idx) > 1 else lambda row: (row[col_idx[0]],)
        labels, values = [], array("d")
        line = reader.line_num + 1  # the line the next row starts on
        for row in rows:
            if len(row) != len(header):
                raise CsvParseError(line, "", f"expected {len(header)} fields, got {len(row)}")
            label = label_map.get(row[group_idx])
            if label is None:
                raise UnknownGroupLabelError(
                    f"line {line}: group label {row[group_idx]!r} is none of the "
                    f"group_order (--groups) labels {list(label_map)}"
                )
            labels.append(label)
            values.fromlist(_row_values(line, feature_cols, cells(row)))
            line = reader.line_num + 1

    present = set(labels)
    if len(present) < 3:
        absent = [config.group_order[g] for g in GROUPS if g not in present]
        raise FewerThanThreeGroupsError(
            f"groups missing from the data: {absent}"
        )
    return GroupedDataset(
        features=np.frombuffer(values).reshape(-1, len(col_idx)),
        labels=np.array(labels, dtype=object),
        feature_names=tuple(feature_cols),
    )


def run_analysis(config: AnalysisConfig, ds: GroupedDataset) -> tuple:
    """Run the full analysis; returns (report, {level-key: ConfidenceRegion})."""
    work = standardize(ds, config.standardize_mode)
    observed, _ = _observed_triangle(work)
    if math.isnan(observed["gamma"]):
        observed["gamma"] = None

    ens = stratified_bootstrap(work, k=config.boot_k, seed=config.seed)
    n_valid = np.count_nonzero(ens.valid_mask())
    if config.levels and n_valid < _MIN_REGION_REPLICATES:
        warnings.warn(
            f"only {n_valid} valid replicates; the confidence region is coarse",
            stacklevel=2,
        )
    cis = {"tau": {}, "gamma": {}}
    regions = {}
    region_objects = {}
    for level in config.levels:
        key = _level_key(level)
        cis["tau"][key] = list(percentile_ci(ens.tau, level))
        try:
            cis["gamma"][key] = list(percentile_ci(ens.gamma, level))
        except InsufficientDataError:
            cis["gamma"][key] = None
        cr = confidence_region(ens, level)
        region_objects[key] = cr
        regions[key] = {
            "level": level,
            "member_count": int(cr.member_points.shape[0]),
            "depth_threshold": cr.depth_threshold,
            "area": cr.area,
            **region_summary(ens, cr),
        }

    permutation = None
    if config.perm_k > 0:
        if ds.p == 1:
            warnings.warn("p_gamma is decided by rounding: at p = 1 gamma is +-1", stacklevel=2)
        pvals = permutation_test(work, k=config.perm_k, seed=config.seed)
        permutation = {"k": config.perm_k, "p_tau": pvals["p_tau"], "p_gamma": pvals["p_gamma"]}

    report = {
        "versions": {"ibistat": __version__, "report_format": REPORT_FORMAT},
        "config": {
            "input_path": config.input_path,
            "group_column": config.group_column,
            "group_order": {g: config.group_order[g] for g in GROUPS},
            "feature_columns": list(ds.feature_names),
            "standardize": config.standardize_mode,
            "boot_k": config.boot_k,
            "levels": list(config.levels),
            "seed": config.seed,
            "perm_k": config.perm_k,
        },
        "data": {
            "n": ds.n,
            "n_per_group": ds.n_per_group(),
        },
        "observed": observed,
        "confidence_intervals": cis,
        "permutation": permutation,
        "regions": regions,
        "diagnostics": {
            "degenerate_replicates": ens.n_degenerate,
            "gamma_undefined_replicates": ens.n_gamma_undefined,
        },
    }
    return report, region_objects


def _dump(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        # json.dumps(obj, ensure_ascii=False): escapes quotes, backslashes
        # and control characters, and nothing else
        out.append(encode_basestring(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError("reports must not contain NaN or infinity")
        out.append(format(x, ".17g"))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(", ")
            _dump(str(key), out)
            out.append(": ")
            _dump(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(", ")
            _dump(val, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_report(report: dict) -> str:
    """Serialize with fixed field order and 17-significant-digit floats."""
    out: list = []
    _dump(report, out)
    return "".join(out) + "\n"
