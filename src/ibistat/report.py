"""Analysis configuration, CSV ingestion, and the JSON report.

The report serializer is hand-rolled so floats always carry 17
significant digits (lossless round trip) and field order is fixed,
making reports byte-stable for a given (input, config, seed).
"""

from __future__ import annotations

import csv
import math
import os
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring

import numpy as np

from ._version import __version__
from .errors import (
    CsvParseError,
    FewerThanThreeGroupsError,
    UndefinedCosineIBIError,
    UnknownGroupLabelError,
)
from .inference import (
    GROUPS,
    GroupedDataset,
    centroid_configuration,
    confidence_region,
    percentile_ci,
    permutation_test,
    region_summary,
    standardize,
    stratified_bootstrap,
)
from .metrics import cosine_ibi, tau_ibi
from .shape import shape_point, side_lengths

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
        if sorted(self.group_order) != sorted(GROUPS):
            raise ValueError("group_order must map exactly A, B and C")
        if len(set(self.group_order.values())) != 3:
            raise ValueError("group_order must map to three distinct labels")
        if self.boot_k < 3:
            raise ValueError(f"boot_k (--boot) must be >= 3, got {self.boot_k}")
        if not all(0.0 < lv < 1.0 for lv in self.levels):
            raise ValueError("levels must lie in (0, 1)")
        keys = [_level_key(lv) for lv in self.levels]
        if len(set(keys)) != len(keys):
            raise ValueError(
                f"levels {list(self.levels)} share a report key "
                f"({', '.join(keys)}); give each level once"
            )
        if self.perm_k < 0:
            raise ValueError(f"perm_k (--perm) must be >= 0, got {self.perm_k}")
        if self.seed < 0:
            raise ValueError(f"seed (--seed) must be >= 0, got {self.seed}")
        if self.standardize_mode not in ("none", "feature", "whiten"):
            raise ValueError(f"unknown standardize mode {self.standardize_mode!r}")
        object.__setattr__(self, "feature_columns", tuple(self.feature_columns))
        object.__setattr__(self, "levels", tuple(float(lv) for lv in self.levels))


# Rows are read and parsed in blocks of about this many cells, so the
# loader holds the feature matrix plus one block of cells as strings.
_BLOCK_CELLS = 2**14


def _read_rows(reader, count):
    """Up to ``count`` rows of ``reader``, and the CsvParseError of the
    row that stopped it early (None if none did)."""
    rows = []
    try:
        for row in islice(reader, count):
            rows.append(row)
    except csv.Error as exc:
        return rows, CsvParseError(reader.line_num, "", str(exc))
    return rows, None


def _parse_rows(rows, width, group_idx, col_idx, label_map):
    """The group labels and the (rows, features) values of ``rows``, by
    one ``float`` pass over every feature cell and one finiteness check;
    None if any row has the wrong width, an unmapped label, or a cell
    that is not a finite number."""
    if any(len(row) != width for row in rows):
        return None
    try:
        labels = [label_map[row[group_idx]] for row in rows]
        cells = (row[ci] for row in rows for ci in col_idx)
        values = np.fromiter(map(float, cells), dtype=float, count=len(rows) * len(col_idx))
    except (KeyError, ValueError):
        return None
    if not np.isfinite(values).all():
        return None
    return labels, values.reshape(len(rows), len(col_idx))


def _parse_rows_per_cell(rows, first_line, header, group_idx, col_idx, feature_cols, config):
    """``_parse_rows`` row by row and cell by cell, raising at the first
    malformed row or cell with its 1-based line; ``rows[0]`` is on line
    ``first_line``."""
    label_map = {v: k for k, v in config.group_order.items()}
    labels = []
    values = np.empty((len(rows), len(col_idx)))
    for i, row in enumerate(rows):
        line = first_line + i
        if len(row) != len(header):
            raise CsvParseError(line, "", f"expected {len(header)} fields, got {len(row)}")
        raw_label = row[group_idx]
        if raw_label not in label_map:
            raise UnknownGroupLabelError(
                f"line {line}: group label {raw_label!r} not covered by the "
                f"A/B/C mapping {config.group_order}"
            )
        vec = values[i]
        for j, ci in enumerate(col_idx):
            try:
                vec[j] = float(row[ci])
            except ValueError:
                raise CsvParseError(
                    line, feature_cols[j], f"not a number: {row[ci]!r}"
                ) from None
            if not math.isfinite(vec[j]):
                raise CsvParseError(line, feature_cols[j], "non-finite value")
        labels.append(label_map[raw_label])
    return labels, values


def _header_columns(header, config):
    """The group column's index, the feature columns and their indices
    in ``header``; CsvParseError on line 1 if they do not fit it."""
    for names in (header, config.feature_columns):
        repeated = [c for c, count in Counter(names).items() if count > 1]
        if repeated:
            raise CsvParseError(1, repeated[0], "column named more than once")
    if config.group_column not in header:
        raise CsvParseError(1, config.group_column, "group column not in header")
    group_idx = header.index(config.group_column)
    feature_cols = list(config.feature_columns) or [
        c for c in header if c != config.group_column
    ]
    if config.group_column in feature_cols:
        raise CsvParseError(1, config.group_column, "group column cannot be a feature")
    missing = [c for c in feature_cols if c not in header]
    if missing:
        raise CsvParseError(1, missing[0], "feature column not in header")
    col_idx = [header.index(c) for c in feature_cols]
    return group_idx, feature_cols, col_idx


def load_csv(path: str, config: AnalysisConfig) -> GroupedDataset:
    """Read an RFC-4180 CSV with a header into a GroupedDataset.

    The header is checked before any row is read: a UTF-8 byte-order mark
    is ignored, and a column name repeated in the header or in the
    feature list is rejected. Rows are then read and parsed in blocks of
    about ``_BLOCK_CELLS`` cells (at least one row), so the loader holds
    the feature matrix plus one block of cells. The first malformed row
    or cell in file order raises CsvParseError carrying its 1-based file
    line, as does a row the CSV reader cannot split; group labels must be
    covered by the configured A/B/C mapping.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        first, error = _read_rows(reader, 1)
        if error is not None:
            raise error
        if not first:
            raise CsvParseError(1, "", "empty file, header row required")
        header = first[0]

        group_idx, feature_cols, col_idx = _header_columns(header, config)
        label_map = {v: k for k, v in config.group_order.items()}
        block_rows = max(1, _BLOCK_CELLS // len(header))
        labels, blocks = [], []
        line = 2  # the file line of the block's first row
        while True:
            rows, error = _read_rows(reader, block_rows)
            # the per-cell pass reads the same values, and names the first bad cell
            block_labels, block_values = _parse_rows(
                rows, len(header), group_idx, col_idx, label_map
            ) or _parse_rows_per_cell(rows, line, header, group_idx, col_idx, feature_cols, config)
            labels += block_labels
            blocks.append(block_values)
            line += len(rows)
            full = len(rows) == block_rows
            del rows  # free the block's strings before the next is read
            if error is not None:
                raise error
            if not full:
                break
    values = np.concatenate(blocks)
    del blocks  # GroupedDataset copies the matrix again

    present = set(labels)
    if len(present) < 3:
        absent = [config.group_order[g] for g in GROUPS if g not in present]
        raise FewerThanThreeGroupsError(
            f"groups missing from the data: {absent}"
        )
    return GroupedDataset(
        features=values,
        labels=np.array(labels, dtype=object),
        feature_names=tuple(feature_cols),
    )


def _shape_block(cfg) -> dict:
    sp = shape_point(cfg)
    sides = side_lengths(cfg)
    try:
        gamma = cosine_ibi(sides)
    except UndefinedCosineIBIError:
        gamma = None
    return {
        "tau": tau_ibi(sp),
        "gamma": gamma,
        "r": sp.r,
        "phi": sp.phi,
        "u": sp.u,
        "v": sp.v,
        "a2": sides.a2,
        "b2": sides.b2,
        "c2": sides.c2,
    }


def _region_point_block(rp) -> dict:
    return {
        "u": rp.point.u,
        "v": rp.point.v,
        "tau": rp.tau,
        "a2": rp.sides.a2,
        "b2": rp.sides.b2,
        "c2": rp.sides.c2,
        "replicate": rp.replicate,
    }


def run_analysis(config: AnalysisConfig, ds: GroupedDataset) -> tuple:
    """Run the full analysis; returns (report, {level-key: ConfidenceRegion})."""
    work = standardize(ds, config.standardize_mode)
    observed = _shape_block(centroid_configuration(work))

    ens = stratified_bootstrap(work, k=config.boot_k, seed=config.seed)
    cis = {"tau": {}, "gamma": {}}
    regions = {}
    region_objects = {}
    for level in config.levels:
        key = _level_key(level)
        lo, hi = percentile_ci(ens.tau, level)
        cis["tau"][key] = [lo, hi]
        gamma_vals = ens.gamma[np.isfinite(ens.gamma)]
        if gamma_vals.size >= 2:
            lo, hi = percentile_ci(gamma_vals, level)
            cis["gamma"][key] = [lo, hi]
        else:
            cis["gamma"][key] = None
        cr = confidence_region(ens, level)
        region_objects[key] = cr
        summary = region_summary(cr)
        regions[key] = {
            "level": level,
            "member_count": int(cr.member_points.shape[0]),
            "depth_threshold": cr.depth_threshold,
            "area": cr.area,
            "median": _region_point_block(summary.median),
            "max_tau": _region_point_block(summary.max_tau),
            "min_tau": _region_point_block(summary.min_tau),
        }

    permutation = None
    if config.perm_k > 0:
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
