import codecs
import csv
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from ibistat import (
    CsvParseError,
    FewerThanThreeGroupsError,
    UnknownGroupLabelError,
    inference,
)
from ibistat.cli import main
from ibistat.datasets import iris_csv_path
from ibistat.report import (
    AnalysisConfig,
    dumps_report,
    load_csv,
    run_analysis,
)
from ibistat.sampling import sample_grouped_dataset
from ibistat.svgplot import svg_from_report
from _oracles import glyph_count, is_well_formed_xml
from conftest import iris_config


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# CSV loading


def test_load_iris_counts(iris_ds):
    assert iris_ds.n == 150
    assert iris_ds.n_per_group() == {"A": 50, "B": 50, "C": 50}
    assert iris_ds.feature_names == (
        "sepal_length", "sepal_width", "petal_length", "petal_width",
    )


def test_load_csv_two_groups(tmp_path):
    path = write_csv(
        tmp_path / "two.csv",
        "x,grp\n1.0,setosa\n2.0,setosa\n3.0,versicolor\n4.0,versicolor\n",
    )
    cfg = iris_config(input_path=path, group_column="grp")
    with pytest.raises(FewerThanThreeGroupsError):
        load_csv(path, cfg)


def test_load_csv_bad_cell_names_row(tmp_path):
    path = write_csv(
        tmp_path / "bad.csv",
        "x,grp\n1.0,setosa\n2.0,setosa\nNA,versicolor\n4.0,versicolor\n"
        "5.0,virginica\n6.0,virginica\n",
    )
    cfg = iris_config(input_path=path, group_column="grp")
    with pytest.raises(CsvParseError) as err:
        load_csv(path, cfg)
    assert err.value.line == 4
    assert err.value.column == "x"


def write_values_csv(path, values):
    # features x0, x1, ... and group column g, rows labelled a, b, c in turn
    header = ",".join(f"x{j}" for j in range(values.shape[1])) + ",g\n"
    lines = (",".join(map(repr, row)) + f",{'abc'[i % 3]}\n" for i, row in enumerate(values.tolist()))
    return write_csv(path, header + "".join(lines))


def abc_config(path, features=()):
    groups = {"A": "a", "B": "b", "C": "c"}
    return iris_config(features, input_path=path, group_column="g", group_order=groups)


@pytest.mark.parametrize("text, message", [
    ("x,y,g\n1,2,a\n3,4,a\n\n5,6,b\n", "line 4, column '': expected 3 fields, got 0"),
    ("x,y,g\n1,2,a\n3,nan,a\n5,6,b\n", "line 3, column 'y': non-finite value"),
])
def test_load_csv_rejects_blank_line_and_nan_cell(tmp_path, text, message):
    path = write_csv(tmp_path / "bad.csv", text)
    with pytest.raises(CsvParseError) as err:
        load_csv(path, abc_config(path))
    assert str(err.value) == message


def test_load_csv_reads_cells_as_python_float_does(tmp_path):
    # underscores, padding, signed zero, a subnormal and Arabic-Indic
    # digits, as float() reads them
    cells = ["1_000", " 2.5 ", "-0.0", "1e-320", "+3", "16.", "1E3", "\t-7\n", " 1.5 ",
             "\u0661\u0662"]
    lines = "".join(f'"{cell}",{g}\n' for cell, g in zip(cells, "abcabcabca"))
    path = write_csv(tmp_path / "literals.csv", "x,g\n" + lines)
    values = load_csv(path, abc_config(path)).features[:, 0]
    assert values.tobytes() == np.array([float(c) for c in cells]).tobytes()


def test_load_csv_reads_finite_values_whose_sum_overflows(tmp_path):
    # each cell is finite, though the sum of each of the middle rows is not
    text = "x,y,g\n1,2,a\n1e308,1e308,b\n-1.7e308,-1e308,c\n5,6,a\n7,8,b\n9,10,c\n"
    path = write_csv(tmp_path / "big.csv", text)
    ds = load_csv(path, abc_config(path))
    expected = [[1, 2], [1e308, 1e308], [-1.7e308, -1e308], [5, 6], [7, 8], [9, 10]]
    assert ds.features.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("cell, message", [
    ("abc", "line 3, column 'y': not a number: 'abc'"),
    ("nan", "line 3, column 'y': non-finite value"),
    ("inf", "line 3, column 'y': non-finite value"),
    ("-Infinity", "line 3, column 'y': non-finite value"),
    ("1e999", "line 3, column 'y': non-finite value"),
    ("1e400", "line 3, column 'y': non-finite value"),
    ("0x10", "line 3, column 'y': not a number: '0x10'"),
    ("", "line 3, column 'y': not a number: ''"),
    ('"1,5"', "line 3, column 'y': not a number: '1,5'"),
])
def test_load_csv_names_the_first_bad_cell(tmp_path, cell, message):
    # the bad cell comes before a row with an unknown label and one with
    # a missing field, so it is the error reported
    text = f"x,y,g\n1,2,a\n3,{cell},a\n5,6,zzz\n7,b\n8,9,c\n"
    path = write_csv(tmp_path / "bad.csv", text)
    with pytest.raises(CsvParseError) as err:
        load_csv(path, abc_config(path))
    assert str(err.value) == message


def test_load_csv_unknown_label(tmp_path):
    path = write_csv(
        tmp_path / "unknown.csv",
        "x,grp\n1.0,setosa\n2.0,weird\n",
    )
    cfg = iris_config(input_path=path, group_column="grp")
    with pytest.raises(UnknownGroupLabelError):
        load_csv(path, cfg)


def test_load_csv_missing_file():
    with pytest.raises(FileNotFoundError):
        load_csv("/nonexistent/nope.csv", iris_config())


def test_load_csv_rejects_repeated_column_names(tmp_path):
    rows = "1.0,2.0,setosa\n3.0,4.0,versicolor\n5.0,6.0,virginica\n"
    dup = write_csv(tmp_path / "dup.csv", "x,x,grp\n" + rows)
    with pytest.raises(CsvParseError) as err:
        load_csv(dup, iris_config(input_path=dup, group_column="grp"))
    assert (err.value.line, err.value.column) == (1, "x")
    # a column named twice in --features is the options' conflict, not the file's
    with pytest.raises(ValueError, match=r"^feature_columns \(--features\) name 'y' more than once$"):
        iris_config(features=("y", "x", "y"), input_path=dup, group_column="grp")


def test_load_csv_rejects_a_header_without_a_feature_column(tmp_path):
    path = write_csv(tmp_path / "labels.csv", "g\na\nb\nc\na\nb\nc\n")
    with pytest.raises(CsvParseError, match="^line 1, column '': no feature column$"):
        load_csv(path, abc_config(path))


@pytest.mark.parametrize("text", [
    ",x,y,g\n0,1,2,a\n1,3,4,b\n2,5,6,c\n3,7,8,a\n4,9,1,b\n5,2,3,c\n",  # a written row index
    "x,y,g,\n1,2,a,\n3,4,b,\n5,6,c,\n7,8,a,\n9,1,b,\n2,3,c,\n",  # a trailing comma
], ids=["index", "trailing-comma"])
def test_load_csv_rejects_an_unnamed_column_as_a_feature(tmp_path, text):
    path = write_csv(tmp_path / "unnamed.csv", text)
    with pytest.raises(CsvParseError) as err:
        load_csv(path, abc_config(path))
    assert (err.value.line, err.value.column) == (1, "")
    assert "--features" in str(err.value)
    # with the features named, the unnamed column is ignored like any other
    ds = load_csv(path, abc_config(path, features=("x", "y")))
    assert ds.features.tolist() == [[1, 2], [3, 4], [5, 6], [7, 8], [9, 1], [2, 3]]


# ---------------------------------------------------------------------------
# CSV loading: the first defect in file order


def abc_csv(tmp_path, n_rows, replaced=None):
    """A header and ``n_rows`` valid x,y,g rows on lines 2 to n_rows + 1,
    with ``replaced`` mapping a line to the row put there instead."""
    rows = [f"{i},{i + 0.5},{'abc'[i % 3]}" for i in range(n_rows)]
    for line, row in (replaced or {}).items():
        rows[line - 2] = row
    return write_csv(tmp_path / "rows.csv", "x,y,g\n" + "".join(r + "\n" for r in rows))


@pytest.mark.parametrize("line", [2, 4, 5, 7, 9, 13])
@pytest.mark.parametrize("row, message", [
    ("1,oops,a", "column 'y': not a number: 'oops'"),
    ("1,a", "column '': expected 3 fields, got 2"),
])
def test_load_csv_names_the_true_line_of_a_bad_row(tmp_path, line, row, message):
    path = abc_csv(tmp_path, 12, {line: row})
    with pytest.raises(CsvParseError) as err:
        load_csv(path, abc_config(path))
    assert str(err.value) == f"line {line}, {message}"


def test_load_csv_reports_the_first_of_three_bad_rows(tmp_path):
    path = abc_csv(tmp_path, 12, {6: "1,nan,b", 9: "1,oops,c", 10: "1,a"})
    with pytest.raises(CsvParseError) as err:
        load_csv(path, abc_config(path))
    assert str(err.value) == "line 6, column 'y': non-finite value"


def test_load_csv_an_earlier_unknown_label_wins(tmp_path):
    path = abc_csv(tmp_path, 12, {3: "1,2,zzz", 6: "1,oops,c"})
    with pytest.raises(UnknownGroupLabelError, match="^line 3: group label 'zzz'"):
        load_csv(path, abc_config(path))


def test_load_csv_reader_error_comes_in_file_order(tmp_path):
    # a row the CSV reader cannot split names its line like a bad cell,
    # and a bad cell before it is reported first
    long_row = "1," + "2" * (csv.field_size_limit() + 1) + ",a"
    limit = f"field larger than field limit ({csv.field_size_limit()})"
    path = abc_csv(tmp_path, 12, {7: long_row})
    with pytest.raises(CsvParseError, match=rf"^line 7, column '': {re.escape(limit)}$"):
        load_csv(path, abc_config(path))
    path = abc_csv(tmp_path, 12, {6: "1,oops,c", 7: long_row})
    with pytest.raises(CsvParseError, match="^line 6, column 'y'"):
        load_csv(path, abc_config(path))


@pytest.mark.parametrize("later", [
    "1,oops,b",  # a bad number
    "1,2,zzz",  # an unknown label
    "1,2",  # a row of the wrong width
    "1,2,\udce9",  # bytes that are not UTF-8
])
def test_load_csv_non_finite_value_comes_before_a_later_defect(tmp_path, later):
    # each row is checked as it is read, so a non-finite value is
    # reported before any defect on a later line
    text = "x,y,g\n1,2,a\n3,inf,b\n5,6,c\n" + later + "\n7,8,a\n"
    path = tmp_path / "inf.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(CsvParseError, match="^line 3, column 'y': non-finite value$"):
        load_csv(str(path), abc_config(str(path)))


def test_load_csv_non_finite_value_comes_before_a_bad_cell_of_its_row(tmp_path):
    path = write_csv(tmp_path / "row.csv", "x,y,z,g\n1,2,3,a\n4,-inf,oops,b\n")
    with pytest.raises(CsvParseError, match="^line 3, column 'y': non-finite value$"):
        load_csv(path, abc_config(path))


@pytest.mark.parametrize("data, message", [
    # the header does not name the group column g
    (b"x,y,h\n1,2,a\n3,4,b\n5,6,c\n7,\xff8,a\n", "line 1, column 'g': group column not in header"),
    (b"x,y,g\n1,2,a\n3,abc,b\n5,6,c\n7,\xff8,a\n", "line 3, column 'y': not a number: 'abc'"),
], ids=["header", "number"])
def test_load_csv_defect_comes_before_later_bytes_that_are_not_utf8(tmp_path, data, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(CsvParseError) as err:
        load_csv(str(path), abc_config(str(path)))
    assert str(err.value) == message


def test_load_csv_bad_cell_comes_before_bad_bytes_in_the_same_chunk(tmp_path):
    # past 3,000 good rows, a bad cell on line 3002 and bad bytes on line
    # 3013, both in one 8 KiB chunk of the file
    text = Path(abc_csv(tmp_path, 3020, {3002: "1,oops,a"})).read_bytes()
    lines = text.splitlines(keepends=True)
    lines[3012] = lines[3012].replace(b",", b",\xe9", 1)
    assert sum(map(len, lines[:3001])) // 8192 == sum(map(len, lines[:3012])) // 8192
    path = tmp_path / "late.csv"
    path.write_bytes(b"".join(lines))
    with pytest.raises(CsvParseError, match="^line 3002, column 'y': not a number: 'oops'$"):
        load_csv(str(path), abc_config(str(path)))


# the quoted cell holding a newline makes the first row span lines 2 and 3
SPANNING_CSV = 'x,note,g\n1,"a\nb",a\n2,ok,b\n3,ok,c\n{row}\n'


@pytest.mark.parametrize("row, message", [
    ("zz,ok,a", "line 6, column 'x': not a number: 'zz'"),
    ("4,a", "line 6, column '': expected 3 fields, got 2"),
    ("-nan,ok,a", "line 6, column 'x': non-finite value"),
])
def test_load_csv_names_the_line_a_row_starts_on_after_a_spanning_cell(tmp_path, row, message):
    path = write_csv(tmp_path / "spanning.csv", SPANNING_CSV.format(row=row))
    with pytest.raises(CsvParseError) as err:
        load_csv(path, abc_config(path, features=("x",)))
    assert str(err.value) == message


def test_load_csv_header_error_comes_before_any_row(tmp_path):
    long_row = "1," + "2" * (csv.field_size_limit() + 1) + ",a"
    path = write_csv(tmp_path / "both.csv", "x,y,h\n" + long_row + "\n")
    with pytest.raises(CsvParseError, match="^line 1, column 'g': group column not in header$"):
        load_csv(path, abc_config(path))


def test_analyze_reports_a_row_the_csv_reader_cannot_split(tmp_path, capsys):
    path = write_csv(tmp_path / "long.csv", "x,g\n1,a\n" + "1" * 140_000 + ",b\n")
    code = main(["analyze", "--input", path, "--group-col", "g", "--groups", "A=a,B=b,C=c"])
    assert code == 1
    assert capsys.readouterr().err == (
        "ibistat: error: line 3, column '': field larger than field limit "
        f"({csv.field_size_limit()})\n"
    )


def test_analyze_names_the_line_that_is_not_utf8(tmp_path, capsys):
    # the byte lies past 16 KiB: the decoder's own position counts from
    # the start of the 8 KiB chunk it was decoding, not of the file
    lines = [b"x,y,g\n"] + [f"{i % 97 / 10},{i % 89 / 10},{'abc'[i % 3]}\n".encode()
                            for i in range(3000)]
    lines[2000] = lines[2000].replace(b",b", b",\xe9")
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"".join(lines))
    assert len(lines) == 3001 and sum(map(len, lines[:2000])) > 2 * 8192
    code = main(["analyze", "--input", str(path), "--group-col", "g", "--groups", "A=a,B=b,C=c"])
    assert code == 1
    assert capsys.readouterr().err == "ibistat: error: line 2001, column '': not UTF-8 text\n"


@pytest.mark.parametrize("data, line", [
    (b"x\xff,g\n1,a\n", 1),
    (b"\xef\xbb\xbfx,g\n1,a\n2,\xe9\n", 3),  # a byte-order mark is no error
    (b"x,g\r\n1,a\r\n2,\xe9\r\n", 3),
    (b"x,g\r1,a\r2,\xe9\r", 3),  # a lone carriage return ends a line
], ids=["header", "bom", "crlf", "cr"])
def test_load_csv_names_the_first_line_that_is_not_utf8(tmp_path, data, line):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(CsvParseError, match=f"^line {line}, column '': not UTF-8 text$"):
        load_csv(str(path), abc_config(str(path)))


QUOTED_CSV = (
    'x,note,y,g\n'
    '"1.5","one, two",2,a\n'
    '" 2 ","line\nbreak","-0.0",b\n'
    '3e1,"say ""hi""",4,"c"\n'
    '"4_0","",5.25,a\n'
    '5,x,"6",b\n'
    '-6,"a,b,c",7,c\n'
    '7,,1e-320,"a"\n'
)


def test_load_csv_reads_quoted_cells(tmp_path):
    quoted = write_csv(tmp_path / "quoted.csv", QUOTED_CSV)
    ds = load_csv(quoted, abc_config(quoted, features=("x", "y")))
    assert ds.n == 7
    expected = [[1.5, 2], [2, -0.0], [30, 4], [40, 5.25], [5, 6], [-6, 7], [7, 1e-320]]
    assert ds.features.tobytes() == np.array(expected).tobytes()
    assert ds.labels.tolist() == ["A", "B", "C", "A", "B", "C", "A"]


@pytest.mark.parametrize("rows, features", [(20_000, 16), (200, 2_000)])
def test_load_csv_memory_stays_bounded(tmp_path, rows, features):
    # a long and a wide file; holding every cell as a string until the
    # whole file is parsed peaks at about 12 times the matrix
    values = np.random.default_rng(5).normal(size=(rows, features))
    path = write_values_csv(tmp_path / "big.csv", values)
    cfg = abc_config(path)
    tracemalloc.start()
    try:
        ds = load_csv(path, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.tobytes() == values.tobytes()
    # the values read and the dataset's copy of them
    assert peak < 2.5 * ds.features.nbytes + 2**21


# ---------------------------------------------------------------------------
# analyze command


def run_analyze(tmp_path, name, *extra):
    report = tmp_path / f"{name}.json"
    args = [
        "analyze",
        "--input", iris_csv_path(),
        "--group-col", "species",
        "--groups", "A=setosa,B=versicolor,C=virginica",
        "--boot", "400",
        "--seed", "7",
        "--report", str(report),
        *extra,
    ]
    assert main(args) == 0
    return report.read_bytes()


def test_analyze_report_consistency(tmp_path, iris_ds):
    raw = run_analyze(tmp_path, "report")
    report = json.loads(raw)
    obs = report["observed"]
    # internal consistency of the observed block
    assert abs(obs["tau"] - (3 * obs["b2"] - 1)) <= 1e-9
    assert abs(obs["u"] - obs["r"] * math.cos(obs["phi"])) <= 1e-12
    assert abs(obs["u"] ** 2 + obs["v"] ** 2 - obs["r"] ** 2) <= 1e-12
    # observed values match direct library calls
    from ibistat import observed_ibi

    pair = observed_ibi(iris_ds, mode="feature")
    assert abs(obs["tau"] - pair.tau) <= 1e-12
    assert abs(obs["gamma"] - pair.gamma) <= 1e-12
    # every CI brackets the bootstrap median
    from ibistat import standardize, stratified_bootstrap

    ens = stratified_bootstrap(standardize(iris_ds, "feature"), k=400, seed=7)
    med_tau = float(np.median(ens.tau))
    med_gamma = float(np.median(ens.gamma[np.isfinite(ens.gamma)]))
    for level, (lo, hi) in report["confidence_intervals"]["tau"].items():
        assert lo <= med_tau <= hi
    for level, (lo, hi) in report["confidence_intervals"]["gamma"].items():
        assert lo <= med_gamma <= hi
    assert report["diagnostics"]["degenerate_replicates"] == 0


def test_report_config_echoes_every_config_field(iris_ds):
    import dataclasses

    from ibistat.report import AnalysisConfig

    report, _ = run_analysis(iris_config(), iris_ds)
    names = {f.name for f in dataclasses.fields(AnalysisConfig)}
    echoed = {"standardize_mode" if k == "standardize" else k for k in report["config"]}
    assert names == echoed


def test_analyze_byte_identical_reruns(tmp_path):
    a = run_analyze(tmp_path, "a")
    b = run_analyze(tmp_path, "b")
    assert a == b


def test_analyze_without_report_writes_it_to_stdout(tmp_path, capsysbinary):
    report = run_analyze(tmp_path, "file")
    capsysbinary.readouterr()
    args = [
        "analyze", "--input", iris_csv_path(), "--group-col", "species",
        "--groups", "A=setosa,B=versicolor,C=virginica", "--boot", "400", "--seed", "7",
    ]
    assert main(args) == 0
    assert capsysbinary.readouterr().out == report


def test_analyze_thread_count_invariance(tmp_path, monkeypatch):
    a = run_analyze(tmp_path, "t1", "--threads", "1")
    b = run_analyze(tmp_path, "t8", "--threads", "8")
    assert a == b
    # --threads has no effect; what varies is the number of resampling
    # workers, given several chunks of at most 50 iris replicates
    one_chunk = run_analyze(tmp_path, "one-chunk", "--perm", "200")
    monkeypatch.setattr(inference, "_CHUNK_VALUES", 50 * inference._replicate_values(150, 4))
    for workers in (1, 2):
        monkeypatch.setattr(inference, "_usable_cpus", lambda w=workers: w)
        assert run_analyze(tmp_path, f"w{workers}", "--perm", "200") == one_chunk


def test_whiten_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # whiten's matrix products go through BLAS; at 4500 rows of 16
    # features OpenBLAS would split (x - mean) @ w over two threads (it
    # splits a product from 2^20 multiply-adds; at 1500 rows none of
    # whiten's products reach that).  whiten runs them on the calling
    # thread, and the report must not depend on the count either way
    rng = np.random.default_rng(17)
    values = rng.normal(size=(4500, 16)) @ rng.normal(size=(16, 16))
    path = write_values_csv(tmp_path / "wide.csv", values)
    src = str(Path(inference.__file__).parents[1])
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-m", "ibistat.cli", "analyze", "--input", path, "--group-col", "g",
             "--groups", "A=a,B=b,C=c", "--standardize", "whiten", "--boot", "100", "--seed", "3"],
            env=env, capture_output=True, check=True,
        )
        reports.append(run.stdout)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["config"]["standardize"] == "whiten"


def fresh_python(*args):
    # a new interpreter that imports this checkout's ibistat
    src = str(Path(inference.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)


def test_coarse_region_warning_is_printed_once(tmp_path):
    # run_analysis decides once per run, not once per level
    run = fresh_python(
        "-m", "ibistat.cli", "analyze", "--input", iris_csv_path(), "--group-col", "species",
        "--groups", "A=setosa,B=versicolor,C=virginica", "--boot", "50",
        "--levels", "0.8,0.95", "--report", str(tmp_path / "r.json"),
    )
    lines = run.stderr.splitlines()
    assert sum("UserWarning: only 50 valid replicates" in line for line in lines) == 1, run.stderr


def test_p_gamma_rounding_warning_is_printed_once_at_p_1(tmp_path):
    # one feature: gamma is +-1 on every relabelling, so rounding decides p_gamma
    report = tmp_path / "r.json"
    run = fresh_python(
        "-m", "ibistat.cli", "analyze", "--input", iris_csv_path(), "--group-col", "species",
        "--groups", "A=setosa,B=versicolor,C=virginica", "--features", "petal_length",
        "--boot", "200", "--perm", "50", "--report", str(report),
    )
    lines = run.stderr.splitlines()
    assert sum("UserWarning: p_gamma is decided by rounding" in line for line in lines) == 1, run.stderr
    assert run.stdout == ""
    assert json.loads(report.read_text())["permutation"]["k"] == 50


def test_coverage_simulation_keeps_the_once_per_location_registry():
    # a warning shown once must stay shown once: changing the warning
    # filters, even inside catch_warnings, makes every location warn again
    # (scipy.spatial is imported first, since importing it does the same)
    run = fresh_python("-c", "\n".join([
        "import warnings, scipy.spatial",
        "from ibistat import coverage_simulation",
        "for _ in range(2):",
        "    warnings.warn('an unrelated note')",
        "    coverage_simulation(r=0.5, phi=1.0, p=2, n_per_group=30, sigma2=1.0,",
        "                        n_sims=1, k=200, seed=0)",
    ]))
    assert run.stderr.count("UserWarning: an unrelated note") == 1, run.stderr


def test_importing_the_command_line_loads_no_scipy():
    run = fresh_python("-c", "import sys, ibistat, ibistat.cli; print('scipy' in sys.modules)")
    assert run.stdout.strip() == "False"


def test_analyze_feature_subset_and_modes(tmp_path):
    raw = run_analyze(
        tmp_path, "subset", "--features", "sepal_length,sepal_width",
        "--standardize", "none",
    )
    report = json.loads(raw)
    assert report["config"]["feature_columns"] == ["sepal_length", "sepal_width"]
    assert abs(report["observed"]["tau"] - 0.817) <= 0.002
    assert abs(report["observed"]["r"] - 0.877) <= 0.002


def test_analyze_observed_goldens(tmp_path):
    # all four features, no scaling: the tau reference value; 50
    # replicates make coarse regions
    with pytest.warns(UserWarning, match="the confidence region is coarse"):
        raw = run_analyze(tmp_path, "g1", "--standardize", "none", "--boot", "50")
    assert abs(json.loads(raw)["observed"]["tau"] - 0.909) <= 0.002
    # sepal pair, unit-variance scaling: the gamma reference value
    with pytest.warns(UserWarning, match="the confidence region is coarse"):
        raw = run_analyze(
            tmp_path, "g2", "--features", "sepal_length,sepal_width", "--boot", "50"
        )
    assert abs(json.loads(raw)["observed"]["gamma"] - 0.103) <= 0.002


def test_analyze_whiten_mode(tmp_path):
    raw = run_analyze(tmp_path, "whiten", "--standardize", "whiten", "--boot", "150")
    report = json.loads(raw)
    assert report["config"]["standardize"] == "whiten"
    obs = report["observed"]
    assert -1.0 <= obs["tau"] <= 1.0
    assert abs(obs["u"] ** 2 + obs["v"] ** 2 - obs["r"] ** 2) <= 1e-12


def test_analyze_permutation_block(tmp_path):
    raw = run_analyze(tmp_path, "perm", "--perm", "99")
    report = json.loads(raw)
    assert report["permutation"]["k"] == 99
    assert 0.0 < report["permutation"]["p_tau"] <= 1.0
    assert 0.0 < report["permutation"]["p_gamma"] <= 1.0
    # p-values are multiples of 1/(K+1) under the +1 convention
    assert round(report["permutation"]["p_tau"] * 100) == pytest.approx(
        report["permutation"]["p_tau"] * 100
    )


def test_analyze_svg_output(tmp_path):
    plot = tmp_path / "plot.svg"
    run_analyze(tmp_path, "withplot", "--plot", str(plot))
    svg = plot.read_text()
    assert is_well_formed_xml(svg)
    assert glyph_count(svg) == 4  # observed, median, max tau, min tau
    assert "stroke-dasharray" in svg  # the half-radius guide circle
    assert svg.count("<circle") > 400  # region member points drawn


def test_analyze_report_escapes_control_characters_in_names(tmp_path):
    names = ["tab\there", "new\nline", 'say "hi"\\']
    header = ",".join('"' + n.replace('"', '""') + '"' for n in names) + ",g\n"
    rows = "".join(f"{i},{i * i % 7},{i % 5},{'abc'[i % 3]}\n" for i in range(12))
    path = write_csv(tmp_path / "odd.csv", header + rows)
    report = tmp_path / "r.json"
    plot = tmp_path / "r.svg"
    assert main([
        "analyze", "--input", path, "--group-col", "g", "--groups", "A=a,B=b,C=c",
        "--boot", "100", "--report", str(report), "--plot", str(plot),
    ]) == 0
    text = report.read_text(encoding="utf-8")
    assert "\t" not in text and "\n" not in text.rstrip("\n")
    assert json.loads(text)["config"]["feature_columns"] == names
    assert is_well_formed_xml(plot.read_text(encoding="utf-8"))


def test_analyze_svg_replaces_characters_xml_forbids(tmp_path):
    header = '"a\x01b","c\ufffed",g\n'
    rows = "".join(f"{i},{i * i % 7},{'abc'[i % 3]}\n" for i in range(12))
    path = write_csv(tmp_path / "ctl.csv", header + rows)
    plot = tmp_path / "ctl.svg"
    assert main([
        "analyze", "--input", path, "--group-col", "g", "--groups", "A=a,B=b,C=c",
        "--boot", "100", "--report", str(tmp_path / "ctl.json"), "--plot", str(plot),
    ]) == 0
    svg = plot.read_text(encoding="utf-8")
    assert is_well_formed_xml(svg)
    title = ET.fromstring(svg).find("{http://www.w3.org/2000/svg}text")
    assert title.text == "shape space: a\ufffdb, c\ufffdd"


def test_report_strings_escape_like_json():
    for s in ["plain", 'q"uote\\', "caf\u00e9 \u2028", "".join(map(chr, range(0x20)))]:
        assert dumps_report([s]) == json.dumps([s], ensure_ascii=False) + "\n"


def test_svg_escapes_markup_in_feature_names():
    report = {
        "config": {"feature_columns": ["a<b", "c&d"]},
        "observed": {"u": 0.3, "v": 0.4, "a2": 0.3, "b2": 0.4, "c2": 0.3},
        "regions": {},
    }
    svg = svg_from_report(report, {})
    assert is_well_formed_xml(svg)
    title = ET.fromstring(svg).find("{http://www.w3.org/2000/svg}text")
    assert title.text == "shape space: a<b, c&d"


def test_svg_draws_the_glyph_of_a_shape_with_a_and_b_coincident():
    report = {
        "config": {"feature_columns": ["x", "y"]},
        "observed": {"u": -0.5, "v": 0.8660254037844386, "a2": 0.5, "b2": 0.5, "c2": 0.0},
        "regions": {},
    }
    svg = svg_from_report(report, {})
    assert is_well_formed_xml(svg) and glyph_count(svg) == 1
    ns = {"svg": "http://www.w3.org/2000/svg"}
    glyph = ET.fromstring(svg).find("svg:g[@id='glyph-observed']", ns)
    points = glyph.find("svg:polygon", ns).get("points").split()
    # A and B share one vertex; C lies apart
    assert len(points) == 3 and points[0] == points[1] != points[2]


def test_svg_without_regions_draws_disk_and_observed(iris_ds):
    report, regions = run_analysis(iris_config(boot_k=50, levels=()), iris_ds)
    assert report["regions"] == {} and regions == {}
    svg = svg_from_report(report, regions)
    assert is_well_formed_xml(svg)
    assert 'id="marker-observed"' in svg
    assert glyph_count(svg) == 1  # only the observed triangle glyph
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")


def test_analyze_ignores_utf8_bom(tmp_path, monkeypatch):
    plain = Path(iris_csv_path()).read_bytes()
    reports = []
    for name, data in (("plain", plain), ("bom", codecs.BOM_UTF8 + plain)):
        work = tmp_path / name
        work.mkdir()
        (work / "iris.csv").write_bytes(data)
        monkeypatch.chdir(work)  # the report echoes the relative --input
        assert main([
            "analyze", "--input", "iris.csv", "--group-col", "species",
            "--groups", "A=setosa,B=versicolor,C=virginica",
            "--boot", "200", "--seed", "3", "--report", "report.json",
        ]) == 0
        reports.append((work / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_analyze_missing_file_exit_code(tmp_path, capsys):
    code = main([
        "analyze", "--input", "/nope.csv", "--group-col", "species",
        "--groups", "A=a,B=b,C=c",
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["analyze", "--input", "{dir}", "--group-col", "species", "--groups", "A=a,B=b,C=c"],
    ["analyze", "--input", iris_csv_path(), "--group-col", "species",
     "--groups", "A=setosa,B=versicolor,C=virginica", "--boot", "100", "--report", "{dir}"],
    ["simulate", "--r", "0.5", "--phi", "1", "--p", "2", "--n", "20", "--sigma2", "1",
     "--sims", "1", "--boot", "100", "--out", "{dir}"],
], ids=["analyze-input", "analyze-report", "simulate-out"])
def test_a_directory_path_is_an_error_not_a_traceback(tmp_path, capsys, command):
    code = main([arg.format(dir=tmp_path) for arg in command])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ibistat: error:") and str(tmp_path) in err


def never_reached(monkeypatch):
    # the work each command would do, made to fail if it were started
    def fail(*args, **kwargs):
        raise AssertionError("the run started before its output paths were checked")

    monkeypatch.setattr("ibistat.cli.load_csv", fail)
    monkeypatch.setattr("ibistat.report.stratified_bootstrap", fail)
    monkeypatch.setattr("ibistat.cli.coverage_simulation", fail)


ANALYZE_IRIS = ["analyze", "--input", iris_csv_path(), "--group-col", "species",
                "--groups", "A=setosa,B=versicolor,C=virginica", "--boot", "20000"]
SIMULATE = ["simulate", "--r", "0.5", "--phi", "1", "--p", "2", "--n", "20",
            "--sigma2", "1", "--sims", "1", "--boot", "100"]


@pytest.mark.parametrize("command, path", [
    (ANALYZE_IRIS + ["--report", "{dir}"], "{dir}"),
    (ANALYZE_IRIS + ["--plot", "{dir}"], "{dir}"),
    (ANALYZE_IRIS + ["--report", "{dir}/missing/r.json"], "{dir}/missing/r.json"),
    (ANALYZE_IRIS + ["--plot", "{dir}/missing/x.svg"], "{dir}/missing/x.svg"),
    (SIMULATE + ["--out", "{dir}"], "{dir}"),
    (SIMULATE + ["--out", "{dir}/missing/row.csv"], "{dir}/missing/row.csv"),
], ids=["report-dir", "plot-dir", "report-missing-dir", "plot-missing-dir",
        "out-dir", "out-missing-dir"])
def test_output_paths_are_checked_before_the_work(tmp_path, capsys, monkeypatch, command, path):
    never_reached(monkeypatch)
    code = main([arg.format(dir=tmp_path) for arg in command])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ibistat: error:") and path.format(dir=tmp_path) in err


def test_an_unwritable_output_path_is_an_error_before_the_work(tmp_path, capsys, monkeypatch):
    # os.access decides, which grants root every file: deny it here
    never_reached(monkeypatch)
    monkeypatch.setattr("ibistat.cli.os.access", lambda path, mode: False)
    report = tmp_path / "r.json"
    assert main(ANALYZE_IRIS + ["--report", str(report)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Permission denied" in err and str(report) in err


def test_a_failed_output_check_leaves_an_existing_report_untouched(tmp_path, capsys, monkeypatch):
    never_reached(monkeypatch)
    report = tmp_path / "r.json"
    report.write_text("earlier run\n", encoding="utf-8")
    plot = tmp_path / "missing" / "x.svg"
    code = main(ANALYZE_IRIS + ["--report", str(report), "--plot", str(plot)])
    assert code == 1
    assert str(plot) in capsys.readouterr().err
    assert report.read_text(encoding="utf-8") == "earlier run\n"
    assert not plot.parent.exists()


@pytest.mark.parametrize("report, plot", [
    ("d.csv", ""), ("", "d.csv"), ("x.out", "x.out"), ("x.out", "./sub/../x.out"),
    ("link.csv", ""), ("", "hard.csv"),
], ids=["report-is-input", "plot-is-input", "report-is-plot", "report-is-plot-spelled-apart",
        "report-links-to-input", "plot-hard-links-to-input"])
def test_analyze_rejects_paths_that_name_one_file(tmp_path, capsys, monkeypatch, report, plot):
    never_reached(monkeypatch)
    monkeypatch.chdir(tmp_path)
    shutil.copy(iris_csv_path(), "d.csv")
    os.symlink("d.csv", "link.csv")
    os.link("d.csv", "hard.csv")
    os.mkdir("sub")
    args = ["analyze", "--input", "d.csv", "--group-col", "species",
            "--groups", "A=setosa,B=versicolor,C=virginica", "--boot", "100"]
    args += ["--report", report] * bool(report) + ["--plot", plot] * bool(plot)
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == "" and "name the same file" in err
    assert Path("d.csv").read_bytes() == Path(iris_csv_path()).read_bytes()
    assert sorted(os.listdir()) == ["d.csv", "hard.csv", "link.csv", "sub"]


def test_analyze_rejects_zero_threads():
    with pytest.raises(SystemExit):
        main([
            "analyze", "--input", iris_csv_path(), "--group-col", "species",
            "--groups", "A=setosa,B=versicolor,C=virginica", "--threads", "0",
        ])


@pytest.mark.parametrize("levels", ["0.95,0.95", "0.95,0.9500001"])
def test_analyze_rejects_levels_sharing_a_report_key(tmp_path, capsys, levels):
    report = tmp_path / "r.json"
    code = main([
        "analyze", "--input", iris_csv_path(), "--group-col", "species",
        "--groups", "A=setosa,B=versicolor,C=virginica", "--boot", "50",
        "--levels", levels, "--report", str(report),
    ])
    assert code == 1
    assert "share a report key" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("option, field", [("--perm", "perm_k"), ("--seed", "seed")])
def test_analyze_rejects_negative_counts(tmp_path, capsys, option, field):
    report = tmp_path / "r.json"
    code = main([
        "analyze", "--input", iris_csv_path(), "--group-col", "species",
        "--groups", "A=setosa,B=versicolor,C=virginica", "--boot", "50",
        option, "-1", "--report", str(report),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert option in err and field in err
    assert not report.exists()


@pytest.mark.parametrize("boot", ["0", "1", "2"])
def test_analyze_rejects_zero_boot(tmp_path, capsys, boot):
    code = main([
        "analyze", "--input", iris_csv_path(), "--group-col", "species",
        "--groups", "A=setosa,B=versicolor,C=virginica", "--boot", boot,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ibistat: error:") and "(--boot) must be >= 3" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", "missing.csv", "--group-col", "species",
     "--groups", "A=setosa,B=versicolor,C=virginica", "--boot", "200", "--perm", "4294967297"],
    ["analyze", "--input", "missing.csv", "--group-col", "species",
     "--groups", "A=setosa,B=versicolor,C=virginica", "--boot", "4294967297"],
    ["simulate", "--r", "0.5", "--phi", "1.0", "--p", "2", "--n", "10", "--sigma2", "1.0",
     "--sims", "1", "--boot", "4294967297"],
], ids=["analyze-perm", "analyze-boot", "simulate-boot"])
def test_counts_above_the_stream_limit_fail_before_any_work(capsys, monkeypatch, argv):
    # one seed keys 2^32 streams per domain; a larger count is refused
    # before the input is read or a replicate drawn
    from ibistat import inference, report

    def never(*args, **kwargs):
        raise AssertionError("reached")

    for module in (inference, report):
        monkeypatch.setattr(module, "stratified_bootstrap", never)
    monkeypatch.setattr("ibistat.cli.load_csv", never)
    assert main(argv) == 1
    option = argv[-2]
    err = capsys.readouterr().err
    assert err.startswith("ibistat: error:")
    assert f"({option}) must be at most 2**32, got 4294967297" in err


def test_input_name_that_is_not_utf8_fails_before_the_report_is_touched(tmp_path, capsys, monkeypatch):
    # the report echoes --input as UTF-8 text; a name holding the byte 0xFF
    # arrives as a surrogate escape, which has none, so the run stops
    # before reading anything and leaves an existing report as it was
    def never(*args, **kwargs):
        raise AssertionError("reached")

    monkeypatch.setattr("ibistat.cli.load_csv", never)
    report = tmp_path / "rep.json"
    report.write_bytes(b'{"kept": true}\n')
    name = os.fsdecode(b"in\xff.csv")
    assert main([
        "analyze", "--input", name, "--group-col", "species",
        "--groups", "A=setosa,B=versicolor,C=virginica", "--report", str(report),
    ]) == 1
    assert report.read_bytes() == b'{"kept": true}\n'
    err = capsys.readouterr().err
    assert err.startswith("ibistat: error:") and "(--input) is not valid UTF-8" in err


@pytest.mark.parametrize("features, message", [
    ("petal_length,petal_length", "feature_columns (--features) name 'petal_length' more than once"),
    ("sepal_width,species", "feature_columns (--features) name --group-col 'species'"),
], ids=["repeated", "group-column"])
def test_analyze_features_conflicts_fail_before_the_input_is_read(tmp_path, capsys, features, message):
    # both are conflicts between options, known without the file
    code = main([
        "analyze", "--input", str(tmp_path / "missing.csv"), "--group-col", "species",
        "--groups", "A=setosa,B=versicolor,C=virginica", "--features", features,
    ])
    assert code == 1
    assert capsys.readouterr().err == f"ibistat: error: {message}\n"


@pytest.mark.parametrize("features", ["petal_length,,sepal_width,", ",petal_length", "petal_length,"])
def test_analyze_rejects_an_empty_feature_name(capsys, features):
    with pytest.raises(SystemExit) as exit_:
        main([
            "analyze", "--input", iris_csv_path(), "--group-col", "species",
            "--groups", "A=setosa,B=versicolor,C=virginica", "--features", features,
        ])
    assert exit_.value.code == 2
    assert f"argument --features: empty column name in {features!r}" in capsys.readouterr().err


def test_analyze_empty_features_means_every_column(tmp_path):
    assert run_analyze(tmp_path, "all", "--features", "") == run_analyze(tmp_path, "default")


def test_analyze_groups_of_size_two(tmp_path):
    path = write_csv(
        tmp_path / "two.csv",
        "x,y,g\n0.0,0.1,a\n1.0,0.3,a\n2.0,1.1,b\n3.2,0.4,b\n5.0,2.0,c\n4.1,0.2,c\n",
    )
    report = tmp_path / "r.json"
    code = main([
        "analyze", "--input", path, "--group-col", "g", "--groups", "A=a,B=b,C=c",
        "--boot", "200", "--perm", "100", "--report", str(report),
    ])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["data"]["n_per_group"] == {"A": 2, "B": 2, "C": 2}


def test_analyze_coincident_landmarks_is_an_error(tmp_path, capsys):
    # all three group means are (0.5, 0.5): the shape is undefined
    path = write_csv(tmp_path / "same.csv", "x,y,g\n0,0,a\n1,1,a\n0,0,b\n1,1,b\n1,1,c\n0,0,c\n")
    report = tmp_path / "r.json"
    code = main([
        "analyze", "--input", path, "--group-col", "g", "--groups", "A=a,B=b,C=c",
        "--boot", "50", "--report", str(report),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ibistat: error:") and "Traceback" not in err
    assert not report.exists()


def test_analyze_b_centroid_on_a_leaves_gamma_undefined(tmp_path):
    # B's centroid (1, 0) is A's: the cosine index is undefined
    path = write_csv(tmp_path / "ba.csv", "x,y,g\n0,0,a\n2,0,a\n1,1,b\n1,-1,b\n5,5,c\n7,5,c\n")
    report = tmp_path / "r.json"
    code = main([
        "analyze", "--input", path, "--group-col", "g", "--groups", "A=a,B=b,C=c",
        "--standardize", "none", "--boot", "100", "--perm", "50", "--report", str(report),
    ])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["observed"]["gamma"] is None
    assert data["permutation"]["p_gamma"] == 1.0


@pytest.mark.parametrize("rows", [
    # the group sum overflows
    "1e308,1,a\n1.0000001e308,2,a\n1,3,b\n2,1,b\n3,5,c\n4,2,c\n",
    # resampled squared sides overflow: most replicates would be NaN
    "1e308,1,a\n-1e308,2,a\n0,4,a\n1,3,b\n2,1,b\n3,4,b\n3,5,c\n4,2,c\n5,1,c\n",
])
def test_analyze_unstandardized_overflow_names_the_feature(tmp_path, capsys, rows):
    path = write_csv(tmp_path / "big.csv", "x,y,g\n" + rows)
    report = tmp_path / "r.json"
    code = main([
        "analyze", "--input", path, "--group-col", "g", "--groups", "A=a,B=b,C=c",
        "--standardize", "none", "--boot", "200", "--report", str(report),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ibistat: error:") and "['x']" in err and "'y'" not in err
    assert not report.exists()


def test_analyze_unstandardized_below_overflow_bound_runs_clean(tmp_path):
    # p = 2 bounds |value| by sqrt(max float / 24) = 2.74e153
    m = "2.6e153"
    path = write_csv(
        tmp_path / "big.csv",
        f"x,y,g\n{m},1,a\n{m},2,a\n{m},4,a\n1,3,b\n2,1,b\n3,4,b\n"
        f"-{m},5,c\n-{m},2,c\n-{m},1,c\n",
    )
    report = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "analyze", "--input", path, "--group-col", "g", "--groups", "A=a,B=b,C=c",
            "--standardize", "none", "--boot", "200", "--report", str(report),
        ])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["diagnostics"]["degenerate_replicates"] == 0


# sha256 of the report and SVG of two iris runs; the input path is echoed
# in the report, so it is given relative to the working directory
PINNED_RUNS = [
    (["--boot", "300", "--perm", "100", "--levels", "0.5,0.8,0.9,0.95,0.99", "--seed", "4"],
     "c7f69255b1f2fd3a1de66201767c433cbcbc6e051b7275a89398d75093e4c426",
     "f4353089919e8a800b5e3047f4cb571e197c8428c838c0c326d7a19c6164befc"),
    (["--features", "petal_length", "--boot", "300", "--seed", "4"],
     "f3efce396ca1b614b51ca3ad46c31123c886039943ecc58580865aea1341e239",
     "850fcb417adbb84e7e705d3b32ff8b214de14c1ee404ae48863abc0edef4bbb4"),
    # the README's command, where the regions' exact depths are fewest
    (["--standardize", "feature", "--boot", "10000", "--perm", "5000",
      "--levels", "0.8,0.95", "--seed", "1"],
     "5765e50dee6c01061ac8d602ad0b059fb32f2d6b8343c756a3b1f85b7d9e729a",
     "9dc91677d7c961aceb275a4643eebd296e85f28153ff91ebb88d3242f8997274"),
]


@pytest.mark.parametrize("extra, report_sha, svg_sha", PINNED_RUNS)
def test_analyze_report_and_svg_bytes_are_pinned(tmp_path, monkeypatch, extra,
                                                 report_sha, svg_sha):
    shutil.copy(iris_csv_path(), tmp_path / "iris.csv")
    monkeypatch.chdir(tmp_path)
    assert main([
        "analyze", "--input", "iris.csv", "--group-col", "species",
        "--groups", "A=setosa,B=versicolor,C=virginica", *extra,
        "--report", "r.json", "--plot", "s.svg",
    ]) == 0
    assert hashlib.sha256(Path("r.json").read_bytes()).hexdigest() == report_sha
    assert hashlib.sha256(Path("s.svg").read_bytes()).hexdigest() == svg_sha


@pytest.mark.parametrize("option, value, message", [
    ("--levels", "1.5", "levels (--levels) must lie in (0, 1)"),
    ("--levels", "0.8,nan", "levels (--levels) must lie in (0, 1)"),
    ("--groups", "A=setosa,B=versicolor", "group_order (--groups) must map exactly A, B and C"),
    ("--groups", "A=setosa,B=versicolor,C=virginica,D=x", "(--groups) must map exactly A, B and C"),
    ("--groups", "A=setosa,B=setosa,C=virginica", "(--groups) must map to three distinct labels"),
], ids=["level-above-1", "level-nan", "groups-without-C", "groups-with-D", "label-twice"])
def test_analyze_rejected_values_exit_1_naming_their_option(capsys, option, value, message):
    # argparse only parses; AnalysisConfig rejects values
    options = {"--groups": "A=setosa,B=versicolor,C=virginica", "--boot": "50", option: value}
    code = main([
        "analyze", "--input", iris_csv_path(), "--group-col", "species",
        *(word for pair in options.items() for word in pair),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ibistat: error:") and message in err


@pytest.mark.parametrize("option, value", [
    ("--levels", "abc"), ("--levels", "0.8,"), ("--groups", "A"), ("--standardize", "bogus"),
], ids=["level-abc", "level-empty", "groups-no-equals", "standardize-bogus"])
def test_analyze_text_argparse_cannot_parse_exits_2(capsys, option, value):
    options = {"--groups": "A=setosa,B=versicolor,C=virginica", "--boot": "50", option: value}
    with pytest.raises(SystemExit) as exit_:
        main([
            "analyze", "--input", iris_csv_path(), "--group-col", "species",
            *(word for pair in options.items() for word in pair),
        ])
    assert exit_.value.code == 2
    assert f"argument {option}:" in capsys.readouterr().err


def test_minimal_analyze_command_builds_the_default_config(monkeypatch, capsys):
    seen = []

    def stop(path, config):
        seen.append(config)
        raise CsvParseError(1, "", "stop")

    monkeypatch.setattr("ibistat.cli.load_csv", stop)
    args = ["analyze", "--input", "in.csv", "--group-col", "g", "--groups", "A=a,B=b,C=c"]
    assert main(args) == 1
    assert capsys.readouterr().err == "ibistat: error: line 1, column '': stop\n"
    groups = {"A": "a", "B": "b", "C": "c"}
    assert seen == [AnalysisConfig(input_path="in.csv", group_column="g", group_order=groups)]


@pytest.mark.parametrize("options, fields", [
    ([], {}),
    ([
        "--features", "x,y", "--standardize", "whiten", "--boot", "50", "--perm", "20",
        "--levels", "0.5,0.9", "--seed", "3", "--threads", "2",
    ], {
        "feature_columns": ("x", "y"), "standardize_mode": "whiten", "boot_k": 50,
        "perm_k": 20, "levels": (0.5, 0.9), "seed": 3,
    }),
    (["--features", ""], {"feature_columns": ()}),
    (["--threads", "2"], {}),
], ids=["required-only", "every-option", "features-empty", "threads"])
def test_analyze_argv_builds_the_explicit_config(monkeypatch, options, fields):
    seen = []

    def stop(path, config):
        seen.append(config)
        raise CsvParseError(1, "", "stop")

    monkeypatch.setattr("ibistat.cli.load_csv", stop)
    required = ["--input", "in.csv", "--group-col", "g", "--groups", "A=a,B=b,C=c"]
    assert main(["analyze", *required, *options]) == 1
    groups = {"A": "a", "B": "b", "C": "c"}
    assert seen == [AnalysisConfig(input_path="in.csv", group_column="g", group_order=groups, **fields)]


def test_config_rejects_an_unknown_standardize_mode():
    with pytest.raises(ValueError, match=r"^standardize_mode \(--standardize\) must be one of"):
        iris_config(standardize_mode="bogus")


def test_analyze_rejects_a_role_assigned_twice(capsys):
    with pytest.raises(SystemExit) as exit_:
        main([
            "analyze", "--input", iris_csv_path(), "--group-col", "species",
            "--groups", "A=virginica,A=setosa,B=versicolor,C=virginica", "--boot", "100",
        ])
    assert exit_.value.code == 2
    assert "groups assign A more than once" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate command


def test_simulate_single_run(tmp_path, capsys):
    out = tmp_path / "row.csv"
    with pytest.warns(UserWarning, match="regions are coarse"):
        code = main([
            "simulate", "--r", "0.5", "--phi", str(math.pi / 3), "--p", "2",
            "--n", "20", "--sigma2", "1.0", "--sims", "1", "--boot", "80",
            "--seed", "3", "--out", str(out),
        ])
    assert code == 0
    row = json.loads(capsys.readouterr().out)
    assert row["ci_coverage"] in (0.0, 1.0)
    assert row["n"] == 20
    lines = out.read_text().splitlines()
    assert lines[0] == "n,sigma2,ci_coverage,ci_length,cr_coverage,cr_area"
    assert len(lines) == 2


@pytest.mark.parametrize("text, message", [
    ("a,b,c\n1,2,3\n", "does not start with the header line"),
    ("n,sigma2,ci_coverage,ci_length,cr_coverage,cr_area\n20,1,1,0.5,1,0.6",
     "does not end with a line break"),
], ids=["another-header", "cut-last-line"])
def test_simulate_out_rejects_a_file_it_cannot_append_to(tmp_path, capsys, monkeypatch,
                                                         text, message):
    never_reached(monkeypatch)
    out = tmp_path / "other.csv"
    out.write_text(text, encoding="utf-8")
    assert main(SIMULATE + ["--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and message in err and str(out) in err
    assert out.read_text(encoding="utf-8") == text


def test_simulate_out_writes_the_header_into_an_empty_file(tmp_path, capsys):
    out = tmp_path / "row.csv"
    out.touch()
    for _ in range(2):
        assert main(SIMULATE + ["--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,sigma2,ci_coverage,ci_length,cr_coverage,cr_area"
    assert len(lines) == 3 and lines[1] == lines[2] and lines[1].startswith("20,1,")


def test_simulate_deterministic(capsys):
    args = [
        "simulate", "--r", "0.4", "--phi", "1.0", "--p", "3",
        "--n", "15", "--sigma2", "0.5", "--sims", "2", "--boot", "60",
        "--seed", "11",
    ]
    with pytest.warns(UserWarning, match="regions are coarse"):
        assert main(args) == 0
    first = capsys.readouterr().out
    with pytest.warns(UserWarning, match="regions are coarse"):
        assert main(args) == 0
    assert capsys.readouterr().out == first


def test_simulate_rejects_negative_seed(capsys):
    code = main([
        "simulate", "--r", "0.5", "--phi", "1.0", "--p", "2", "--n", "10",
        "--sigma2", "1.0", "--sims", "1", "--boot", "50", "--seed", "-1",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ibistat: error:") and "--seed" in err


@pytest.mark.parametrize("phi", ["nan", "inf"])
def test_simulate_rejects_non_finite_phi(capsys, phi):
    code = main([
        "simulate", "--r", "0.5", "--phi", phi, "--p", "2", "--n", "10",
        "--sigma2", "1.0", "--sims", "1", "--boot", "50",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ibistat: error:") and "--phi" in err


SIMULATE_ARGS = {"--r": "0.5", "--phi": "1.0", "--p": "2", "--n": "10",
                 "--sigma2": "1.0", "--sims": "1", "--boot": "50"}


@pytest.mark.parametrize("option, value", [
    ("--sigma2", "nan"), ("--sigma2", "inf"), ("--sigma2", "0"), ("--sigma2", "1e308"),
    ("--r", "nan"), ("--r", "inf"), ("--r", "-0.1"), ("--r", "1.5"),
    ("--p", "1"), ("--n", "1"), ("--sims", "0"), ("--boot", "0"),
    ("--boot", "1"), ("--boot", "2"), ("--level", "1.5"), ("--level", "nan"),
])
def test_simulate_errors_name_their_option(capsys, monkeypatch, option, value):
    from ibistat import inference

    drawn = []
    monkeypatch.setattr(inference, "sample_grouped_dataset",
                        lambda *args: drawn.append(args))
    args = {**SIMULATE_ARGS, option: value}
    code = main(["simulate", *(x for pair in args.items() for x in pair)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ibistat: error:") and f"({option})" in err
    assert drawn == []


def test_simulate_sigma2_below_overflow_bound_runs_clean(capsys):
    # p = 2 bounds sigma2 at max float / 24 = 7.49e306
    args = {**SIMULATE_ARGS, "--sigma2": "1e306", "--sims": "2", "--boot": "100"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", *(x for pair in args.items() for x in pair)]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["sigma2"] == 1e306 and err == ""


def test_simulate_draw_beyond_overflow_bound_exits_1(capsys):
    # sigma2 passes the bound on one deviation, but single draws exceed it
    args = {**SIMULATE_ARGS, "--n": "2", "--sigma2": "7.4e306", "--sims": "20"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", *(x for pair in args.items() for x in pair)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("ibistat: error: sigma2 (--sigma2) = 7.4e+306")
    assert "triangle sides overflow" in err


def test_simulate_checks_level_before_drawing(capsys, monkeypatch):
    from ibistat import inference

    drawn = []

    def counting(*args):
        drawn.append(args)
        return sample_grouped_dataset(*args)

    monkeypatch.setattr(inference, "sample_grouped_dataset", counting)
    args = {**SIMULATE_ARGS, "--level": "1.5"}
    assert main(["simulate", *(x for pair in args.items() for x in pair)]) == 1
    assert "(--level)" in capsys.readouterr().err
    assert drawn == []


# ---------------------------------------------------------------------------
# report serialization


def test_report_floats_roundtrip_exactly():
    payload = {
        "a": 1.0 / 3.0,
        "b": [math.pi, 2.5e-17, 1e300],
        "c": {"nested": 0.1},
        "d": None,
        "e": True,
        "f": 42,
        "g": 'quote"and\\slash',
    }
    text = dumps_report(payload)
    parsed = json.loads(text)
    assert parsed["a"] == payload["a"]
    assert parsed["b"] == payload["b"]
    assert parsed["c"]["nested"] == payload["c"]["nested"]
    assert parsed["g"] == payload["g"]


def test_report_writes_booleans_and_null_as_json():
    assert dumps_report([True, False, None]) == "[true, false, null]\n"


def test_report_rejects_nan():
    with pytest.raises(ValueError):
        dumps_report({"bad": math.nan})


def test_run_analysis_regions_match_report(iris_ds):
    cfg = iris_config(boot_k=300, seed=2)
    report, regions = run_analysis(cfg, iris_ds)
    for key, blk in report["regions"].items():
        assert blk["member_count"] == regions[key].member_points.shape[0]
        assert blk["area"] == regions[key].area
