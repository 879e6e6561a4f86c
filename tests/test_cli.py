import codecs
import csv
import hashlib
import json
import math
import re
import shutil
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
    _parse_rows,
    _parse_rows_per_cell,
    dumps_report,
    load_csv,
    run_analysis,
)
from ibistat.sampling import sample_grouped_dataset
from ibistat.svgplot import glyph_count, is_well_formed_xml, svg_from_report
from conftest import IRIS_FEATURES, IRIS_GROUPS, iris_config


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


def abc_config(path):
    groups = {"A": "a", "B": "b", "C": "c"}
    return iris_config(input_path=path, group_column="g", group_order=groups)


@pytest.mark.parametrize("text, message", [
    ("x,y,g\n1,2,a\n3,4,a\n\n5,6,b\n", "line 4, column '': expected 3 fields, got 0"),
    ("x,y,g\n1,2,a\n3,nan,a\n5,6,b\n", "line 3, column 'y': non-finite value"),
])
def test_load_csv_rejects_blank_line_and_nan_cell(tmp_path, text, message):
    path = write_csv(tmp_path / "bad.csv", text)
    with pytest.raises(CsvParseError) as err:
        load_csv(path, abc_config(path))
    assert str(err.value) == message


def test_load_csv_whole_file_pass_reads_the_bits_of_the_per_cell_pass():
    path = iris_csv_path()
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, *rows = csv.reader(fh)
    cfg = iris_config()
    group = header.index("species")
    cols = [header.index(c) for c in IRIS_FEATURES]
    label_map = {v: k for k, v in IRIS_GROUPS.items()}
    labels, values = _parse_rows(rows, len(header), group, cols, label_map)
    ref_labels, ref_values = _parse_rows_per_cell(rows, 2, header, group, cols, IRIS_FEATURES, cfg)
    assert labels == ref_labels
    assert values.tobytes() == ref_values.tobytes()
    assert load_csv(path, cfg).features.tobytes() == ref_values.tobytes()


def test_load_csv_reads_cells_as_python_float_does(tmp_path):
    # underscores, padding, signed zero and a subnormal, as float() reads them
    cells = ["1_000", " 2.5 ", "-0.0", "1e-320", "+3", "16.", "1E3", "\t-7\n"]
    lines = "".join(f'"{cell}",{g}\n' for cell, g in zip(cells, "abcabcab"))
    path = write_csv(tmp_path / "literals.csv", "x,g\n" + lines)
    values = load_csv(path, abc_config(path)).features[:, 0]
    assert values.tobytes() == np.array([float(c) for c in cells]).tobytes()


@pytest.mark.parametrize("cell, message", [
    ("abc", "line 3, column 'y': not a number: 'abc'"),
    ("nan", "line 3, column 'y': non-finite value"),
    ("inf", "line 3, column 'y': non-finite value"),
    ("-Infinity", "line 3, column 'y': non-finite value"),
    ("1e999", "line 3, column 'y': non-finite value"),
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
    plain = write_csv(tmp_path / "plain.csv", "x,y,grp\n" + rows)
    cfg = iris_config(features=("y", "x", "y"), input_path=plain, group_column="grp")
    with pytest.raises(CsvParseError) as err:
        load_csv(plain, cfg)
    assert (err.value.line, err.value.column) == (1, "y")


# ---------------------------------------------------------------------------
# CSV loading in row blocks


def rows_per_block(monkeypatch, rows, width):
    """Make load_csv read ``rows`` rows of ``width`` fields per block."""
    monkeypatch.setattr("ibistat.report._BLOCK_CELLS", rows * width)


def abc_csv(tmp_path, n_rows, replaced=None):
    """A header and ``n_rows`` valid x,y,g rows on lines 2 to n_rows + 1,
    with ``replaced`` mapping a line to the row put there instead."""
    rows = [f"{i},{i + 0.5},{'abc'[i % 3]}" for i in range(n_rows)]
    for line, row in (replaced or {}).items():
        rows[line - 2] = row
    return write_csv(tmp_path / "blocks.csv", "x,y,g\n" + "".join(r + "\n" for r in rows))


# blocks of 3 rows start on lines 2, 5, 8 and 11
@pytest.mark.parametrize("line", [2, 4, 5, 7, 9, 13])
@pytest.mark.parametrize("row, message", [
    ("1,oops,a", "column 'y': not a number: 'oops'"),
    ("1,a", "column '': expected 3 fields, got 2"),
])
def test_load_csv_names_the_true_line_in_any_block(tmp_path, monkeypatch, line, row, message):
    rows_per_block(monkeypatch, 3, 3)
    path = abc_csv(tmp_path, 12, {line: row})
    with pytest.raises(CsvParseError) as err:
        load_csv(path, abc_config(path))
    assert str(err.value) == f"line {line}, {message}"


def test_load_csv_reports_the_first_of_two_bad_blocks(tmp_path, monkeypatch):
    rows_per_block(monkeypatch, 3, 3)
    path = abc_csv(tmp_path, 12, {6: "1,nan,b", 9: "1,oops,c", 10: "1,a"})
    with pytest.raises(CsvParseError) as err:
        load_csv(path, abc_config(path))
    assert str(err.value) == "line 6, column 'y': non-finite value"


def test_load_csv_unknown_label_in_an_early_block_wins(tmp_path, monkeypatch):
    rows_per_block(monkeypatch, 3, 3)
    path = abc_csv(tmp_path, 12, {3: "1,2,zzz", 6: "1,oops,c"})
    with pytest.raises(UnknownGroupLabelError, match="^line 3: group label 'zzz'"):
        load_csv(path, abc_config(path))


def test_load_csv_reader_error_comes_in_file_order(tmp_path, monkeypatch):
    # a row the CSV reader cannot split names its line like a bad cell,
    # and a bad cell before it in the same block is reported first
    rows_per_block(monkeypatch, 3, 3)
    long_row = "1," + "2" * (csv.field_size_limit() + 1) + ",a"
    limit = f"field larger than field limit ({csv.field_size_limit()})"
    path = abc_csv(tmp_path, 12, {7: long_row})
    with pytest.raises(CsvParseError, match=rf"^line 7, column '': {re.escape(limit)}$"):
        load_csv(path, abc_config(path))
    path = abc_csv(tmp_path, 12, {6: "1,oops,c", 7: long_row})
    with pytest.raises(CsvParseError, match="^line 6, column 'y'"):
        load_csv(path, abc_config(path))


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


@pytest.mark.parametrize("rows", [1, 2, 7, 50])
def test_load_csv_in_row_blocks_reads_the_bytes_of_one_block(tmp_path, monkeypatch, rows):
    # 50 rows of iris end in an empty block, 7 in a short one
    quoted = write_csv(tmp_path / "quoted.csv", QUOTED_CSV)
    groups = {"A": "a", "B": "b", "C": "c"}
    configs = [iris_config(), iris_config(features=("x", "y"), input_path=quoted,
                                          group_column="g", group_order=groups)]
    whole = [load_csv(cfg.input_path, cfg) for cfg in configs]
    for cfg, one_block in zip(configs, whole):
        with open(cfg.input_path, newline="", encoding="utf-8-sig") as fh:
            width = len(next(csv.reader(fh)))
        rows_per_block(monkeypatch, rows, width)
        blocks = load_csv(cfg.input_path, cfg)
        assert blocks.features.tobytes() == one_block.features.tobytes()
        assert blocks.labels.tolist() == one_block.labels.tolist()
    assert whole[1].n == 7


@pytest.mark.parametrize("rows, features", [(20_000, 16), (200, 2_000)])
def test_load_csv_memory_stays_bounded(tmp_path, rows, features):
    # a long and a wide file; holding every cell as a string until the
    # whole file is parsed peaks at about 12 times the matrix
    values = np.random.default_rng(5).normal(size=(rows, features))
    header = ",".join(f"x{j}" for j in range(features)) + ",g\n"
    lines = (",".join(map(repr, row)) + f",{'abc'[i % 3]}\n" for i, row in enumerate(values.tolist()))
    path = write_csv(tmp_path / "big.csv", header + "".join(lines))
    cfg = abc_config(path)
    tracemalloc.start()
    try:
        ds = load_csv(path, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.tobytes() == values.tobytes()
    # the blocks' values and the matrix they are joined into, or the
    # values read so far and one block of 2^14 cells as strings
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


def test_analyze_rejects_bad_groups():
    with pytest.raises(SystemExit):
        main([
            "analyze", "--input", iris_csv_path(), "--group-col", "species",
            "--groups", "A=setosa,B=versicolor",
        ])


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


def test_report_rejects_nan():
    with pytest.raises(ValueError):
        dumps_report({"bad": math.nan})


def test_run_analysis_regions_match_report(iris_ds):
    cfg = iris_config(boot_k=300, seed=2)
    report, regions = run_analysis(cfg, iris_ds)
    for key, blk in report["regions"].items():
        assert blk["member_count"] == regions[key].member_points.shape[0]
        assert blk["area"] == regions[key].area
