import json
import math
import os

import numpy as np
import pytest

from hydrochar import __version__, cli, data
from hydrochar.cli import main
from hydrochar.pipeline import TrainedTarget

from conftest import valid_row


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def grid_file(tmp_path, tree_entries=None, svr_entries=None):
    obj = {
        "tree_grid": tree_entries
        if tree_entries is not None
        else [{"max_depth": 6, "min_samples_leaf": 2}, {"max_depth": 10, "min_samples_leaf": 1}],
        "svr_grid": svr_entries or [],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def synth_csv(tmp_path, n=120, seed=9):
    out = tmp_path / "d"
    assert run("synth", "--out", out, "--n", n, "--seed", seed) == 0
    return out / "synthetic.csv"


# ------------------------------------------------------------------- synth

def test_synth_writes_n_plus_header(workdir, capsys):
    path = synth_csv(workdir, n=100)
    assert len(path.read_text().splitlines()) == 101


def test_synth_deterministic_bytes(workdir):
    a = workdir / "a"
    b = workdir / "b"
    run("synth", "--out", a, "--n", 50, "--seed", 3)
    run("synth", "--out", b, "--n", 50, "--seed", 3)
    assert (a / "synthetic.csv").read_bytes() == (b / "synthetic.csv").read_bytes()


def test_synth_output_validates_cleanly(workdir, capsys):
    path = synth_csv(workdir)
    assert run("validate", "--data", path) == 0
    out = capsys.readouterr().out
    assert "n_rows: 120" in out
    assert "warnings: 0" in out


# ---------------------------------------------------------------- validate

def test_validate_header_only_exits_1(workdir, capsys):
    path = workdir / "empty.csv"
    path.write_text(",".join(data.CSV_HEADER) + "\n", encoding="utf-8")
    assert run("validate", "--data", path) == 1
    assert "error" in capsys.readouterr().err


def test_validate_reports_envelope_warnings(workdir, capsys):
    rows = [valid_row(temperature_c=400.0), valid_row(temperature_c=390.0), valid_row(time_min=700.0)]
    path = workdir / "warn.csv"
    lines = [",".join(data.CSV_HEADER)] + [",".join(str(c) for c in r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("validate", "--data", path) == 0
    assert "warnings: 3" in capsys.readouterr().out


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
def test_validate_refuses_a_cell_over_the_csv_field_limit(workdir, capsys, quoted):
    big = "1" * 131073
    path = workdir / "big.csv"
    lines = [",".join(data.CSV_HEADER), ",".join(str(c) for c in valid_row(hc_o=f'"{big}"' if quoted else big))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("validate", "--data", path) == 1
    assert "error: row 2, column '(row)': cannot parse 'field larger than field limit" in capsys.readouterr().err


def test_missing_data_flag_is_usage_error(capsys):
    assert run("validate") == 1
    assert "the following arguments are required: --data" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("synth", "--noise", "nan"), "noise_sd must be finite and >= 0"),
    (("validate", "--data", "missing.csv"), "No such file or directory"),
], ids=["synth-nan-noise", "validate-missing-data"])
def test_a_refused_command_leaves_no_out(workdir, capsys, monkeypatch, argv, message):
    """--out is created just before the first write, after every input is read and checked; a refused
    train is covered by the refusal tests of its grid."""
    monkeypatch.chdir(workdir)
    assert run(*argv, "--out", "run") == 1
    assert message in capsys.readouterr().err
    assert not (workdir / "run").exists()


# Every option a command does not read, with a value that command's siblings accept.
_UNREAD = {
    "validate": ("--model", "--grid", "--application", "--background"),
    "stats": ("--model", "--grid", "--application", "--background"),
    "train": ("--application", "--background"),
    "evaluate": ("--grid", "--application", "--background"),
    "explain": ("--grid", "--application"),
    "optimize": ("--model", "--grid", "--background"),
    "synth": ("--data", "--model", "--grid", "--application", "--background"),
}


@pytest.mark.parametrize("command, option", [(c, o) for c, options in _UNREAD.items() for o in options])
def test_a_command_refuses_an_option_it_does_not_read(workdir, capsys, command, option):
    csv = workdir / "data.csv"
    csv.write_text(",".join(data.CSV_HEADER) + "\n" + ",".join(str(c) for c in valid_row()) + "\n", encoding="utf-8")
    out = workdir / "run"
    value = {"--data": csv, "--model": "dtr", "--grid": workdir / "grid.json", "--application": "energy",
             "--background": 8}[option]
    needed = {"synth": (), "explain": ("--data", csv, "--target", "hc_yield")}.get(command, ("--data", csv))
    assert run(command, *needed, "--out", out, option, value) == 1
    assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_explain_refuses_model_both(workdir, capsys):
    out = workdir / "run"
    assert run("explain", "--data", workdir / "data.csv", "--out", out, "--target", "hc_yield", "--model", "both") == 1
    assert "argument --model: invalid choice: 'both'" in capsys.readouterr().err
    assert not out.exists()


# What each command needs besides --out and --seed; no file named here is read before the parser refuses.
_NEEDED = {c: ("--data", "never-read.csv") for c in ("validate", "stats", "train", "evaluate", "optimize")}
_NEEDED.update(explain=("--data", "never-read.csv", "--target", "hc_yield"), synth=())


@pytest.mark.parametrize("command", sorted(_NEEDED))
def test_every_command_refuses_a_negative_seed_as_a_usage_error(workdir, capsys, monkeypatch, command):
    monkeypatch.chdir(workdir)
    assert run(command, *_NEEDED[command], "--out", "run", "--seed", -1) == 1
    assert capsys.readouterr().err.endswith(f"{command}: error: argument --seed: must be at least 0, got -1\n")
    assert run(command, *_NEEDED[command], "--out", "run", "--seed", "abc") == 1
    assert capsys.readouterr().err.endswith("error: argument --seed: invalid int value: 'abc'\n")
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("command", sorted(_NEEDED))
def test_the_parser_resolves_data_and_out(workdir, monkeypatch, command):
    """Commands read the parsed arguments; RunConfig.from_args hands them back until the benchmark stops calling it."""
    monkeypatch.chdir(workdir)
    for out, want in ((("--out", "run"), workdir.resolve() / "run"), ((), workdir.resolve())):
        args = cli.build_parser().parse_args([command, *_NEEDED[command], *out])
        assert args.out == want and args.out.is_absolute()
        if command != "synth":
            assert args.data == workdir.resolve() / "never-read.csv" and args.data.is_absolute()
        assert cli.RunConfig.from_args(args) is args


@pytest.mark.skipif(os.name != "posix", reason="needs a symlink")
@pytest.mark.parametrize("flag", ["--data", "--out"])
def test_a_path_the_parser_cannot_resolve_leaves_main_through_its_handlers(workdir, capsys, flag):
    """A symlink loop makes Path.resolve raise RuntimeError on some Pythons and not on others; either way main
    returns a code and prints one line naming the path, with no traceback."""
    loop = workdir / "loop"
    loop.symlink_to(loop)
    argv = ("validate", "--data", loop) if flag == "--data" else ("synth", "--out", loop / "run")
    assert run(*argv) in (1, 2)
    err = capsys.readouterr().err
    assert err.startswith(("error: ", "internal error: ")) and str(loop) in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, code", [(("--help",), 0), (("--version",), 0), ((), 1), (("fit",), 1),
                                        (("synth", "--n", "many"), 1)])
def test_argparse_exits_are_returned(capsys, argv, code):
    """--help and --version return 0 and a usage error returns 1, not argparse's 2."""
    assert run(*argv) == code


def test_a_stray_key_error_is_an_internal_error(workdir, capsys, monkeypatch):
    """Only a refusal exits 1; a KeyError that escapes a command is a bug and exits 2."""
    def broken(args):
        raise KeyError("hc_yield")

    monkeypatch.setattr(cli, "cmd_validate", broken)  # main builds its parser after this
    assert run("validate", "--data", workdir / "data.csv") == 2
    assert capsys.readouterr().err == "internal error: KeyError('hc_yield')\n"


@pytest.mark.parametrize("flag", ["--data", "--grid", "--application"])
def test_a_path_naming_a_directory_is_an_input_error(workdir, capsys, flag):
    """A directory given where a file is read exits 1 with the path named, not 2."""
    directory = workdir / "profile.json"  # a .json name, so --application reads it as a file
    directory.mkdir()
    command, args = {
        "--data": ("validate", ("--data", directory)),
        "--grid": ("train", ("--data", synth_csv(workdir), "--out", workdir / "run", "--grid", directory)),
        "--application": ("optimize", ("--data", synth_csv(workdir), "--out", workdir / "run",
                                       "--application", directory)),
    }[flag]
    assert run(command, *args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(directory) in err


# ------------------------------------------------------------------- train

def test_train_writes_report_and_models(workdir, capsys):
    csv = synth_csv(workdir)
    out = workdir / "run"
    grid = grid_file(workdir)
    assert run("train", "--data", csv, "--out", out, "--seed", 9, "--model", "dtr", "--grid", grid) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["models"]["dtr"]) == set(data.TARGET_COLUMNS)
    models = sorted(out.glob("model_dtr_*.json"))
    assert len(models) == 10
    # trees fit on raw inputs, so a tree file carries no scaler
    assert all(json.loads(p.read_text())["scaler_in"] is None for p in models)


def test_train_reports_are_byte_identical(workdir):
    csv = synth_csv(workdir)
    grid = grid_file(workdir)
    out1 = workdir / "r1"
    out2 = workdir / "r2"
    for out in (out1, out2):
        assert run("train", "--data", csv, "--out", out, "--seed", 9, "--model", "dtr", "--grid", grid) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_train_single_entry_grid_is_chosen(workdir):
    csv = synth_csv(workdir)
    out = workdir / "run"
    grid = grid_file(workdir, tree_entries=[{"max_depth": 4, "min_samples_leaf": 5}])
    assert run("train", "--data", csv, "--out", out, "--seed", 9, "--model", "dtr", "--grid", grid) == 0
    report = json.loads((out / "report.json").read_text())
    for section in report["models"]["dtr"].values():
        assert section["params"]["max_depth"] == 4
        assert section["params"]["min_samples_leaf"] == 5


@pytest.mark.parametrize(
    "tree_entries, svr_entries, field",
    [
        ([], [{"c": float("inf"), "epsilon": 0.1, "kernel": {"kind": "linear"}}], "c"),
        ([], [{"c": 1.0, "epsilon": float("nan"), "kernel": {"kind": "linear"}}], "epsilon"),
        ([], [{"c": 1.0, "epsilon": 0.1, "kernel": {"kind": "rbf", "gamma": float("inf")}}], "gamma"),
        ([{"max_depth": 4, "min_impurity_decrease": float("nan")}], [], "min_impurity_decrease"),
    ],
    ids=["c-inf", "epsilon-nan", "gamma-inf", "min-impurity-nan"],
)
def test_train_refuses_non_finite_grid_values(workdir, capsys, tree_entries, svr_entries, field):
    # json.dumps writes Infinity and NaN, and json.load reads them back
    csv = synth_csv(workdir)
    out = workdir / "run"
    grid = grid_file(workdir, tree_entries=tree_entries, svr_entries=svr_entries)
    assert "Infinity" in grid.read_text() or "NaN" in grid.read_text()
    assert run("train", "--data", csv, "--out", out, "--seed", 9, "--grid", grid) == 1
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"tree_grid": [{"max_depth": 4.7}]}, "tree_grid[0]: max_depth must be an integer, got 4.7"),
        ({"tree_grid": [{"max_depth": 6}, {"max_depth": True}]}, "tree_grid[1]: max_depth must be an integer, got True"),
        ({"tree_grid": [{"min_samples_leaf": 2.9}]}, "tree_grid[0]: min_samples_leaf must be an integer, got 2.9"),
        ({"tree_grid": [{"max_depth": "4"}]}, "tree_grid[0]: max_depth must be an integer, got '4'"),
        ({"tree_grid": {"max_depth": 4}}, "tree_grid must be a list of entries, got dict"),
        ([], "a grid file must hold a JSON object of tree_grid and svr_grid lists, got list"),
        ({"svr_grid": [{"epsilon": 0.1, "kernel": {"kind": "linear"}}]}, "svr_grid[0] has no field 'c'"),
        ({"tree_grid": [{"max_dpeth": 2}]}, "tree_grid[0]: unknown field 'max_dpeth'; expected one of max_depth, "
         "min_samples_split, min_samples_leaf, min_impurity_decrease"),
        ({"svr_grid": [{"c": 1.0, "epsilon": 0.1, "kernel": {"kind": "linear"}, "C": 10.0}]},
         "svr_grid[0]: unknown field 'C'; expected one of c, epsilon, kernel, tolerance, max_passes"),
        ({"svr_grid": [{"c": 1.0, "epsilon": 0.1, "kernel": {"kind": "rbf", "gama": 0.5}}]},
         "svr_grid[0]: unknown field 'gama'; expected one of kind, gamma"),
        ({"svr_grid": [{"c": True, "epsilon": 0.1, "kernel": {"kind": "linear"}}]},
         "svr_grid[0]: c must be a number, got True"),
        ({"svr_grid": [{"c": 1.0, "epsilon": "0.1", "kernel": {"kind": "linear"}}]},
         "svr_grid[0]: epsilon must be a number, got '0.1'"),
        ({"svr_grid": [{"c": 1.0, "epsilon": 0.1, "kernel": {"kind": "rbf", "gamma": None}}]},
         "svr_grid[0]: kernel gamma must be a number, got None"),
        ({"tree_grid": [{"min_impurity_decrease": None}]},
         "tree_grid[0]: min_impurity_decrease must be a number, got None"),
        ({"svr_grid": [{"c": 1.0, "epsilon": 0.1, "kernel": {"kind": "linear"}},
                       {"c": 1.0, "epsilon": 0.1, "kernel": "linear"}]},
         "svr_grid[1]: kernel must be an object, got str"),
        ({"tree_grid": [{"max_depth": 6}, 5]}, "tree_grid[1]: tree params must be an object, got int"),
        ({"svr_grid": [{"c": 1.0, "epsilon": 0.1, "kernel": {"kind": "linear", "gamma": 0.5}}]},
         "svr_grid[0]: kernel kind 'linear' does not read field 'gamma'"),
        ({"svr_grid": [{"c": 1.0, "epsilon": 0.1, "kernel": {"kind": "rbf", "gamma": 0.5, "degree": 2}}]},
         "svr_grid[0]: unknown field 'degree'; expected one of kind, gamma"),
        ({"svr_grid": [{"c": 1.0, "epsilon": 0.1, "kernel": {"kind": "polynomial", "degree": 2, "gamma": 0.5}}]},
         "svr_grid[0]: kernel kind 'polynomial' is not supported; expected 'linear' or 'rbf'"),
        ({"svr_grid": [{"c": 1.0, "epsilon": 0.1, "kernel": {"kind": "polynomial", "degree": 2, "coef0": 1.0}}]},
         "svr_grid[0]: kernel kind 'polynomial' is not supported; expected 'linear' or 'rbf'"),
        ({"tree_grid": [{"max_depth": 6}], "svr_grd": []},
         "unknown field 'svr_grd'; expected one of tree_grid, svr_grid"),
        ('{"tree_grid": [', "Expecting value: line 1 column 16 (char 15)"),
    ],
    ids=["depth-float", "depth-bool", "leaf-float", "depth-string", "tree-grid-object", "top-level-list", "svr-no-c",
         "tree-unknown-field", "svr-unknown-field", "kernel-unknown-field", "c-bool", "epsilon-string", "gamma-null",
         "min-impurity-null", "kernel-string", "tree-entry-int", "linear-gamma", "rbf-degree", "polynomial-gamma",
         "polynomial", "top-level-unknown-key", "not-json"],
)
def test_train_refuses_malformed_grid(workdir, capsys, grid, message):
    """A grid given as a string is written as it stands, to make a file that is not JSON."""
    csv = synth_csv(workdir)
    out = workdir / "run"
    path = workdir / "grid.json"
    path.write_text(grid if isinstance(grid, str) else json.dumps(grid), encoding="utf-8")
    assert run("train", "--data", csv, "--out", out, "--seed", 9, "--grid", path) == 1
    assert capsys.readouterr().err == f"error: grid file {path}: {message}\n"
    assert not out.exists()


# ------------------------------------------------------------------- stats

def test_stats_artifacts(workdir):
    csv = synth_csv(workdir)
    out = workdir / "stats"
    assert run("stats", "--data", csv, "--out", out, "--seed", 9) == 0
    corr = json.loads((out / "correlation_matrix.json").read_text())
    assert len(corr["labels"]) == 21
    assert all(corr["values"][i][i] == 1.0 for i in range(21))
    factors = json.loads((out / "factors.json").read_text())
    assert factors["cumulative_fraction"][-1] == pytest.approx(1.0, abs=1e-10)
    assert len(factors["eigenvalues"]) == 21
    csv_lines = (out / "correlation_matrix.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# schema_version=1 seed=9")
    vk = (out / "van_krevelen.csv").read_text().splitlines()
    assert vk[1] == "row,biomass_h_over_c,biomass_o_over_c,hydrochar_h_over_c,hydrochar_o_over_c"
    assert len(vk) == 122


def test_stats_without_hydrochar_ultimate_columns(workdir):
    ds = data.generate_synthetic(40, seed=6)
    y = ds.target_matrix().copy()
    y[:, [data.TARGET_COLUMNS.index(t) for t in ("hc_c", "hc_h", "hc_o")]] = np.nan
    path = workdir / "partial.csv"
    data.write_csv(data.Dataset(ds.feature_matrix(), y), path)
    out = workdir / "stats"
    assert run("stats", "--data", path, "--out", out, "--seed", 1) == 0
    vk_rows = (out / "van_krevelen.csv").read_text().splitlines()[2:]
    for line in vk_rows:
        cells = line.split(",")
        assert cells[1] != "" and cells[2] != ""  # biomass ratios present
        assert cells[3] == "" and cells[4] == ""  # hydrochar ratios absent
    factors = json.loads((out / "factors.json").read_text())
    assert len(factors["labels"]) == 11  # falls back to the input columns


@pytest.mark.parametrize("edit, reason", [
    (lambda y: y.__setitem__((np.arange(40), np.arange(40) % 10), np.nan), "only 0 rows complete on the selection"),
    (lambda y: y.__setitem__((slice(None), 0), 50.0), "column hc_yield is constant on the complete rows"),
], ids=["no-row-reports-every-target", "constant-target"])
def test_stats_says_when_factor_analysis_falls_back(workdir, capsys, edit, reason):
    """Factor analysis falls back to the input columns when it cannot use the targets, and stats says why."""
    ds = data.generate_synthetic(40, seed=6)
    y = ds.target_matrix().copy()
    edit(y)
    path = workdir / "sparse.csv"
    data.write_csv(data.Dataset(ds.feature_matrix(), y), path)
    assert run("stats", "--data", path, "--out", workdir / "stats", "--seed", 1) == 0
    assert f"factor analysis fell back to the 11 input columns: {reason}\n" in capsys.readouterr().out
    assert len(json.loads((workdir / "stats" / "factors.json").read_text())["labels"]) == 11
    assert run("stats", "--data", synth_csv(workdir), "--out", workdir / "full", "--seed", 1) == 0
    assert "fell back" not in capsys.readouterr().out


def test_stats_refusing_a_constant_input_column_writes_nothing(workdir, capsys):
    """Every statistic is computed before --out is made, so a refusal leaves no partial artifacts."""
    ds = data.generate_synthetic(40, seed=6)
    x = ds.feature_matrix().copy()
    x[:, data.FEATURE_COLUMNS.index("water_wt")] = 5.0
    path = workdir / "constant.csv"
    data.write_csv(data.Dataset(x, ds.target_matrix()), path)
    out = workdir / "stats"
    assert run("stats", "--data", path, "--out", out, "--seed", 1) == 1
    assert capsys.readouterr().err == "error: column water_wt is constant on the complete rows\n"
    assert not out.exists()


def _reference_ratio_cells(c_wt, h_wt, o_wt):
    """One row's H/C and O/C cells, computed in Python floats."""
    if not c_wt > 0.0 or math.isnan(h_wt) or math.isnan(o_wt):
        return ["", ""]
    c_mol = c_wt / data._MASS_C
    return [repr((h_wt / data._MASS_H) / c_mol), repr((o_wt / data._MASS_O) / c_mol)]


def test_van_krevelen_table_matches_per_row_ratios(workdir):
    """Whole-column ratios write the same cells as a per-row loop, blank
    where carbon is 0 or a mass fraction is unreported."""
    ds = data.generate_synthetic(30, seed=12)
    x, y = ds.feature_matrix().copy(), ds.target_matrix().copy()
    x[[2, 7], 0] = 0.0
    y[[3, 7], data.TARGET_COLUMNS.index("hc_c")] = [0.0, np.nan]
    y[[5, 9], data.TARGET_COLUMNS.index("hc_h")] = np.nan
    y[[9, 11], data.TARGET_COLUMNS.index("hc_o")] = np.nan
    path = workdir / "zeros.csv"
    data.write_csv(data.Dataset(x, y), path)
    out = workdir / "stats"
    assert run("stats", "--data", path, "--out", out, "--seed", 1) == 0
    ds = data.load_csv(path)
    cols = [ds.feature_matrix()[:, [data.FEATURE_COLUMNS.index(c) for c in ("biomass_c", "biomass_h", "biomass_o")]],
            ds.target_matrix()[:, [data.TARGET_COLUMNS.index(c) for c in ("hc_c", "hc_h", "hc_o")]]]
    expect = [",".join([str(i)] + _reference_ratio_cells(*b) + _reference_ratio_cells(*h))
              for i, (b, h) in enumerate(zip(cols[0].tolist(), cols[1].tolist()))]
    assert (out / "van_krevelen.csv").read_text().splitlines()[2:] == expect
    assert sum(line.endswith(",,") for line in expect) == 5


# ----------------------------------------------------------------- explain

def test_explain_writes_artifacts_with_expected_shape(workdir):
    csv = synth_csv(workdir, n=60, seed=4)
    out = workdir / "run"
    # large leaves keep nodes big enough that the monotone hc_s signal always
    # beats spurious splits, so only biomass_s is ever used
    grid = grid_file(workdir, tree_entries=[{"max_depth": 5, "min_samples_leaf": 8}])
    assert run("train", "--data", csv, "--out", out, "--seed", 4, "--model", "dtr", "--grid", grid) == 0
    assert run(
        "explain", "--data", csv, "--out", out, "--seed", 4,
        "--model", "dtr", "--target", "hc_s", "--background", 16,
    ) == 0
    shap_dir = out / "shap_dtr_hc_s"
    bar = (shap_dir / "bar.csv").read_text().splitlines()
    assert bar[1] == "feature,mean_abs_phi"
    assert len(bar) == 13  # provenance + header + 11 features
    values = {line.split(",")[0]: float(line.split(",")[1]) for line in bar[2:]}
    # synthetic hc_s depends only on biomass_s: every other feature is a dummy
    assert values["biomass_s"] > 0.0
    for name, v in values.items():
        if name != "biomass_s":
            assert v == 0.0
    beeswarm = (shap_dir / "beeswarm.csv").read_text().splitlines()
    assert len(beeswarm) == 2 + 60 * 11
    assert (shap_dir / "importance.svg").exists()
    heatmap = (shap_dir / "heatmap.csv").read_text().splitlines()
    assert len(heatmap) == 2 + 60
    assert heatmap[1] == "row,fx," + ",".join(data.FEATURE_COLUMNS)
    # every number is a plain float, and fx = base + sum(phi) with one base
    for line in beeswarm[2:]:
        row, name, phi, value = line.split(",")
        int(row), float(phi), float(value)
    cells = np.array([[float(c) for c in line.split(",")] for line in heatmap[2:]])
    assert np.array_equal(cells[:, 0], np.arange(60))
    fx, phi = cells[:, 1], cells[:, 2:]
    base = fx - phi.sum(axis=1)
    assert np.abs(base - base[0]).max() <= 1e-9
    model = TrainedTarget.from_json_obj(json.loads((out / "model_dtr_hc_s.json").read_text()))
    assert np.abs(fx - model.predict(data.load_csv(csv).feature_matrix())).max() <= 1e-9


def test_explain_requires_model_file(workdir, capsys):
    csv = synth_csv(workdir, n=40, seed=4)
    out = workdir / "nomodels"
    assert run("explain", "--data", csv, "--out", out, "--seed", 4, "--target", "hc_s") == 1
    assert "run train first" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("background", [0, -3])
def test_explain_refuses_background_below_one(workdir, capsys, background):
    csv = synth_csv(workdir, n=40, seed=4)
    out = workdir / "nomodels"
    argv = ("explain", "--data", csv, "--out", out, "--seed", 4, "--target", "hc_s", "--background", background)
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"explain: error: argument --background: must be at least 1, got {background}\n")
    assert not out.exists()  # refused by the parser, before anything is loaded or created


# ---------------------------------------------------------------- optimize

def _train_for_optimize(workdir, seed=4):
    csv = synth_csv(workdir, n=100, seed=seed)
    out = workdir / "run"
    grid = grid_file(workdir, tree_entries=[{"max_depth": 5, "min_samples_leaf": 2}])
    assert run("train", "--data", csv, "--out", out, "--seed", seed, "--model", "dtr", "--grid", grid) == 0
    return csv, out


def test_optimize_writes_optimum_within_bounds(workdir):
    csv, out = _train_for_optimize(workdir)
    assert run("optimize", "--data", csv, "--out", out, "--seed", 4, "--application", "energy") == 0
    rep = json.loads((out / "optimum.json").read_text())
    assert rep["application"] == "energy"
    ds = data.load_csv(csv)
    plan = data.split(ds, seed=4)
    x = ds.feature_matrix()[plan.train_indices]
    for j, name in enumerate(data.FEATURE_COLUMNS):
        assert x[:, j].min() - 1e-9 <= rep["best_inputs"][name] <= x[:, j].max() + 1e-9
    assert set(rep["predicted_outputs"]) == set(data.TARGET_COLUMNS)


def test_optimize_profiles_differ(workdir):
    csv, out = _train_for_optimize(workdir)
    reps = {}
    for app in ("soil", "adsorption"):
        assert run("optimize", "--data", csv, "--out", out, "--seed", 4, "--application", app) == 0
        reps[app] = json.loads((out / "optimum.json").read_text())
    assert reps["soil"]["directions"] != reps["adsorption"]["directions"]
    assert reps["soil"]["directions"]["hc_o"] == "ignore"
    assert reps["adsorption"]["directions"]["hc_o"] == "maximize"


def test_optimize_deterministic(workdir):
    csv, out = _train_for_optimize(workdir)
    blobs = []
    for _ in range(2):
        assert run("optimize", "--data", csv, "--out", out, "--seed", 4, "--application", "energy") == 0
        blobs.append((out / "optimum.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_optimize_requires_models(workdir, capsys):
    csv = synth_csv(workdir, n=60, seed=4)
    out = workdir / "none"
    assert run("optimize", "--data", csv, "--out", out, "--seed", 4, "--application", "energy") == 1
    assert "missing trained DTR model" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_rejects_svr_model(workdir, capsys):
    csv, out = _train_for_optimize(workdir)
    assert run("optimize", "--data", csv, "--out", out, "--seed", 4, "--model", "svr") == 1
    assert "unrecognized arguments: --model svr" in capsys.readouterr().err
    assert not (out / "optimum.json").exists()


def test_optimize_accepts_custom_direction_map(workdir):
    csv, out = _train_for_optimize(workdir)
    directions = {t: "ignore" for t in data.TARGET_COLUMNS}
    directions["hc_yield"] = "maximize"
    custom = workdir / "only_yield.json"
    custom.write_text(json.dumps(directions), encoding="utf-8")
    assert run("optimize", "--data", csv, "--out", out, "--seed", 4, "--application", custom) == 0
    rep = json.loads((out / "optimum.json").read_text())
    assert rep["application"] == "only_yield"
    assert rep["directions"]["hc_yield"] == "maximize"


def test_optimize_refuses_unknown_application(workdir, capsys):
    csv, out = _train_for_optimize(workdir)
    assert run("optimize", "--data", csv, "--out", out, "--seed", 4, "--application", "bogus") == 1
    assert capsys.readouterr().err == (
        "error: unknown application 'bogus'; choose one of adsorption, energy, soil, or a .json direction-map file\n"
    )
    assert not (out / "optimum.json").exists()


def test_optimize_refuses_a_missing_profile_file(workdir, capsys):
    """A .json name is always read as a file, so a missing one is a missing file, not an unknown name."""
    csv, out = _train_for_optimize(workdir)
    profile = workdir / "nope.json"
    assert run("optimize", "--data", csv, "--out", out, "--seed", 4, "--application", profile) == 1
    err = capsys.readouterr().err
    assert str(profile) in err and "unknown application" not in err
    assert not (out / "optimum.json").exists()


@pytest.mark.parametrize("directions, message", [
    ({"hc_yield": "maximize"}, "profile missing directions for ['hc_hhv', "),
    ({**{t: "ignore" for t in data.TARGET_COLUMNS}, "hc_yield": "maximize", "hc_k": "maximize"},
     "profile names unknown targets ['hc_k']"),
    ({**{t: "ignore" for t in data.TARGET_COLUMNS}, "hc_yield": "upward"}, "unknown direction 'upward' for hc_yield"),
    ('{"hc_yield": ', "Expecting value: line 1 column 14 (char 13)"),
], ids=["missing-targets", "unknown-target", "unknown-direction", "not-json"])
def test_optimize_refusal_of_a_profile_names_the_file(workdir, capsys, directions, message):
    """Directions given as a string are written as they stand, to make a file that is not JSON."""
    csv, out = _train_for_optimize(workdir)
    profile = workdir / "prof.json"
    profile.write_text(directions if isinstance(directions, str) else json.dumps(directions), encoding="utf-8")
    assert run("optimize", "--data", csv, "--out", out, "--seed", 4, "--application", profile) == 1
    assert capsys.readouterr().err.startswith(f"error: profile file {profile}: {message}")
    assert not (out / "optimum.json").exists()


@pytest.mark.parametrize("content, kind", [("5", "int"), ('["hc_yield"]', "list"), ("null", "NoneType")])
def test_optimize_refuses_profile_that_is_not_an_object(workdir, capsys, content, kind):
    csv, out = _train_for_optimize(workdir)
    profile = workdir / "prof.json"
    profile.write_text(content, encoding="utf-8")
    assert run("optimize", "--data", csv, "--out", out, "--seed", 4, "--application", profile) == 1
    assert capsys.readouterr().err == (
        f"error: profile file {profile}: a profile file must hold a JSON object of target directions, got {kind}\n"
    )
    assert not (out / "optimum.json").exists()


# ---------------------------------------------------------------- evaluate

def test_evaluate_subcommand(workdir, capsys):
    csv, out = _train_for_optimize(workdir)
    assert run("evaluate", "--data", csv, "--out", out, "--seed", 4, "--model", "dtr") == 0
    rep = json.loads((out / "evaluation.json").read_text())
    assert set(rep["models"]["dtr"]) == set(data.TARGET_COLUMNS)
    for section in rep["models"]["dtr"].values():
        assert {"r2", "rmse", "mae", "n"} <= set(section)
        assert section["n"] == 100


def test_evaluate_skips_a_constant_target_and_scores_the_rest(workdir, capsys):
    csv, out = _train_for_optimize(workdir)
    lines = csv.read_text().splitlines()
    col = lines[0].split(",").index("hc_s")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[col] = "0.5"
    flat = workdir / "flat.csv"
    flat.write_text("\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run("evaluate", "--data", flat, "--out", out, "--seed", 4, "--model", "dtr") == 0
    rep = json.loads((out / "evaluation.json").read_text())["models"]["dtr"]
    assert rep.pop("hc_s") == {"skipped": "target is constant"}
    assert sorted(rep) == sorted(t for t in data.TARGET_COLUMNS if t != "hc_s")
    assert all(m["n"] == 100 for m in rep.values())
    assert "dtr   hc_s       skipped: target is constant\n" in capsys.readouterr().out


def test_evaluate_without_models_fails(workdir, capsys):
    csv = synth_csv(workdir, n=40, seed=4)
    out = workdir / "none"
    assert run("evaluate", "--data", csv, "--out", out, "--seed", 4) == 1
    assert "no model_" in capsys.readouterr().err
    assert not out.exists()


def _train_svr(workdir, seed=4):
    csv = synth_csv(workdir, n=100, seed=seed)
    out = workdir / "run"
    grid = grid_file(workdir, tree_entries=[], svr_entries=[{"c": 10.0, "epsilon": 0.1, "kernel": {"kind": "linear"}}])
    assert run("train", "--data", csv, "--out", out, "--seed", seed, "--model", "svr", "--grid", grid) == 0
    return csv, out


def _edit_model(out, edit, kind="dtr"):
    """Hand-edit the saved hc_yield model; returns the file's name."""
    path = out / f"model_{kind}_hc_yield.json"
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path.name


def _set_schema_version(version):
    def edit(obj):
        obj.pop("schema_version")
        if version is not None:
            obj["schema_version"] = version
    return edit


@pytest.mark.parametrize("version", [None, 2])
def test_evaluate_refuses_unknown_model_schema(workdir, capsys, version):
    csv, out = _train_for_optimize(workdir)
    name = _edit_model(out, _set_schema_version(version))
    assert run("evaluate", "--data", csv, "--out", out, "--seed", 4, "--model", "dtr") == 1
    err = capsys.readouterr().err
    assert f"schema_version {version!r} is not supported" in err
    assert name in err
    assert not (out / "evaluation.json").exists()


@pytest.mark.parametrize("version", [None, 2])
def test_explain_refuses_unknown_model_schema(workdir, capsys, version):
    csv, out = _train_for_optimize(workdir)
    name = _edit_model(out, _set_schema_version(version))
    assert run("explain", "--data", csv, "--out", out, "--seed", 4, "--model", "dtr", "--target", "hc_yield") == 1
    err = capsys.readouterr().err
    assert f"schema_version {version!r} is not supported" in err
    assert name in err
    assert not (out / "shap_dtr_hc_yield").exists()


@pytest.mark.parametrize("field, value", [
    ("means", float("nan")), ("means", float("inf")),
    ("stds", 0.0), ("stds", -1.0), ("stds", float("nan")), ("stds", float("inf")),
])
def test_evaluate_refuses_invalid_scaler(workdir, capsys, field, value):
    csv, out = _train_svr(workdir)
    name = _edit_model(out, lambda obj: obj["scaler_in"][field].__setitem__(10, value), "svr")
    assert run("evaluate", "--data", csv, "--out", out, "--seed", 4, "--model", "svr") == 1
    err = capsys.readouterr().err
    assert name in err and "water_wt" in err
    assert not (out / "evaluation.json").exists()


def _set_root(field, value):
    return lambda obj: obj["model"]["nodes"][0].__setitem__(field, value)


def _drop_last_scaler_column(obj):
    for field in ("means", "stds", "columns"):
        obj["scaler_in"][field].pop()


def _set(field, value):
    return lambda obj: obj.__setitem__(field, value)


def _edit_svr(edit):
    return lambda obj: edit(obj["model"])


def _set_first_leaf(field, value):
    def edit(obj):
        next(n for n in obj["model"]["nodes"] if n["kind"] == "leaf")[field] = value
    return edit


def _set_model(field, value):
    return lambda obj: obj["model"].__setitem__(field, value)


def _widen_scaler_out(obj):
    for field in ("means", "stds"):
        obj["scaler_out"][field].append(obj["scaler_out"][field][0])


@pytest.mark.parametrize("kind, edit, message", [
    ("dtr", _set_root("threshold", float("nan")), "node 0 threshold is not finite: nan"),
    ("dtr", _set_root("feature", -1), "node 0 splits on feature -1"),
    ("dtr", _set_root("feature", 11), "node 0 splits on feature 11"),
    ("dtr", _set_root("left", 999), "node 0 has a child outside"),
    ("svr", _drop_last_scaler_column, "model has 11 features, scaler_in 10"),
    ("svr", _set("scaler_in", None), "an svr model needs both scaler_in and scaler_out"),
    ("svr", _set("scaler_out", None), "an svr model needs both scaler_in and scaler_out"),
    ("svr", _widen_scaler_out, "scaler_out has 2 columns, not 1"),
    ("svr", _set("model_kind", "rf"), "model_kind 'rf' is neither 'dtr' nor 'svr'"),
    ("svr", _edit_svr(lambda m: m["dual_coeffs"].append(0.5)), "support_vectors has "),
    ("svr", _edit_svr(lambda m: m["sv_indices"].pop()), "sv_indices has "),
    ("svr", _edit_svr(lambda m: m["support_vectors"][0].__setitem__(0, float("inf"))),
     "support_vectors holds a value that is not finite"),
    ("svr", _edit_svr(lambda m: m["dual_coeffs"].__setitem__(0, float("nan"))),
     "dual_coeffs holds a value that is not finite"),
    ("svr", _edit_svr(lambda m: m.__setitem__("bias", float("nan"))), "bias holds a value that is not finite"),
    ("dtr", _set_first_leaf("value", float("nan")), "value is not finite: nan"),
    ("dtr", _set("target_mean", float("nan")), "target_mean nan is not finite"),
    ("dtr", _set("target_std", 0.0), "target_std 0.0 is not finite and > 0"),
    ("dtr", _set("target_std", float("inf")), "target_std inf is not finite and > 0"),
    ("dtr", _set("model", []), "model must be an object, got list"),
    ("dtr", _set_model("nodes", 5), "nodes must be a list, got int"),
    ("dtr", lambda obj: obj["model"]["nodes"].__setitem__(0, 5), "node 0 must be an object, got int"),
    ("dtr", _set_model("params", [6]), "tree params must be an object, got list"),
    ("dtr", lambda obj: obj["train_metrics"].__setitem__("r3", 1.0),
     "unknown field 'r3'; expected one of r2, rmse, mae, n"),
    ("dtr", _set("test_metrics", None), "metrics must be an object, got NoneType"),
    ("svr", lambda obj: obj["scaler_in"]["columns"].pop(), "scaler has 11 means and 10 columns"),
    ("svr", _set("scaler_out", 5), "scaler must be an object, got int"),
    ("svr", _set("model", "svr"), "model must be an object, got str"),
    ("svr", lambda obj: obj["scaler_in"].__setitem__("means", {"a": 1}), "scaler means must be a list, got dict"),
    ("svr", _set_model("support_vectors", {"a": 1}), "support_vectors must be a list, got dict"),
    ("svr", _set_model("sv_indices", {"a": 1}), "sv_indices must be a list, got dict"),
    ("dtr", _set_model("n_features", 11.9), "n_features must be an integer, got 11.9"),
    ("svr", _set_model("n_features", 11.9), "n_features must be an integer, got 11.9"),
    ("svr", _set_model("converged", "no"), "converged must be true or false, got str"),
    ("dtr", lambda obj: obj["params"].__setitem__("max_depth", 2), "params {'max_depth': 2, "),
    ("svr", _set("params", {"c": 1000.0, "epsilon": 0.1, "kernel": {"kind": "rbf", "gamma": 0.5}}),
     "differ from the model's own {'c': 10.0, "),
    ("svr", lambda obj: obj["scaler_in"]["means"].__setitem__(0, {"a": 1}), "scaler means[0] must be a number, got {'a': 1}"),
    ("dtr", _set("target_mean", {}), "target_mean must be a number, got {}"),
    ("svr", _edit_svr(lambda m: m["support_vectors"].__setitem__(0, [{"a": 1}] * 11)),
     "support_vectors[0][0] must be a number, got {'a': 1}"),
    ("svr", _edit_svr(lambda m: m["support_vectors"][0].pop()), "support_vectors holds lists of different lengths"),
    ("dtr", _set_root("threshold", "0.5"), "node 0 threshold must be a number, got '0.5'"),
    ("dtr", _set_first_leaf("value", {"a": 1}), "value must be a number, got {'a': 1}"),
    ("dtr", _set("target_mean", "55.0"), "target_mean must be a number, got '55.0'"),
    ("dtr", _set("cv_rmse", True), "cv_rmse must be a number, got True"),
    ("svr", _edit_svr(lambda m: m["sv_indices"].__setitem__(0, 1.5)), "sv_indices[0] must be an integer, got 1.5"),
    ("svr", lambda obj: obj["scaler_in"]["columns"].__setitem__(0, 5), "scaler columns[0] must be a string, got int"),
    ("svr", lambda obj: obj["scaler_in"]["stds"].__setitem__(0, "1.0"), "scaler stds[0] must be a number, got '1.0'"),
    ("dtr", _set_root("left", 1.5), "node 0 left must be an integer, got 1.5"),
    ("dtr", _set_root("feature", 2.7), "node 0 feature must be an integer, got 2.7"),
    ("dtr", lambda obj: next(n for n in obj["model"]["nodes"] if n["kind"] == "leaf").pop("value"), "has no 'value'"),
    ("dtr", lambda obj: obj["train_metrics"].__setitem__("r2", "x"), "r2 must be a number, got 'x'"),
    ("dtr", _set_root("left", 10**30), "node 0 has a child outside"),
    ("dtr", _set_root("feature", 10**30), f"node 0 splits on feature {10**30}"),
    ("dtr", _set_first_leaf("count", 10**30), f"count {10**30} is not in 1.."),
    ("svr", _edit_svr(lambda m: m.__setitem__("support_vectors", sum(m["support_vectors"], []))),
     "support_vectors has shape ("),
    ("svr", _edit_svr(lambda m: m.__setitem__("dual_coeffs", [[v] for v in m["dual_coeffs"]])),
     "dual_coeffs has shape ("),
    ("svr", lambda obj: obj.pop("model_kind"), "has no field 'model_kind'"),
    ("dtr", lambda obj: obj.pop("target_std"), "has no field 'target_std'"),
    ("dtr", lambda obj: obj["train_metrics"].pop("rmse"), "has no field 'rmse'"),
    ("dtr", lambda obj: obj.pop("scaler_in"), "has no field 'scaler_in'"),
    ("svr", lambda obj: obj.pop("scaler_out"), "has no field 'scaler_out'"),
    ("dtr", _set("scaler_in", {}), "has no field 'means'"),
    ("svr", _set("scaler_out", {}), "has no field 'means'"),
    ("svr", lambda obj: obj["scaler_in"].pop("columns"), "has no field 'columns'"),
    ("svr", lambda obj: obj["scaler_out"].pop("columns"), "has no field 'columns'"),
    ("svr", _edit_svr(lambda m: m.pop("sv_indices")), "has no field 'sv_indices'"),
    ("svr", _edit_svr(lambda m: m.pop("converged")), "has no field 'converged'"),
    ("dtr", _set_root("kind", "lief"), "node 0 kind 'lief' is neither 'leaf' nor 'split'"),
    ("dtr", _set_first_leaf("feature", 0), "kind 'leaf' does not read field 'feature'"),
], ids=["threshold-nan", "feature-negative", "feature-n_features", "left-past-end", "short-scaler",
        "svr-no-scaler-in", "svr-no-scaler-out", "wide-scaler-out", "unknown-model-kind", "svr-extra-dual",
        "svr-short-sv-indices", "svr-sv-inf", "svr-dual-nan", "svr-bias-nan", "leaf-value-nan", "target-mean-nan",
        "target-std-zero", "target-std-inf", "model-list", "nodes-int", "node-int", "tree-params-list",
        "metrics-unknown-field", "metrics-null", "short-scaler-columns", "scaler-out-int",
        "svr-model-string", "scaler-means-object", "svr-sv-object", "svr-sv-indices-object", "dtr-n-features-float",
        "svr-n-features-float", "svr-converged-string", "dtr-params-differ", "svr-params-differ",
        "scaler-means-entry-object", "target-mean-object", "svr-sv-row-of-objects", "svr-sv-ragged",
        "threshold-string", "leaf-value-object", "target-mean-string", "cv-rmse-bool", "svr-sv-indices-float",
        "scaler-columns-int", "scaler-stds-string", "left-float", "feature-float", "leaf-no-value",
        "metrics-r2-string", "left-past-c-long", "feature-past-c-long", "count-past-c-long", "svr-sv-flat",
        "svr-dual-nested", "no-model-kind", "no-target-std", "metrics-no-rmse", "no-scaler-in", "svr-no-scaler-out-key",
        "dtr-scaler-in-empty", "svr-scaler-out-empty", "svr-no-scaler-columns", "svr-no-scaler-out-columns",
        "svr-no-sv-indices", "svr-no-converged", "node-kind-misspelt", "leaf-with-feature"])
def test_evaluate_refuses_malformed_tree(workdir, capsys, kind, edit, message):
    """A tree, or a model file around it, that no fit writes is refused, naming the file."""
    csv, out = (_train_for_optimize if kind == "dtr" else _train_svr)(workdir)
    name = _edit_model(out, edit, kind)
    assert run("evaluate", "--data", csv, "--out", out, "--seed", 4, "--model", kind) == 1
    err = capsys.readouterr().err
    assert name in err and message in err
    assert not (out / "evaluation.json").exists()


@pytest.mark.parametrize("command", ["evaluate", "explain"])
@pytest.mark.parametrize("mismatch", ["kind", "target"])
def test_refuses_a_model_file_not_holding_the_model_its_name_says(workdir, capsys, command, mismatch):
    """A model file is read only as the model kind and target its name gives."""
    csv, out = _train_svr(workdir)
    if mismatch == "kind":
        name, kind, message = "model_dtr_hc_yield.json", "dtr", "holds the svr model of 'hc_yield', not the dtr model"
        (out / name).write_bytes((out / "model_svr_hc_yield.json").read_bytes())
    else:
        name, kind, message = _edit_model(out, _set("target", "hc_hhv"), "svr"), "svr", "holds the svr model of 'hc_hhv'"
    target = ("--target", "hc_yield") if command == "explain" else ()
    assert run(command, "--data", csv, "--out", out, "--seed", 4, "--model", kind, *target) == 1
    err = capsys.readouterr().err
    assert name in err and message in err and "of 'hc_yield' its name says" in err
    assert not (out / "evaluation.json").exists() and not (out / f"shap_{kind}_hc_yield").exists()


@pytest.mark.parametrize("command", ["evaluate", "explain"])
def test_refuses_a_saved_polynomial_kernel_naming_the_file(workdir, capsys, command):
    """A model file whose params name the polynomial kernel this version no longer fits is refused before any
    of its fields are read, naming the file and the kind."""
    csv, out = _train_svr(workdir)
    polynomial = {"c": 10.0, "epsilon": 0.1, "kernel": {"kind": "polynomial", "degree": 2, "coef0": 1.0}}

    def edit(obj):
        obj["params"] = obj["model"]["params"] = polynomial

    name = _edit_model(out, edit, "svr")
    target = ("--target", "hc_yield") if command == "explain" else ()
    assert run(command, "--data", csv, "--out", out, "--seed", 4, "--model", "svr", *target) == 1
    err = capsys.readouterr().err
    assert name in err and "kernel kind 'polynomial' is not supported" in err
    assert not (out / "evaluation.json").exists() and not (out / "shap_svr_hc_yield").exists()


def test_optimize_refuses_a_model_with_zero_target_std(workdir, capsys):
    """A target_std no fit writes is refused as input, naming the file, not
    left to divide by zero in the GA's fitness."""
    csv, out = _train_for_optimize(workdir)
    name = _edit_model(out, _set("target_std", 0.0))
    assert run("optimize", "--data", csv, "--out", out, "--seed", 4, "--application", "energy") == 1
    err = capsys.readouterr().err
    assert name in err and "target_std 0.0 is not finite and > 0" in err
    assert not (out / "optimum.json").exists()


def test_every_json_artifact_carries_provenance(workdir):
    """The CLI stamps schema_version, tool_version and seed on every JSON it writes."""
    csv, out = _train_for_optimize(workdir, seed=5)
    for argv in (("stats",), ("evaluate", "--model", "dtr"), ("optimize",)):
        assert run(argv[0], "--data", csv, "--out", out, "--seed", 5, *argv[1:]) == 0
    names = ["report.json", "optimum.json", "evaluation.json", "factors.json", "correlation_matrix.json"]
    models = sorted(p.name for p in out.glob("model_*.json"))
    assert len(models) == 10
    for name in names + models:
        obj = json.loads((out / name).read_text())
        assert (obj["schema_version"], obj["tool_version"], obj["seed"]) == (1, __version__, 5), name
