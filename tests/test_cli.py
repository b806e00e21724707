import argparse
import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from efftree.cli import build_parser, main
from efftree.data import Categorical, Continuous, Dataset, Schema, load_csv, write_csv
from efftree.select import fit_tree
from efftree.simulate import SimSetting, generate
from efftree.tree import GrowConfig, schema_to_dict, tree_from_dict


@pytest.fixture(scope="module")
def heterog_csv(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    data, _ = generate(SimSetting("heterogeneous", n=800, seed=51))
    csv_path = base / "train.csv"
    write_csv(data, csv_path)
    schema_path = base / "schema.json"
    schema_path.write_text(json.dumps(schema_to_dict(data.schema)), encoding="utf-8")
    return base, csv_path, schema_path, data


def run_cli(args):
    return main([str(a) for a in args])


def test_help_lists_every_fit_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["fit", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for flag in ("--data", "--schema", "--estimator", "--propensity-spec", "--outcome-spec",
                 "--scope", "--lambda", "--train-frac", "--min-node", "--min-per-arm",
                 "--max-depth", "--epsilon", "--seed", "--bootstrap", "--out"):
        assert flag in text
    assert "default" in text


def test_every_option_with_a_default_value_shows_the_default_in_help():
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    silent = [f"{name} {action.option_strings[0]}"
              for name, sub in subcommands.choices.items() for action in sub._actions
              if action.option_strings and not action.required and action.nargs != 0
              and action.default is not None and "(default" not in (action.help or "")]
    assert silent == []


def test_fit_g_homogeneous_single_node(tmp_path, capsys):
    data, _ = generate(SimSetting("homogeneous", n=800, seed=53))
    csv_path = tmp_path / "homog.csv"
    write_csv(data, csv_path)
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema_to_dict(data.schema)), encoding="utf-8")
    code = run_cli([
        "fit", "--data", csv_path, "--schema", schema_path,
        "--estimator", "g",
        "--outcome-spec", "1 + A + lt(x1,0) + exp(x2) + gt(x4,0) + cube(x5)",
        "--seed", 4, "--out", tmp_path,
    ])
    assert code == 0
    tree = json.loads((tmp_path / "tree.json").read_text())
    assert len(tree["nodes"]) == 1
    assert (tmp_path / "tree.txt").exists()
    assert (tmp_path / "selection.json").exists()
    out = capsys.readouterr().out
    assert "terminal" in out and "effect" in out


def test_fit_grows_prunes_and_renders_a_tree_deeper_than_the_recursion_limit(tmp_path, capsys):
    # sorted x, alternating arms and an effect exp(5x): each node splits off
    # one pair of rows at its end, so the tree is a chain over the rows
    rng = np.random.default_rng(7)
    n = 3000
    x = np.sort(rng.random(n))
    A = np.arange(n) % 2
    y = A * np.exp(5.0 * x) + 0.001 * rng.standard_normal(n)
    csv_path = tmp_path / "chain.csv"
    csv_path.write_text("x,A,Y\n" + "".join(f"{float(x[i])!r},{A[i]},{float(y[i])!r}\n"
                                            for i in range(n)), encoding="utf-8")
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps({"covariates": [{"name": "x", "kind": "continuous"}],
                                       "treatment": "A", "outcome": "Y"}), encoding="utf-8")
    code = run_cli(["fit", "--data", csv_path, "--schema", schema_path, "--estimator", "g",
                    "--outcome-spec", "1 + A + x + A:x", "--min-node", 2, "--min-per-arm", 1,
                    "--max-depth", 5000, "--train-frac", 1, "--out", tmp_path / "fit"])
    capsys.readouterr()
    assert code == 0
    tree = json.loads((tmp_path / "fit" / "tree.json").read_text())
    assert max(node["depth"] for node in tree["nodes"]) >= max(1000, sys.getrecursionlimit())


def test_fit_requires_propensity_for_ipw(heterog_csv):
    base, csv_path, schema_path, _ = heterog_csv
    code = run_cli(["fit", "--data", csv_path, "--schema", schema_path,
                    "--estimator", "ipw", "--out", base])
    assert code == 2


def test_fit_bad_data_path(heterog_csv, tmp_path):
    base, csv_path, schema_path, _ = heterog_csv
    code = run_cli(["fit", "--data", tmp_path / "missing.csv", "--schema", schema_path,
                    "--estimator", "g", "--outcome-spec", "1 + A", "--out", tmp_path])
    assert code == 3


def test_fit_too_many_categorical_levels_is_a_data_error(tmp_path, capsys):
    levels = tuple(f"L{i}" for i in range(16))
    schema = Schema((("x1", Continuous()), ("site", Categorical(levels))),
                    treatment="A", outcome="Y")
    rng = np.random.default_rng(7)
    n = 160
    data = Dataset(schema, {"x1": rng.standard_normal(n), "site": np.arange(n) % 16},
                   np.arange(n) % 2, rng.standard_normal(n))
    csv_path = tmp_path / "wide.csv"
    write_csv(data, csv_path)
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema_to_dict(schema)), encoding="utf-8")
    code = run_cli(["fit", "--data", csv_path, "--schema", schema_path,
                    "--estimator", "g", "--outcome-spec", "1 + A + x1", "--out", tmp_path])
    assert code == 3
    assert "'site'" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("spec_args", [
    ["--estimator", "ipw", "--propensity-spec", "1 + exp(x1)"],
    ["--estimator", "g", "--outcome-spec", "1 + A + exp(x1) + x2"],
], ids=["ipw", "g"])
def test_fit_spec_column_that_overflows_is_a_data_error(spec_args, tmp_path, capsys):
    data, _ = generate(SimSetting("heterogeneous", n=400, seed=51))
    x1 = data.covariates["x1"].copy()
    x1[123] = 800.0  # exp(800) is inf
    data = Dataset(data.schema, {**data.covariates, "x1": x1}, data.treatment, data.outcome)
    csv_path = tmp_path / "overflow.csv"
    write_csv(data, csv_path)
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema_to_dict(data.schema)), encoding="utf-8")
    out = tmp_path / "out"
    code = run_cli(["fit", "--data", csv_path, "--schema", schema_path, *spec_args,
                    "--out", out])
    assert code == 3
    err = capsys.readouterr().err
    assert "bad data" in err and "'exp(x1)'" in err and "1 of 400 rows" in err
    assert not out.exists()


OUTCOME_WITH_X1 = ["--outcome-spec", "1 + A + x1 + x3 + A:x2"]


@pytest.mark.parametrize("spec_args,code", [
    (["--estimator", "ipw", "--propensity-spec", "1 + x1 + x2 + x3"], 3),
    (["--estimator", "g", *OUTCOME_WITH_X1], 3),
    (["--estimator", "dr", "--propensity-spec", "1 + x2 + x3", *OUTCOME_WITH_X1], 3),
    (["--estimator", "ipw", "--propensity-spec", "1 + x2 + x3"], 0),
], ids=["ipw", "g", "dr", "ipw-without-x1"])
def test_fit_spec_column_too_large_to_square_is_a_data_error(spec_args, code, tmp_path, capsys):
    # finite, but its square overflows, and so would every fit's normal
    # equations or information matrix
    data, _ = generate(SimSetting("heterogeneous", n=400, seed=51))
    x1 = data.covariates["x1"].copy()
    x1[123] = 1e308
    data = Dataset(data.schema, {**data.covariates, "x1": x1}, data.treatment, data.outcome)
    csv_path = tmp_path / "huge.csv"
    write_csv(data, csv_path)
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema_to_dict(data.schema)), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(["fit", "--data", csv_path, "--schema", schema_path, *spec_args,
                    "--max-depth", 2, "--out", out]) == code
    if code == 3:
        assert "bad data: design column 'x1' is too large" in capsys.readouterr().err
        assert not out.exists()


def test_fit_bootstrap_dropping_every_replicate_is_a_fit_failure(tmp_path, capsys):
    # Two-row terminals with one row per arm: every resample leaves some
    # terminal without an arm, so every replicate is dropped.
    data, _ = generate(SimSetting("heterogeneous", n=200, seed=51))
    csv_path = tmp_path / "small.csv"
    write_csv(data, csv_path)
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema_to_dict(data.schema)), encoding="utf-8")
    code = run_cli(["fit", "--data", csv_path, "--schema", schema_path,
                    "--estimator", "ipw", "--propensity-spec", "1",
                    "--min-node", 2, "--min-per-arm", 1, "--lambda", 0, "--train-frac", 1,
                    "--bootstrap", 2, "--out", tmp_path])
    assert code == 4
    assert "all bootstrap replicates were dropped" in capsys.readouterr().err
    assert not (tmp_path / "tree.json").exists()


def test_fit_lets_a_bug_in_growth_propagate(heterog_csv, tmp_path, monkeypatch):
    # only FitError is a fit failure (exit 4); any other error is a bug
    from efftree import select

    def unfinished(*args, **kwargs):
        raise NotImplementedError("unfinished growth")

    monkeypatch.setattr(select, "grow_max_tree", unfinished)
    base, csv_path, schema_path, _ = heterog_csv
    with pytest.raises(NotImplementedError, match="unfinished growth"):
        run_cli(["fit", "--data", csv_path, "--schema", schema_path,
                 "--estimator", "g", "--outcome-spec", "1 + A + x1", "--out", tmp_path])
    assert not (tmp_path / "tree.json").exists()


@pytest.mark.parametrize("flags", [["--bootstrap", 5, "--level", 1.5], ["--bootstrap", -5]])
def test_fit_rejects_bad_bootstrap_arguments_before_fitting(heterog_csv, tmp_path, flags):
    base, csv_path, schema_path, _ = heterog_csv
    out = tmp_path / "out"
    code = run_cli(["fit", "--data", csv_path, "--schema", schema_path,
                    "--estimator", "g", "--outcome-spec", "1 + A + x1", "--out", out] + flags)
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("lam", ["nan", "inf", "-1"])
def test_fit_rejects_a_bad_lambda_before_reading_data(heterog_csv, tmp_path, lam, capsys):
    base, csv_path, schema_path, _ = heterog_csv
    out = tmp_path / "out"
    code = run_cli(["fit", "--data", tmp_path / "missing.csv", "--schema", schema_path,
                    "--estimator", "g", "--outcome-spec", "1 + A + x1", "--lambda", lam,
                    "--out", out])
    assert code == 2  # a missing data file would give 3
    assert "--lambda" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("data_name", ["train.csv", "missing.csv"])
def test_fit_rejects_a_negative_seed_before_reading_data(heterog_csv, tmp_path, data_name, capsys):
    base, csv_path, schema_path, _ = heterog_csv
    out = tmp_path / "out"
    code = run_cli(["fit", "--data", base / data_name, "--schema", schema_path,
                    "--estimator", "g", "--outcome-spec", "1 + A + x1", "--seed", -1,
                    "--out", out])
    assert code == 2  # a missing data file would give 3
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_a_negative_seed(capsys):
    code = run_cli(["simulate", "--setting", "homog", "--algo", "g", "--reps", 1, "--n", 200,
                    "--threads", 1, "--seed", -1])
    assert code == 2  # simulating first would fail every replicate: 4
    assert "seed must be >= 0" in capsys.readouterr().err


def test_an_unknown_log_level_is_a_configuration_error(tmp_path):
    # in a subprocess: basicConfig does nothing once pytest has put handlers
    # on the root logger
    argv = [sys.executable, "-m", "efftree.cli", "predict", "--tree", str(tmp_path / "tree.json"),
            "--data", str(tmp_path / "data.csv")]
    bad = subprocess.run(argv, capture_output=True, text=True,
                         env={**os.environ, "EFFTREE_LOGLEVEL": "FOO"})
    assert bad.returncode == 2
    assert "EFFTREE_LOGLEVEL" in bad.stderr
    assert "Traceback" not in bad.stderr
    known = subprocess.run(argv, capture_output=True, text=True,
                           env={**os.environ, "EFFTREE_LOGLEVEL": "INFO"})
    assert known.returncode == 3  # the missing tree file


@pytest.mark.parametrize("lam", ["nan", "-1"])
def test_simulate_rejects_a_bad_lambda(lam, capsys):
    code = run_cli(["simulate", "--setting", "homog", "--algo", "g", "--reps", 1, "--n", 200,
                    "--threads", 1, "--lambda", lam])
    assert code == 2  # simulating first would fail every replicate: 4
    assert "--lambda" in capsys.readouterr().err


def test_fit_train_frac_1_selects_on_every_row(heterog_csv, tmp_path, caplog):
    base, csv_path, schema_path, generated = heterog_csv
    spec = "1 + A + lt(x1,0) + exp(x2) + A:gt(x4,0) + cube(x5)"
    code = run_cli(["fit", "--data", csv_path, "--schema", schema_path, "--estimator", "g",
                    "--outcome-spec", spec, "--train-frac", 1, "--lambda", 2, "--out", tmp_path])
    assert code == 0
    assert "no held-out rows" in caplog.text

    data = load_csv(csv_path, generated.schema)
    config = GrowConfig.from_strings("g", "A", outcome=spec)
    _, _, trace = fit_tree(data, np.arange(data.n), np.arange(data.n), config, 2.0)
    assert len(trace.complexities) > 1
    expected = json.dumps(trace.to_dict(), sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "selection.json").read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("estimator,specs", [
    ("g", ["--outcome-spec", "1 + A + x1"]),
    ("ipw", ["--propensity-spec", "1 + x1"]),
    ("dr", ["--propensity-spec", "1 + x1", "--outcome-spec", "1 + A + x1"]),
])
def test_fit_on_build_rows_of_one_treatment_arm_is_a_data_error(estimator, specs, tmp_path,
                                                                capsys):
    rng = np.random.default_rng(3)
    n = 200
    schema = Schema((("x1", Continuous()),), treatment="A", outcome="Y")
    data = Dataset(schema, {"x1": rng.standard_normal(n)}, np.ones(n, dtype=int),
                   rng.standard_normal(n))
    csv_path = tmp_path / "treated.csv"
    write_csv(data, csv_path)
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema_to_dict(schema)), encoding="utf-8")
    code = run_cli(["fit", "--data", csv_path, "--schema", schema_path,
                    "--estimator", estimator, *specs, "--out", tmp_path / "out"])
    assert code == 3
    err = capsys.readouterr().err
    assert "'A'" in err and "160 build rows" in err
    assert not (tmp_path / "out").exists()


def test_fit_reads_data_and_schema_files_that_start_with_a_byte_order_mark(heterog_csv,
                                                                         tmp_path, capsys):
    base, csv_path, schema_path, _ = heterog_csv
    bom_csv, bom_schema = tmp_path / "bom.csv", tmp_path / "bom.json"
    bom_csv.write_bytes(b"\xef\xbb\xbf" + csv_path.read_bytes())
    bom_schema.write_bytes(b"\xef\xbb\xbf" + schema_path.read_bytes())
    fits = {}
    for name, data_path, schema_file in (("plain", csv_path, schema_path),
                                         ("bom", bom_csv, bom_schema)):
        code = run_cli(["fit", "--data", data_path, "--schema", schema_file, "--estimator", "g",
                        "--outcome-spec", "1 + A + x1", "--out", tmp_path / name])
        assert code == 0
        fits[name] = (tmp_path / name / "tree.json").read_bytes()
    assert fits["bom"] == fits["plain"]


def test_fit_schema_that_is_not_utf8_is_a_configuration_error(heterog_csv, tmp_path, capsys):
    base, csv_path, schema_path, _ = heterog_csv
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff" + schema_path.read_bytes())
    code = run_cli(["fit", "--data", csv_path, "--schema", latin, "--estimator", "g",
                    "--outcome-spec", "1 + A + x1", "--out", tmp_path / "out"])
    assert code == 2
    assert "bad schema file" in capsys.readouterr().err


def test_fit_binomial_family_rejects_non_binary_outcome(heterog_csv, tmp_path, capsys):
    base, csv_path, schema_path, _ = heterog_csv
    code = run_cli(["fit", "--data", csv_path, "--schema", schema_path,
                    "--estimator", "g", "--outcome-spec", "1 + A + x1",
                    "--outcome-family", "binomial", "--out", tmp_path])
    assert code == 3
    assert "'Y'" in capsys.readouterr().err


def test_fit_deterministic_artifacts(heterog_csv, tmp_path):
    base, csv_path, schema_path, _ = heterog_csv
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = run_cli([
            "fit", "--data", csv_path, "--schema", schema_path,
            "--estimator", "dr",
            "--propensity-spec", "1 + x1 + x2 + x3",
            "--outcome-spec", "1 + A + lt(x1,0) + exp(x2) + A:gt(x4,0) + cube(x5)",
            "--seed", 12, "--bootstrap", 30, "--out", out,
        ])
        assert code == 0
        outs.append(out)
    for artifact in ("tree.json", "tree.txt", "selection.json", "bootstrap.json"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def test_predict_round_trip(heterog_csv, tmp_path, capsys):
    base, csv_path, schema_path, data = heterog_csv
    out = tmp_path / "fit"
    code = run_cli([
        "fit", "--data", csv_path, "--schema", schema_path,
        "--estimator", "g",
        "--outcome-spec", "1 + A + lt(x1,0) + exp(x2) + A:gt(x4,0) + cube(x5)",
        "--seed", 3, "--out", out,
    ])
    assert code == 0
    capsys.readouterr()
    code = run_cli(["predict", "--tree", out / "tree.json", "--data", csv_path])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert header[-2:] == ["effect", "terminal_id"]
    assert len(lines) == data.n + 1

    tree = tree_from_dict(json.loads((out / "tree.json").read_text()))
    expected = tree.predict(data)
    got = np.array([float(line.split(",")[-2]) for line in lines[1:]])
    assert got == pytest.approx(expected)


@pytest.fixture(scope="module")
def fitted_tree(heterog_csv):
    base, csv_path, schema_path, _ = heterog_csv
    out = base / "fitted"
    code = run_cli(["fit", "--data", csv_path, "--schema", schema_path, "--estimator", "g",
                    "--outcome-spec", "1 + A + lt(x1,0) + exp(x2) + A:gt(x4,0) + cube(x5)",
                    "--seed", 3, "--out", out])
    assert code == 0
    return json.loads((out / "tree.json").read_text(encoding="utf-8"))


def _split(payload):
    return next(nd for nd in payload["nodes"] if nd["rule"] is not None)


def _leaf(payload):
    return next(nd for nd in payload["nodes"] if nd["rule"] is None)


def _rekind(payload, covariate_kind, **rule):
    """Declare the first split's covariate ``covariate_kind`` with levels
    a, b, c and replace that split's rule by ``rule``."""
    nd = _split(payload)
    col = next(c for c in payload["schema"]["covariates"] if c["name"] == nd["rule"]["column"])
    col.update(kind=covariate_kind, levels=["a", "b", "c"])
    nd["rule"] = {"column": col["name"], "column_index": nd["rule"]["column_index"], **rule}


def _child_splits_to_the_root(payload):
    """Give the first split's left child that split's rule, with the root as
    its left child: a cycle through the root."""
    nd = _split(payload)
    child = next(c for c in payload["nodes"] if c["id"] == nd["left"])
    child.update(rule=nd["rule"], statistic=nd["statistic"], left=payload["root"],
                 right=nd["right"])


def _ids_as_strings(payload):
    payload["root"] = str(payload["root"])
    for nd in payload["nodes"]:
        nd.update({key: str(nd[key]) for key in ("id", "left", "right") if nd[key] is not None})


TREE_CORRUPTIONS = {
    "root-not-a-node": lambda p: p.update(root=999),
    "child-not-a-node": lambda p: _split(p).update(left=999),
    "internal-node-without-a-child": lambda p: _split(p).update(right=None),
    "terminal-node-with-a-child": lambda p: _leaf(p).update(left=p["root"]),
    "split-without-statistic": lambda p: _split(p).update(statistic=None),
    "leaf-with-statistic": lambda p: _leaf(p).update(statistic=1.0),
    "rule-column-not-a-covariate": lambda p: _split(p)["rule"].update(column="nope"),
    "rule-column-index-wrong": lambda p: _split(p)["rule"].update(
        column_index=_split(p)["rule"]["column_index"] + 1),
    "threshold-on-categorical": lambda p: _rekind(p, "categorical", kind="threshold",
                                                  threshold=0.0),
    "subset-on-continuous": lambda p: _split(p)["rule"].update(
        kind="subset", left_levels=["a"], right_levels=["b"]),
    "subset-with-undeclared-level": lambda p: _rekind(p, "categorical", kind="subset",
                                                      left_levels=["a"], right_levels=["z"]),
    "subset-sides-share-a-level": lambda p: _rekind(p, "categorical", kind="subset",
                                                    left_levels=["a"], right_levels=["a"]),
    "ordinal-cut-on-categorical": lambda p: _rekind(p, "categorical", kind="ordinal_cut", cut=0),
    "ordinal-cut-outside-levels": lambda p: _rekind(p, "ordinal", kind="ordinal_cut", cut=2),
    "effect-a-string": lambda p: _leaf(p).update(effect="1.5"),
    "effect-null": lambda p: _leaf(p).update(effect=None),
    "mu1-a-bool": lambda p: _leaf(p).update(mu1=True),
    "mu0-a-list": lambda p: _split(p).update(mu0=[0.0]),
    "n-a-float": lambda p: _leaf(p).update(n=10.5),
    "depth-a-string": lambda p: _split(p).update(depth="0"),
    "statistic-a-string": lambda p: _split(p).update(statistic="large"),
    "node-ids-strings": _ids_as_strings,
    "threshold-nan": lambda p: _split(p)["rule"].update(threshold=float("nan")),
    "left-levels-a-string": lambda p: _rekind(p, "categorical", kind="subset",
                                              left_levels="ab", right_levels=["c"]),
    "cut-a-bool": lambda p: _rekind(p, "ordinal", kind="ordinal_cut", cut=True),
    "effect-nan": lambda p: _leaf(p).update(effect=float("nan")),
    "mu1-infinite": lambda p: _leaf(p).update(mu1=float("inf")),
    "mu0-minus-infinite": lambda p: _split(p).update(mu0=float("-inf")),
    "statistic-nan": lambda p: _split(p).update(statistic=float("nan")),
    "effect-beyond-float-range": lambda p: _leaf(p).update(effect=10**400),
    "seed-negative": lambda p: p["config"].update(seed=-1),
    "propensity-spec-with-treatment": lambda p: p["config"].update(propensity_spec="1 + A + x1"),
    "child-an-ancestor": _child_splits_to_the_root,
    "children-the-same-node": lambda p: _split(p).update(right=_split(p)["left"]),
    "node-not-under-the-root": lambda p: p["nodes"].append(
        {**_leaf(p), "id": max(nd["id"] for nd in p["nodes"]) + 1}),
    "node-id-duplicated": lambda p: p["nodes"].append(copy.deepcopy(_leaf(p))),
}


@pytest.mark.parametrize("corrupt", TREE_CORRUPTIONS.values(), ids=TREE_CORRUPTIONS.keys())
def test_predict_rejects_a_malformed_tree_file(fitted_tree, heterog_csv, tmp_path, corrupt):
    payload = copy.deepcopy(fitted_tree)
    corrupt(payload)
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(payload), encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "efftree.cli", "predict", "--tree", str(tree_path),
                             "--data", str(heterog_csv[1])], capture_output=True, text=True)
    assert result.returncode == 2
    assert "bad tree file" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("name, message", [
    ("child-an-ancestor", "reached twice"),
    ("children-the-same-node", "reached twice"),
    ("node-not-under-the-root", "not reached from the root"),
    ("node-id-duplicated", "duplicate tree node id"),
    ("split-without-statistic", "a statistic exactly when it has a rule"),
    ("leaf-with-statistic", "a statistic exactly when it has a rule"),
])
def test_tree_reader_names_the_structure_fault(fitted_tree, name, message):
    payload = copy.deepcopy(fitted_tree)
    TREE_CORRUPTIONS[name](payload)
    with pytest.raises(ValueError, match=message):
        tree_from_dict(payload)


def test_predict_rejects_a_tree_file_that_is_not_an_object(heterog_csv, tmp_path):
    tree_path = tmp_path / "tree.json"
    tree_path.write_text("[]", encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "efftree.cli", "predict", "--tree", str(tree_path),
                             "--data", str(heterog_csv[1])], capture_output=True, text=True)
    assert result.returncode == 2
    assert "bad tree file" in result.stderr
    assert "Traceback" not in result.stderr


def test_predict_into_a_reader_that_closes_early_exits_1_without_a_traceback(fitted_tree,
                                                                             tmp_path):
    # 5000 rows of output are far more than a pipe holds, so predict is
    # still writing when the reader closes after three lines
    data, _ = generate(SimSetting("heterogeneous", n=5000, seed=52))
    csv_path = tmp_path / "rows.csv"
    write_csv(data, csv_path)
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(fitted_tree), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, "-m", "efftree.cli", "predict", "--tree",
                             str(tree_path), "--data", str(csv_path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert lines[0].rstrip().endswith(b"effect,terminal_id") and len(lines[2].split(b",")) > 2
    assert stderr == b""


@pytest.mark.parametrize("schema", [[], {"covariates": 5, "treatment": "A", "outcome": "Y"}],
                         ids=["list", "covariates-not-a-list"])
def test_fit_rejects_a_schema_file_of_the_wrong_shape(heterog_csv, tmp_path, schema):
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema), encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "efftree.cli", "fit", "--data", str(heterog_csv[1]),
                             "--schema", str(schema_path), "--estimator", "g",
                             "--outcome-spec", "1 + A", "--out", str(tmp_path / "out")],
                            capture_output=True, text=True)
    assert result.returncode == 2
    assert "bad schema file" in result.stderr
    assert "Traceback" not in result.stderr


SCHEMA_NAME_CORRUPTIONS = {
    "treatment-not-a-string": lambda s: s.update(treatment=5),
    "outcome-not-a-string": lambda s: s.update(outcome=None),
    "covariate-name-not-a-string": lambda s: s["covariates"][0].update(name=1),
    "levels-a-string": lambda s: s["covariates"].append(
        {"name": "site", "kind": "categorical", "levels": "ABC"}),
    "level-not-a-string": lambda s: s["covariates"].append(
        {"name": "grade", "kind": "ordinal", "levels": ["lo", 2]}),
}


@pytest.mark.parametrize("corrupt", SCHEMA_NAME_CORRUPTIONS.values(),
                         ids=SCHEMA_NAME_CORRUPTIONS.keys())
def test_schema_names_and_levels_must_be_strings(heterog_csv, fitted_tree, tmp_path, corrupt):
    # a name or level that is not a string is a bad schema (exit 2), for fit
    # and for predict, never a traceback while the CSV is read
    _assert_bad_schema(heterog_csv, fitted_tree, tmp_path, corrupt)


@pytest.mark.parametrize("level", [" B", "B ", "", "NA", "nan"])
def test_schema_levels_no_csv_can_hold_are_bad_schemas(heterog_csv, fitted_tree, tmp_path,
                                                       level):
    # a padded level reads back stripped and a missing-token level as a
    # missing cell, so neither survives a CSV round trip
    _assert_bad_schema(heterog_csv, fitted_tree, tmp_path, lambda s: s["covariates"].append(
        {"name": "site", "kind": "categorical", "levels": ["A", level]}))


def _assert_bad_schema(heterog_csv, fitted_tree, tmp_path, corrupt):
    """``efftree fit`` with the corrupted schema file and ``efftree predict``
    with a tree file holding it both exit 2 without a traceback."""
    schema = schema_to_dict(heterog_csv[3].schema)
    corrupt(schema)
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema), encoding="utf-8")
    fit = subprocess.run([sys.executable, "-m", "efftree.cli", "fit", "--data", str(heterog_csv[1]),
                          "--schema", str(schema_path), "--estimator", "g",
                          "--outcome-spec", "1 + A", "--out", str(tmp_path / "out")],
                         capture_output=True, text=True)
    assert fit.returncode == 2
    assert "bad schema file" in fit.stderr
    assert "Traceback" not in fit.stderr

    payload = copy.deepcopy(fitted_tree)
    payload["schema"] = schema
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(payload), encoding="utf-8")
    predict = subprocess.run([sys.executable, "-m", "efftree.cli", "predict", "--tree",
                              str(tree_path), "--data", str(heterog_csv[1])],
                             capture_output=True, text=True)
    assert predict.returncode == 2
    assert "bad tree file" in predict.stderr
    assert "Traceback" not in predict.stderr


def _run_module(*argv):
    return subprocess.run([sys.executable, "-m", "efftree.cli", *map(str, argv)],
                          capture_output=True, text=True)


def _not_utf8(csv_path, tmp_path):
    """A copy of ``csv_path`` whose second line starts with a byte that is not UTF-8."""
    lines = csv_path.read_bytes().split(b"\n")
    lines[1] = b"\xff" + lines[1]
    path = tmp_path / "latin.csv"
    path.write_bytes(b"\n".join(lines))
    return path


UNREADABLE_INPUTS = {
    "fit-data-a-directory": lambda d, t, csv, schema, tree: (
        "fit", "--data", d, "--schema", schema),
    "fit-schema-a-directory": lambda d, t, csv, schema, tree: (
        "fit", "--data", csv, "--schema", d),
    "fit-data-not-utf8": lambda d, t, csv, schema, tree: (
        "fit", "--data", _not_utf8(csv, t), "--schema", schema),
    "predict-tree-a-directory": lambda d, t, csv, schema, tree: (
        "predict", "--tree", d, "--data", csv),
    "predict-data-a-directory": lambda d, t, csv, schema, tree: (
        "predict", "--tree", tree, "--data", d),
    "predict-data-not-utf8": lambda d, t, csv, schema, tree: (
        "predict", "--tree", tree, "--data", _not_utf8(csv, t)),
}


@pytest.mark.parametrize("argv", UNREADABLE_INPUTS.values(), ids=UNREADABLE_INPUTS.keys())
def test_unreadable_inputs_are_data_errors(heterog_csv, fitted_tree, tmp_path, argv):
    base, csv_path, schema_path, _ = heterog_csv
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(fitted_tree), encoding="utf-8")
    directory = tmp_path / "a-directory"
    directory.mkdir()
    args = argv(directory, tmp_path, csv_path, schema_path, tree_path)
    if args[0] == "fit":
        args += ("--estimator", "g", "--outcome-spec", "1 + A + x1", "--out", tmp_path / "out")
    result = _run_module(*args)
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_fit_out_path_through_a_file_is_a_configuration_error(heterog_csv, tmp_path, out):
    base, csv_path, schema_path, _ = heterog_csv
    (tmp_path / "file").write_text("kept\n", encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    result = _run_module("fit", "--data", tmp_path / "missing.csv", "--schema", schema_path,
                         "--estimator", "g", "--outcome-spec", "1 + A + x1",
                         "--out", tmp_path / out)
    assert result.returncode == 2  # reading the missing data file first would give 3
    assert "is not a directory" in result.stderr
    assert "Traceback" not in result.stderr
    assert sorted(tmp_path.iterdir()) == before
    assert (tmp_path / "file").read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("flags, message", [
    (["--estimator", "g", "--outcome-spec", "1 + A + zz"], "unknown column 'zz'"),
    (["--estimator", "dr", "--propensity-spec", "1 + in(x1,a)", "--outcome-spec", "1 + A"],
     "in() requires a categorical or ordinal column"),
    (["--estimator", "g", "--outcome-spec", "1 + A + A:Y"], "unknown column 'Y'"),
    (["--estimator", "ipw", "--propensity-spec", "1 + x1 + A:x2"], "propensity spec"),
    (["--estimator", "ipw", "--propensity-spec", "1 + A + x1"], "propensity spec"),
], ids=["unknown-column", "in-on-continuous", "outcome-as-covariate",
        "propensity-interaction", "propensity-treatment"])
def test_fit_checks_specs_against_the_schema_before_reading_data(heterog_csv, tmp_path,
                                                                 flags, message):
    base, csv_path, schema_path, _ = heterog_csv
    result = _run_module("fit", "--data", tmp_path / "missing.csv", "--schema", schema_path,
                         "--out", tmp_path / "out", *flags)
    assert result.returncode == 2  # reading the missing data file first would give 3
    assert "bad configuration" in result.stderr and message in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


def test_predict_schema_mismatch(heterog_csv, tmp_path, capsys):
    base, csv_path, schema_path, data = heterog_csv
    out = tmp_path / "fit"
    run_cli([
        "fit", "--data", csv_path, "--schema", schema_path,
        "--estimator", "g", "--outcome-spec", "1 + A", "--seed", 3, "--out", out,
    ])
    capsys.readouterr()
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n", encoding="utf-8")
    code = run_cli(["predict", "--tree", out / "tree.json", "--data", bad])
    assert code == 3


def test_predict_names_the_line_of_an_infinite_outcome(heterog_csv, fitted_tree, tmp_path):
    # row 300 is past the first block of rows, so the row loop reads its block
    # after the column-wise pass has read the blocks before it
    base, csv_path, schema_path, _ = heterog_csv
    lines = csv_path.read_bytes().split(b"\r\n")
    lines[300] = lines[300].rsplit(b",", 1)[0] + b",inf"
    bad = tmp_path / "inf.csv"
    bad.write_bytes(b"\r\n".join(lines))
    tree_path = tmp_path / "tree.json"
    tree_path.write_text(json.dumps(fitted_tree), encoding="utf-8")
    result = _run_module("predict", "--tree", tree_path, "--data", bad)
    assert result.returncode == 3
    assert "line 301: non-finite value in column 'Y'" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["fit", "predict"])
def test_a_cell_over_the_csv_field_limit_is_a_data_error(heterog_csv, fitted_tree, tmp_path,
                                                        command):
    base, csv_path, schema_path, _ = heterog_csv
    lines = csv_path.read_bytes().split(b"\r\n")
    lines[300] = lines[300].rsplit(b",", 1)[0] + b"," + b"1" * 200_000
    bad = tmp_path / "long.csv"
    bad.write_bytes(b"\r\n".join(lines))
    if command == "fit":
        args = ("fit", "--data", bad, "--schema", schema_path, "--estimator", "g",
                "--outcome-spec", "1 + A + x1", "--out", tmp_path / "out")
    else:
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(json.dumps(fitted_tree), encoding="utf-8")
        args = ("predict", "--tree", tree_path, "--data", bad)
    result = _run_module(*args)
    assert result.returncode == 3, result.stderr
    assert "line 301: field larger than field limit" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


def test_simulate_single_replicate(capsys):
    code = run_cli(["simulate", "--setting", "heterog", "--algo", "g",
                    "--reps", 1, "--seed", 5, "--n", 500, "--threads", 1])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["replications"] == 1
    assert "mean_fit_seconds" not in payload["results"]
    assert 0.0 <= payload["results"]["correct_tree_prop"] <= 1.0


def test_simulate_all_replicates_failing_is_a_fit_failure(monkeypatch, capsys):
    import efftree.simulate as simulate
    from efftree.glm import FitError

    def fit_fails(*args):
        raise FitError("separation")

    # with --threads 1 the replicates run in this process
    monkeypatch.setattr(simulate, "run_replicate", fit_fails)
    code = run_cli(["simulate", "--setting", "homog", "--algo", "g", "--reps", 2,
                    "--n", 50, "--threads", 1])
    assert code == 4
    assert "all replicates failed" in capsys.readouterr().err


def test_simulate_sample_too_small_for_min_node_is_a_configuration_error(monkeypatch, capsys):
    import efftree.simulate as simulate

    def no_replicate(*args):
        raise AssertionError("a replicate ran")

    # 40 build rows cannot hold a 100-row root: rejected before any replicate
    monkeypatch.setattr(simulate, "run_replicate", no_replicate)
    code = run_cli(["simulate", "--setting", "homog", "--algo", "g", "--reps", 2,
                    "--n", 50, "--min-node", 100, "--threads", 1])
    assert code == 2
    assert "40 build rows, fewer than min_node=100" in capsys.readouterr().err


def test_simulate_rejects_unknown_setting():
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--setting", "weird", "--algo", "g", "--reps", 1])
    assert exc.value.code == 2


def test_simulate_rejects_bad_sample_size(capsys):
    code = run_cli(["simulate", "--setting", "homog", "--algo", "g", "--reps", 1, "--n", 0])
    assert code == 2
    assert "n must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("threads", [0, -1])
def test_simulate_rejects_threads_below_one(threads, capsys):
    code = run_cli(["simulate", "--setting", "homog", "--algo", "g", "--reps", 1,
                    "--threads", threads])
    assert code == 2
    assert "--threads must be >= 1" in capsys.readouterr().err


def test_simulate_rejects_bad_algo(capsys):
    code = run_cli(["simulate", "--setting", "heterog", "--algo", "zzz", "--reps", 1])
    assert code == 2


def test_predict_memory_stays_below_twice_input(heterog_csv, tmp_path, capsys):
    import tracemalloc

    base, csv_path, schema_path, _ = heterog_csv
    out = tmp_path / "fit"
    run_cli([
        "fit", "--data", csv_path, "--schema", schema_path,
        "--estimator", "g", "--outcome-spec", "1 + A + gt(x4,0) + A:gt(x4,0)",
        "--seed", 3, "--out", out,
    ])
    big_data, _ = generate(SimSetting("heterogeneous", n=60_000, seed=99))
    big_csv = tmp_path / "big.csv"
    write_csv(big_data, big_csv)
    input_bytes = big_csv.stat().st_size
    capsys.readouterr()
    tracemalloc.start()
    code = run_cli(["predict", "--tree", out / "tree.json", "--data", big_csv])
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 2 * input_bytes, f"peak {peak} vs input {input_bytes}"


def test_simulate_byte_identical_json_single_thread():
    cmd = [sys.executable, "-m", "efftree.cli", "simulate", "--setting", "heterog",
           "--algo", "dr", "--reps", "2", "--seed", "21", "--n", "400", "--threads", "1"]
    a = subprocess.run(cmd, capture_output=True, check=True)
    b = subprocess.run(cmd, capture_output=True, check=True)
    assert a.stdout == b.stdout
    assert len(a.stdout) > 0
