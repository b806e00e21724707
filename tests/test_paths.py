"""Coverage for the less-traveled configuration paths: binomial-family
g-formula sandwich, child-scope growth, and the console script."""

import importlib
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from efftree.estimators import NuisanceScope, VarianceMethod
from efftree.glm import Design, fit_logistic, parse_spec
from efftree.simulate import SimSetting, generate, make_config
from efftree.tree import grow_max_tree
from oracle import g_variance_pooled, split_contrast


def test_binomial_g_sandwich_matches_loop_oracle():
    data, _ = generate(SimSetting("binary-mixed-heterogeneous", n=400, seed=81))
    spec = parse_spec("1 + A + x2 + A:in(x4,B,D)", "A")
    full = np.arange(data.n)
    design = Design(data, full, spec)
    fit = fit_logistic(design, data.outcome)
    x1 = data.column("x1")
    in_l = x1 < 0
    got = g_variance_pooled(data, np.flatnonzero(in_l), np.flatnonzero(~in_l), fit)

    # loop oracle with the logistic-family score, information, and
    # prediction gradients
    Z = design.observed()[:, fit.kept]
    Z1, Z0 = design.at_one[:, fit.kept], design.at_zero()[:, fit.kept]
    beta = fit.coefficients[fit.kept]
    expit = lambda v: 1 / (1 + np.exp(-v))
    g1 = expit(Z1 @ beta)
    g0 = expit(Z0 @ beta)
    ghat = expit(Z @ beta)
    Y = data.outcome
    n_p = data.n
    n_l = in_l.sum()
    n_r = n_p - n_l
    p_l, p_r = n_l / n_p, n_r / n_p
    q = Z.shape[1]
    info = np.zeros((q, q))
    D_l = np.zeros(q)
    D_r = np.zeros(q)
    t_l = t_r = 0.0
    for i in range(n_p):
        info += ghat[i] * (1 - ghat[i]) * np.outer(Z[i], Z[i]) / n_p
        dd = g1[i] * (1 - g1[i]) * Z1[i] - g0[i] * (1 - g0[i]) * Z0[i]
        if in_l[i]:
            D_l += dd / n_l
            t_l += (g1[i] - g0[i]) / n_l
        else:
            D_r += dd / n_r
            t_r += (g1[i] - g0[i]) / n_r
    c = np.linalg.solve(info, D_l - D_r)
    total = 0.0
    for i in range(n_p):
        delta_i = g1[i] - g0[i]
        base = (delta_i - t_l) / p_l if in_l[i] else -(delta_i - t_r) / p_r
        total += (base + (Y[i] - ghat[i]) * np.dot(Z[i], c)) ** 2
    expected = total / n_p / n_p
    assert got == pytest.approx(expected, rel=1e-10)


def test_binomial_g_batch_matches_scalar():
    data, _ = generate(SimSetting("binary-mixed-heterogeneous", n=500, seed=83))
    setting = SimSetting("binary-mixed-heterogeneous", n=500, seed=83)
    config = make_config(setting, "g")
    assert config.outcome_family == "binomial"
    tree = grow_max_tree(data, np.arange(data.n), config)
    root = tree.node(tree.root_id)
    if root.rule is None:
        pytest.skip("no admissible split on this draw")
    rows = np.arange(data.n)
    left = root.rule.goes_left(data, rows)
    contrast = split_contrast(data, rows, left, config, min_per_arm=config.min_per_arm)
    assert root.statistic == pytest.approx(contrast.statistic, rel=1e-8)


def test_child_scope_growth_small():
    setting = SimSetting("heterogeneous", n=220, seed=85)
    data, _ = generate(setting)
    config = make_config(setting, "g", scope=NuisanceScope.CHILD,
                         min_node=60, min_per_arm=15, max_depth=2)
    assert config.variance_method == VarianceMethod.INFLUENCE
    tree = grow_max_tree(data, np.arange(data.n), config)
    for node_id in tree.internal_ids():
        assert tree.node(node_id).statistic > 0
    # child-scope IPW defaults to the per-child sandwich
    config_ipw = make_config(setting, "ipw", scope=NuisanceScope.CHILD,
                             min_node=60, min_per_arm=15, max_depth=1)
    assert config_ipw.variance_method == VarianceMethod.PER_CHILD_SANDWICH
    tree_ipw = grow_max_tree(data, np.arange(data.n), config_ipw)
    assert tree_ipw.n_internal() <= 1


def test_console_script_entry_point(capsys):
    # the declared target runs in process; an install also runs it from PATH
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["efftree"]
    assert target == "efftree.cli:main"
    module, _, attr = target.partition(":")
    with pytest.raises(SystemExit) as exc:
        getattr(importlib.import_module(module), attr)(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert all(command in text for command in ("fit", "predict", "simulate"))

    exe = shutil.which("efftree")
    if exe is not None:
        out = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert out.returncode == 0
        assert all(command in out.stdout for command in ("fit", "predict", "simulate"))
