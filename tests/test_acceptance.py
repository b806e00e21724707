"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
while the suite executes. Several criteria are Monte Carlo checks with fixed
seeds, so every run is reproducible.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from efftree.estimators import (
    EstimatorKind,
    NuisanceModels,
    NuisanceScope,
    VarianceMethod,
    estimate_dr,
    estimate_g,
)
from efftree.glm import Design, fit_logistic, fit_ols, parse_spec
from efftree.prune import weakest_link_sequence
from efftree.search import split_contrast
from efftree.select import fit_tree
from efftree.simulate import (
    SimSetting,
    generate,
    make_config,
    pairwise_similarity_labels,
    run_experiment,
)
from efftree.tree import GrowConfig
from util_trees import brute_force_sequence, prune_candidates, random_tree

ACCEPT_SEED = 2024
TABLE1_REPS = 200


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def table1_results():
    """Desk-scale replication of the four gated summary cells (R=200, n=1000)."""
    results = {}
    jobs = {
        ("homogeneous", "g"): ("true", "true"),
        ("heterogeneous", "g"): ("true", "true"),
        ("heterogeneous", "dr"): ("true", "true"),
        ("heterogeneous", "ipw"): ("true", "true"),
    }
    for (design, est), (pv, ov) in jobs.items():
        setting = SimSetting(design, n=1000, seed=0)
        config = make_config(setting, est, pv, ov, seed=ACCEPT_SEED)
        results[(design, est)] = run_experiment(
            setting, config, replications=TABLE1_REPS, seed=ACCEPT_SEED, threads=1
        )
    return results


def test_criterion_1_table1_desk_scale(table1_results):
    checks = []
    s = table1_results[("homogeneous", "g")]
    checks.append(("G/true/homog correct=1.00", abs(s.correct_tree_prop - 1.00) <= 0.10,
                   f"{s.correct_tree_prop:.3f}"))
    s = table1_results[("heterogeneous", "g")]
    checks.append(("G/true/heterog correct=0.99", abs(s.correct_tree_prop - 0.99) <= 0.10,
                   f"{s.correct_tree_prop:.3f}"))
    checks.append(("G/true/heterog first-split=1.00", abs(s.correct_first_split_prop - 1.00) <= 0.10,
                   f"{s.correct_first_split_prop:.3f}"))
    s = table1_results[("heterogeneous", "dr")]
    checks.append(("DR/both-true/heterog correct=0.94", abs(s.correct_tree_prop - 0.94) <= 0.10,
                   f"{s.correct_tree_prop:.3f}"))
    checks.append(("DR/both-true/heterog PPS=0.99", abs(s.pps - 0.99) <= 0.10, f"{s.pps:.3f}"))
    checks.append(("DR/both-true/heterog first-split=1.00",
                   abs(s.correct_first_split_prop - 1.00) <= 0.10,
                   f"{s.correct_first_split_prop:.3f}"))
    s = table1_results[("heterogeneous", "ipw")]
    checks.append(("IPW/true/heterog correct<=0.30", s.correct_tree_prop <= 0.30,
                   f"{s.correct_tree_prop:.3f}"))
    detail = "; ".join(f"{name}: got {got}" for name, _, got in checks)
    passed = all(ok for _, ok, _ in checks)
    report("criterion 1 (Table-1 desk scale)", passed, detail)
    for name, ok, got in checks:
        assert ok, f"{name}: got {got}"


def test_criterion_2_estimator_ordering(table1_results):
    g = table1_results[("heterogeneous", "g")].correct_tree_prop
    dr = table1_results[("heterogeneous", "dr")].correct_tree_prop
    ipw = table1_results[("heterogeneous", "ipw")].correct_tree_prop
    passed = g >= dr >= ipw
    report("criterion 2 (ordering G >= DR >= IPW)", passed,
           f"G={g:.3f} DR={dr:.3f} IPW={ipw:.3f}")
    assert passed


def test_criterion_3_null_calibration():
    p_spec = parse_spec("1 + x1 + x2 + x3", "A")
    o_spec = parse_spec("1 + A + lt(x1,0) + exp(x2) + gt(x4,0) + cube(x5)", "A")
    R = 2000
    ipw_config = GrowConfig(EstimatorKind.IPW, propensity_spec=p_spec, scope=NuisanceScope.PARENT,
                            variance_method=VarianceMethod.POOLED_SANDWICH)
    dr_config = GrowConfig(EstimatorKind.DR, propensity_spec=p_spec, outcome_spec=o_spec,
                           scope=NuisanceScope.PARENT, variance_method=VarianceMethod.INFLUENCE)
    exceed_ipw = exceed_dr = 0
    for rep in range(R):
        data, _ = generate(SimSetting("homogeneous", 1000, seed=37_000_000 + rep))
        rows, in_l = np.arange(data.n), data.column("x4") > 0
        ipw = split_contrast(data, rows, in_l, ipw_config)
        dr = split_contrast(data, rows, in_l, dr_config)
        exceed_ipw += ipw.statistic > 3.84
        exceed_dr += dr.statistic > 3.84
    rate_ipw = exceed_ipw / R
    rate_dr = exceed_dr / R
    passed = 0.03 <= rate_ipw <= 0.08 and 0.03 <= rate_dr <= 0.08
    report("criterion 3 (chi-square null calibration)", passed,
           f"IPW exceedance={rate_ipw:.4f}, DR exceedance={rate_dr:.4f}, target [0.03, 0.08]")
    assert 0.03 <= rate_ipw <= 0.08
    assert 0.03 <= rate_dr <= 0.08


def test_criterion_4_variance_estimator_fidelity():
    spec = parse_spec("1 + x1 + x2 + x3", "A")
    # both variances as production scores them: the pooled sandwich with one
    # propensity fit on the parent, here all rows, and the per-child
    # sandwich with one fit per child
    pooled_config = GrowConfig(EstimatorKind.IPW, propensity_spec=spec, scope=NuisanceScope.PARENT,
                               variance_method=VarianceMethod.POOLED_SANDWICH)
    child_config = GrowConfig(EstimatorKind.IPW, propensity_spec=spec, scope=NuisanceScope.CHILD,
                              variance_method=VarianceMethod.PER_CHILD_SANDWICH)
    R, n = 2000, 2000
    t_pooled, v_pooled, t_child, v_child = [], [], [], []
    for rep in range(R):
        data, _ = generate(SimSetting("heterogeneous", n, seed=41_000_000 + rep))
        rows, in_l = np.arange(data.n), data.column("x4") < 0

        pooled = split_contrast(data, rows, in_l, pooled_config)
        t_pooled.append(pooled.t_hat)
        v_pooled.append(pooled.variance)

        per_child = split_contrast(data, rows, in_l, child_config)
        t_child.append(per_child.t_hat)
        v_child.append(per_child.variance)

    ratio_pooled = np.mean(v_pooled) / np.var(t_pooled)
    ratio_child = np.mean(v_child) / np.var(t_child)
    passed = abs(ratio_pooled - 1) <= 0.10 and abs(ratio_child - 1) <= 0.10
    report("criterion 4 (sandwich variance fidelity)", passed,
           f"pooled ratio={ratio_pooled:.3f}, per-child ratio={ratio_child:.3f}, target within 10%")
    assert abs(ratio_pooled - 1) <= 0.10, f"pooled ratio {ratio_pooled:.3f}"
    assert abs(ratio_child - 1) <= 0.10, f"per-child ratio {ratio_child:.3f}"


def test_criterion_5_double_robustness():
    true_p = parse_spec("1 + x1 + x2 + x3", "A")
    mis_p = parse_spec("1 + " + " + ".join(f"exp(x{j})" for j in range(1, 7)), "A")
    true_o = parse_spec("1 + A + lt(x1,0) + exp(x2) + A:gt(x4,0) + cube(x5)", "A")
    covs = [f"x{j}" for j in range(1, 7)]
    mis_o = parse_spec("1 + A + " + " + ".join(covs) + " + "
                       + " + ".join(f"A:{c}" for c in covs), "A")
    truth = 5.0  # effect in the x4 > 0 subgroup
    dr_tp_mo, dr_mp_to, g_mo = [], [], []
    for rep in range(30):
        data, _ = generate(SimSetting("heterogeneous", 20_000, seed=43_000_000 + rep))
        node = np.flatnonzero(data.column("x4") > 0)
        full = np.arange(data.n)
        f_tp = fit_logistic(Design(data, full, true_p), data.treatment)
        f_mp = fit_logistic(Design(data, full, mis_p), data.treatment)
        f_to = fit_ols(Design(data, full, true_o), data.outcome)
        f_mo = fit_ols(Design(data, full, mis_o), data.outcome)
        dr_tp_mo.append(estimate_dr(data, node, NuisanceModels(f_tp, f_mo, 0.01)).effect)
        dr_mp_to.append(estimate_dr(data, node, NuisanceModels(f_mp, f_to, 0.01)).effect)
        g_mo.append(estimate_g(data, node, NuisanceModels(None, f_mo, 0.01)).effect)
    bias_dr1 = abs(np.mean(dr_tp_mo) - truth)
    bias_dr2 = abs(np.mean(dr_mp_to) - truth)
    bias_g = abs(np.mean(g_mo) - truth)
    passed = bias_dr1 < 0.05 and bias_dr2 < 0.05 and bias_g > 0.05
    report("criterion 5 (double robustness)", passed,
           f"DR(true prop, mis out) bias={bias_dr1:.4f}, DR(mis prop, true out) bias={bias_dr2:.4f}, "
           f"G(mis out) bias={bias_g:.4f}")
    assert bias_dr1 < 0.05
    assert bias_dr2 < 0.05
    assert bias_g > 0.05


def test_criterion_6_pruning_brute_force_equivalence():
    rng = np.random.default_rng(97)
    mismatches = 0
    for _ in range(100):
        tree = random_tree(rng, max_internal=5)
        order = weakest_link_sequence(tree)
        expected_trees, expected_pruned = brute_force_sequence(tree)
        if order != expected_pruned:
            mismatches += 1
            continue
        if ([sorted(t.nodes) for t in prune_candidates(tree, order)]
                != [sorted(t.nodes) for t in expected_trees]):
            mismatches += 1
    passed = mismatches == 0
    report("criterion 6 (pruning oracle equivalence)", passed,
           f"{100 - mismatches}/100 random trees matched exactly")
    assert mismatches == 0


def test_criterion_7_similarity_brute_force_equivalence():
    rng = np.random.default_rng(101)
    m = 500
    worst = 0.0
    for _ in range(50):
        a = rng.integers(0, int(rng.integers(1, 8)), m)
        b = rng.integers(0, int(rng.integers(1, 8)), m)
        fast = pairwise_similarity_labels(a, b)
        # oracle: explicit pair enumeration
        discordant = 0
        for i in range(m - 1):
            same_a = a[i] == a[i + 1:]
            same_b = b[i] == b[i + 1:]
            discordant += int(np.sum(same_a != same_b))
        slow = 1.0 - discordant / (m * (m - 1) / 2)
        worst = max(worst, abs(fast - slow))
    passed = worst == 0.0
    report("criterion 7 (similarity oracle equivalence)", passed,
           f"max |contingency - pair loop| = {worst:.2e} over 50 pairs")
    assert worst == 0.0


def test_criterion_8_relative_fit_speed():
    # identical heterogeneous datasets, misspecified-functional-form nuisance
    # specs (the configuration with the widest design matrices)
    setting = SimSetting("heterogeneous", n=1000, seed=0)
    configs = {
        "ipw": make_config(setting, "ipw", "mis-func", "true"),
        "g": make_config(setting, "g", "true", "mis-func"),
        "dr": make_config(setting, "dr", "mis-func", "mis-func"),
    }
    reps = 20
    datasets = []
    for i in range(reps):
        data, _ = generate(SimSetting("heterogeneous", 1000, seed=47_000_000 + i))
        datasets.append(data)
    mean_seconds = {}
    for name, config in configs.items():
        times = []
        for data in datasets:
            build = np.arange(800)
            validation = np.arange(800, data.n)
            t0 = time.perf_counter()
            fit_tree(data, build, validation, config, 3.84)
            times.append(time.perf_counter() - t0)
        mean_seconds[name] = float(np.mean(times))
    factor_ipw = mean_seconds["ipw"] / mean_seconds["dr"]
    factor_g = mean_seconds["g"] / mean_seconds["dr"]
    passed = factor_ipw >= 2.0 and factor_g >= 2.0
    report("criterion 8 (relative fit speed, factor >= 2)", passed,
           f"mean fit: dr={mean_seconds['dr']*1e3:.0f}ms ipw={mean_seconds['ipw']*1e3:.0f}ms "
           f"g={mean_seconds['g']*1e3:.0f}ms; ipw/dr={factor_ipw:.2f} g/dr={factor_g:.2f}")
    assert factor_ipw >= 2.0, f"IPW/DR factor {factor_ipw:.2f} < 2"
    assert factor_g >= 2.0, f"G/DR factor {factor_g:.2f} < 2"


def test_criterion_9_cli_determinism():
    cmd = [sys.executable, "-m", "efftree.cli", "simulate", "--setting", "heterog",
           "--algo", "dr", "--reps", "3", "--seed", "11", "--n", "600", "--threads", "1"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    passed = first.stdout == second.stdout and len(first.stdout) > 0
    payload = json.loads(first.stdout)
    report("criterion 9 (single-thread determinism)", passed,
           f"{len(first.stdout)} identical JSON bytes, "
           f"correct_tree_prop={payload['results']['correct_tree_prop']}")
    assert passed
