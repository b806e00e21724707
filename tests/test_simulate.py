import numpy as np
import pytest

from efftree.data import Dataset
from efftree.search import SplitRule
from efftree.select import fit_tree
from efftree.simulate import (
    SimSetting,
    TruthOracle,
    correct_first_split,
    generate,
    is_correct_tree,
    make_config,
    mse,
    noise_split_count,
    pairwise_similarity,
    pairwise_similarity_labels,
    preset_specs,
    run_experiment,
    run_replicate,
)
from efftree.tree import Tree, TreeNode
from oracle import take
from util_trees import leaf_effect


# ---------------------------------------------------------------- generators


def test_heterogeneous_truth_values():
    data, oracle = generate(SimSetting("heterogeneous", n=50, seed=1))
    cate = oracle.true_cate(data)
    x4 = data.column("x4")
    assert np.all(cate[x4 >= 0] == 5.0)
    assert np.all(cate[x4 < 0] == 2.0)


def test_homogeneous_truth_constant():
    data, oracle = generate(SimSetting("homogeneous", n=50, seed=2))
    assert np.all(oracle.true_cate(data) == 2.0)


def test_same_seed_identical_datasets():
    a, _ = generate(SimSetting("heterogeneous", n=200, seed=77))
    b, _ = generate(SimSetting("heterogeneous", n=200, seed=77))
    assert a == b
    c, _ = generate(SimSetting("heterogeneous", n=200, seed=78))
    assert not (a == c)


def test_covariate_covariance_structure():
    data, _ = generate(SimSetting("heterogeneous", n=200_000, seed=5))
    x1 = data.column("x1")
    x2 = data.column("x2")
    assert np.cov(x1, x2)[0, 1] == pytest.approx(0.3, abs=0.01)
    assert np.var(x1) == pytest.approx(1.0, abs=0.02)


def test_treatment_prevalence_matches_model():
    data, _ = generate(SimSetting("heterogeneous", n=100_000, seed=6))
    # logit has mean zero, so prevalence is near one half
    assert data.treatment.mean() == pytest.approx(0.5, abs=0.01)


def test_binary_mixed_generation():
    data, oracle = generate(SimSetting("binary-mixed-heterogeneous", n=30_000, seed=7))
    assert set(np.unique(data.outcome)) <= {0.0, 1.0}
    x4 = data.column("x4")
    assert set(np.unique(x4)) == {0, 1, 2, 3}
    x6 = data.column("x6")
    assert set(np.unique(x6)) == set(range(6))
    cate = oracle.true_cate(data)
    in_bd = np.isin(x4, (1, 3))
    assert np.all(cate[in_bd] == pytest.approx(-0.3))
    assert np.all(cate[~in_bd] == pytest.approx(0.1))


def test_binary_mixed_homogeneous_truth():
    data, oracle = generate(SimSetting("binary-mixed-homogeneous", n=100, seed=8))
    assert np.allclose(oracle.true_cate(data), 0.1)


X4_IN_BD = SplitRule("x4", 3, "subset", left_levels=("B", "D"), right_levels=("A", "C"))


@pytest.mark.parametrize("design, split, effects", [
    ("homogeneous", None, (2.0, 2.0)),
    ("heterogeneous", SplitRule("x4", 3, "threshold", threshold=0.0), (2.0, 5.0)),
    ("binary-mixed-homogeneous", None, (0.1, 0.1)),
    ("binary-mixed-heterogeneous", X4_IN_BD, (0.1 - 0.4, 0.1)),
])
def test_truth_is_the_true_split_and_the_effect_on_each_side(design, split, effects):
    data, truth = generate(SimSetting(design, n=200, seed=9))
    assert truth == TruthOracle(split, *effects)
    cells = truth.reference_cells(data)
    if split is None:
        assert not cells.any()
    else:
        assert np.array_equal(cells, split.goes_left(data, np.arange(data.n)))
    assert np.array_equal(truth.true_cate(data), np.where(cells == 1, *effects))


def test_heterogeneous_truth_puts_x4_equal_to_zero_on_the_jump_side():
    data, truth = generate(SimSetting("heterogeneous", n=3, seed=1))
    covariates = {name: data.column(name) for name in data.schema.covariate_names}
    covariates["x4"] = np.array([-1e-9, 0.0, 1e-9])
    edge = Dataset(data.schema, covariates, data.treatment, data.outcome)
    assert truth.true_cate(edge).tolist() == [2.0, 5.0, 5.0]


def test_preset_specs_reject_unknown_variant():
    with pytest.raises(ValueError):
        preset_specs(SimSetting("heterogeneous", 100, 0), "nope", "true")


def test_setting_validation():
    with pytest.raises(ValueError):
        SimSetting("no-such-design", 100, 0)
    with pytest.raises(ValueError):
        SimSetting("heterogeneous", 0, 0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SimSetting("heterogeneous", 100, -1)


# ---------------------------------------------------------------- metric helpers


def manual_tree(schema, splits, effects, config):
    """splits: {id: (rule, left, right, statistic)}; effects: {id: effect}."""
    nodes = {}
    ids = set(effects)
    for i in sorted(ids):
        if i in splits:
            rule, left, right, stat = splits[i]
            nodes[i] = TreeNode(id=i, depth=0, n=10, effect=leaf_effect(effects[i]),
                                rule=rule, statistic=stat, left=left, right=right)
        else:
            nodes[i] = TreeNode(id=i, depth=0, n=10, effect=leaf_effect(effects[i]))
    return Tree(nodes, 0, config, schema)


def x4_split_tree(data, config, threshold=0.0, effects=(2.0, 5.0)):
    rule = SplitRule("x4", 3, "threshold", threshold=threshold)
    return manual_tree(
        data.schema,
        {0: (rule, 1, 2, 25.0)},
        {0: 3.5, 1: effects[0], 2: effects[1]},
        config,
    )


@pytest.fixture(scope="module")
def heterog():
    setting = SimSetting("heterogeneous", n=1000, seed=31)
    data, oracle = generate(setting)
    config = make_config(setting, "g")
    return data, oracle, config


def test_mse_perfect_predictions(heterog):
    data, oracle, config = heterog
    tree = x4_split_tree(data, config)
    assert mse(tree, data, oracle) == pytest.approx(0.0)


def test_mse_constant_prediction(heterog):
    data, oracle, config = heterog
    # single cell predicting 3.5 against truths 2 and 5
    root = manual_tree(data.schema, {}, {0: 3.5}, config)
    x4 = data.column("x4")
    frac_hi = (x4 > 0).mean()
    expected = frac_hi * (3.5 - 5.0) ** 2 + (1 - frac_hi) * (3.5 - 2.0) ** 2
    assert mse(root, data, oracle) == pytest.approx(expected)
    if abs(frac_hi - 0.5) < 0.05:
        assert mse(root, data, oracle) == pytest.approx(2.25, abs=0.15)


def test_mse_matches_row_by_row_oracle(heterog):
    data, oracle, config = heterog
    tree = x4_split_tree(data, config, threshold=0.4, effects=(1.0, 6.0))
    pred = tree.predict(data)
    cate = oracle.true_cate(data)
    expected = sum((pred[i] - cate[i]) ** 2 for i in range(data.n)) / data.n
    assert mse(tree, data, oracle) == pytest.approx(expected, rel=1e-12)


def test_is_correct_tree_cases(heterog):
    data, oracle, config = heterog
    # single split on x4 at any threshold is correct
    assert is_correct_tree(x4_split_tree(data, config, threshold=0.07), oracle)
    # root-only is wrong for the heterogeneous truth
    assert not is_correct_tree(manual_tree(data.schema, {}, {0: 3.5}, config), oracle)
    # an extra split on x1 is wrong
    extra = manual_tree(
        data.schema,
        {
            0: (SplitRule("x4", 3, "threshold", threshold=0.0), 1, 2, 25.0),
            1: (SplitRule("x1", 0, "threshold", threshold=0.0), 3, 4, 9.0),
        },
        {0: 3.5, 1: 2.0, 2: 5.0, 3: 1.0, 4: 3.0},
        config,
    )
    assert not is_correct_tree(extra, oracle)
    # two splits on x4 is also wrong (count must match)
    double = manual_tree(
        data.schema,
        {
            0: (SplitRule("x4", 3, "threshold", threshold=0.0), 1, 2, 25.0),
            2: (SplitRule("x4", 3, "threshold", threshold=1.0), 3, 4, 9.0),
        },
        {0: 3.5, 1: 2.0, 2: 5.0, 3: 4.0, 4: 6.0},
        config,
    )
    assert not is_correct_tree(double, oracle)


def test_root_only_correct_for_homogeneous():
    setting = SimSetting("homogeneous", n=100, seed=3)
    data, oracle = generate(setting)
    config = make_config(setting, "g")
    assert is_correct_tree(manual_tree(data.schema, {}, {0: 2.0}, config), oracle)


def test_binary_mixed_correct_partition():
    setting = SimSetting("binary-mixed-heterogeneous", n=100, seed=4)
    data, oracle = generate(setting)
    config = make_config(setting, "dr")
    good = manual_tree(
        data.schema,
        {0: (SplitRule("x4", 3, "subset", left_levels=("B", "D"),
                       right_levels=("A", "C")), 1, 2, 30.0)},
        {0: 0.0, 1: -0.3, 2: 0.1},
        config,
    )
    assert is_correct_tree(good, oracle)
    assert correct_first_split(good, oracle)
    flipped = manual_tree(
        data.schema,
        {0: (SplitRule("x4", 3, "subset", left_levels=("A", "C"),
                       right_levels=("B", "D")), 1, 2, 30.0)},
        {0: 0.0, 1: 0.1, 2: -0.3},
        config,
    )
    assert is_correct_tree(flipped, oracle)  # unordered partition matches
    wrong = manual_tree(
        data.schema,
        {0: (SplitRule("x4", 3, "subset", left_levels=("A", "B"),
                       right_levels=("C", "D")), 1, 2, 30.0)},
        {0: 0.0, 1: 0.1, 2: -0.3},
        config,
    )
    assert not is_correct_tree(wrong, oracle)


def test_noise_split_count(heterog):
    data, oracle, config = heterog
    assert noise_split_count(manual_tree(data.schema, {}, {0: 1.0}, config), oracle) == 0
    one_noise = manual_tree(
        data.schema,
        {0: (SplitRule("x1", 0, "threshold", threshold=0.0), 1, 2, 4.0)},
        {0: 1.0, 1: 1.0, 2: 1.0},
        config,
    )
    assert noise_split_count(one_noise, oracle) == 1
    mixed = manual_tree(
        data.schema,
        {
            0: (SplitRule("x4", 3, "threshold", threshold=0.0), 1, 2, 25.0),
            1: (SplitRule("x2", 1, "threshold", threshold=0.0), 3, 4, 4.0),
            2: (SplitRule("x5", 4, "threshold", threshold=0.0), 5, 6, 4.0),
        },
        {i: 1.0 for i in range(7)},
        config,
    )
    assert noise_split_count(mixed, oracle) == 2


def test_a_split_on_the_true_column_is_never_noise():
    setting = SimSetting("binary-mixed-heterogeneous", n=100, seed=4)
    data, truth = generate(setting)
    config = make_config(setting, "g")
    wrong_pair = manual_tree(
        data.schema,
        {0: (SplitRule("x4", 3, "subset", left_levels=("A", "B"),
                       right_levels=("C", "D")), 1, 2, 30.0)},
        {0: 0.0, 1: 0.1, 2: -0.3},
        config,
    )
    assert not is_correct_tree(wrong_pair, truth)
    assert not correct_first_split(wrong_pair, truth)
    assert noise_split_count(wrong_pair, truth) == 0
    # with a constant effect every split is a noise split, x4 included
    setting = SimSetting("binary-mixed-homogeneous", n=100, seed=4)
    data, truth = generate(setting)
    assert noise_split_count(wrong_pair, truth) == 1
    assert not is_correct_tree(wrong_pair, truth)
    assert not correct_first_split(wrong_pair, truth)


def test_correct_first_split_cases(heterog):
    data, oracle, config = heterog
    assert correct_first_split(x4_split_tree(data, config), oracle)
    wrong = manual_tree(
        data.schema,
        {0: (SplitRule("x2", 1, "threshold", threshold=0.0), 1, 2, 4.0)},
        {0: 1.0, 1: 1.0, 2: 1.0},
        config,
    )
    assert not correct_first_split(wrong, oracle)
    root_only = manual_tree(data.schema, {}, {0: 1.0}, config)
    assert not correct_first_split(root_only, oracle)


# ---------------------------------------------------------------- similarity


def test_similarity_identical_partitions():
    labels = np.array([0, 0, 1, 1, 2, 2])
    assert pairwise_similarity_labels(labels, labels) == 1.0
    relabeled = np.array([7, 7, 3, 3, 9, 9])
    assert pairwise_similarity_labels(labels, relabeled) == 1.0


def test_similarity_forced_half_split_value():
    m = 1000
    single = np.zeros(m, dtype=int)
    halves = (np.arange(m) < 500).astype(int)
    got = pairwise_similarity_labels(single, halves)
    assert got == pytest.approx(1.0 - 250_000 / 499_500)
    assert got == pytest.approx(0.49950, abs=5e-5)


def brute_force_similarity(a, b):
    m = len(a)
    discordant = 0
    for i in range(m):
        for j in range(i + 1, m):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            discordant += int(same_a != same_b)
    return 1.0 - discordant / (m * (m - 1) / 2)


def test_similarity_matches_pair_loop_oracle():
    rng = np.random.default_rng(41)
    for _ in range(10):
        m = 120
        a = rng.integers(0, rng.integers(1, 6), m)
        b = rng.integers(0, rng.integers(1, 6), m)
        assert pairwise_similarity_labels(a, b) == pytest.approx(brute_force_similarity(a, b))


def test_similarity_symmetric():
    rng = np.random.default_rng(43)
    a = rng.integers(0, 4, 300)
    b = rng.integers(0, 3, 300)
    assert pairwise_similarity_labels(a, b) == pairwise_similarity_labels(b, a)


def test_similarity_against_oracle_reference(heterog):
    data, oracle, config = heterog
    tree = x4_split_tree(data, config)
    assert pairwise_similarity(tree, oracle, data) == 1.0
    root_only = manual_tree(data.schema, {}, {0: 3.5}, config)
    sim = pairwise_similarity(root_only, oracle, data)
    assert 0.45 < sim < 0.55


def test_metrics_invariant_to_row_order(heterog):
    data, oracle, config = heterog
    tree = x4_split_tree(data, config, threshold=0.2)
    perm = np.random.default_rng(3).permutation(data.n)
    shuffled = take(data, perm)
    assert mse(tree, shuffled, oracle) == pytest.approx(mse(tree, data, oracle))
    assert pairwise_similarity(tree, oracle, shuffled) == pytest.approx(
        pairwise_similarity(tree, oracle, data))


# ---------------------------------------------------------------- driver


def test_run_experiment_single_replicate_echoes_metrics():
    setting = SimSetting("heterogeneous", n=600, seed=0)
    config = make_config(setting, "g")
    summary = run_experiment(setting, config, replications=1, seed=99, threads=1)
    rep = run_replicate(setting, config, 0, 99)
    assert summary.mse == pytest.approx(rep.mse)
    assert summary.correct_tree_prop == float(rep.correct)
    assert summary.mean_noise_splits == float(rep.noise_splits)
    assert summary.pps == pytest.approx(rep.pps)
    assert summary.correct_first_split_prop == float(rep.correct_first)
    assert summary.replications == 1
    assert summary.failures == 0


def test_run_experiment_deterministic():
    setting = SimSetting("heterogeneous", n=600, seed=0)
    config = make_config(setting, "dr")
    a = run_experiment(setting, config, replications=3, seed=7, threads=1)
    b = run_experiment(setting, config, replications=3, seed=7, threads=1)
    # everything except the wall-clock field is reproducible bit for bit
    assert a.to_dict(include_timing=False) == b.to_dict(include_timing=False)


def test_run_experiment_thread_count_does_not_change_results():
    setting = SimSetting("heterogeneous", n=500, seed=0)
    config = make_config(setting, "g")
    serial = run_experiment(setting, config, replications=4, seed=13, threads=1)
    pooled = run_experiment(setting, config, replications=4, seed=13, threads=2)
    assert serial.to_dict(include_timing=False) == pooled.to_dict(include_timing=False)


@pytest.mark.parametrize("threads", [3, None, 1])
def test_run_experiment_starts_at_most_one_worker_per_replicate(monkeypatch, pool_sizes, threads):
    # run_experiment passes ``threads`` to the shared pool (whose own sizing
    # rule is tested in test_select.py); 8 cores, 4 replicates
    import efftree.select as select

    monkeypatch.setattr(select, "available_cores", lambda: 8)
    setting = SimSetting("heterogeneous", n=300, seed=0)
    config = make_config(setting, "g")
    pooled = run_experiment(setting, config, replications=4, seed=5, threads=threads)
    assert pool_sizes == {3: [3], None: [4], 1: []}[threads]
    serial = run_experiment(setting, config, replications=4, seed=5, threads=1)
    assert pooled.to_dict(include_timing=False) == serial.to_dict(include_timing=False)


def test_run_experiment_rejects_a_sample_too_small_before_any_worker_starts(pool_sizes):
    setting = SimSetting("homogeneous", n=50, seed=0)
    config = make_config(setting, "g", min_node=100)
    with pytest.raises(ValueError, match="40 build rows, fewer than min_node=100"):
        run_experiment(setting, config, replications=2, seed=5, threads=2)
    assert pool_sizes == []


@pytest.mark.parametrize("threads", [0, -3])
def test_run_experiment_rejects_threads_below_one_before_any_replicate_runs(monkeypatch, threads):
    import efftree.simulate as simulate

    def no_replicate(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(simulate, "run_replicate", no_replicate)
    setting = SimSetting("homogeneous", n=200, seed=0)
    config = make_config(setting, "g")
    with pytest.raises(ValueError, match="threads must be >= 1"):
        run_experiment(setting, config, replications=2, seed=5, threads=threads)


def test_run_experiment_counts_fit_failures_and_propagates_bugs(monkeypatch):
    import efftree.simulate as simulate
    from efftree.glm import FitError

    setting = SimSetting("heterogeneous", n=300, seed=0)
    config = make_config(setting, "g")
    real = simulate.run_replicate

    def fit_fails_on_first(setting, config, index, *args):
        if index == 0:
            raise FitError("separation")
        return real(setting, config, index, *args)

    monkeypatch.setattr(simulate, "run_replicate", fit_fails_on_first)
    summary = run_experiment(setting, config, replications=2, seed=5, threads=1)
    assert summary.failures == 1
    assert summary.replications == 1

    def bug(*args):
        raise TypeError("a bug, not a failed fit")

    monkeypatch.setattr(simulate, "run_replicate", bug)
    with pytest.raises(TypeError, match="a bug"):
        run_experiment(setting, config, replications=2, seed=5, threads=1)

    def value_bug(*args):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(simulate, "run_replicate", value_bug)
    with pytest.raises(ValueError, match="broadcast"):
        run_experiment(setting, config, replications=2, seed=5, threads=1)


def test_binary_mixed_desk_scale_trends():
    # loose bounds on the binary-outcome mixed-covariate design: the
    # g-formula and DR algorithms with true models recover the level-pair
    # split far more often than IPW
    results = {}
    for est in ("g", "dr", "ipw"):
        setting = SimSetting("binary-mixed-heterogeneous", n=1000, seed=0)
        config = make_config(setting, est)
        results[est] = run_experiment(setting, config, replications=20, seed=9, threads=1)
    assert results["g"].correct_tree_prop >= 0.80
    assert results["g"].correct_first_split_prop >= 0.85
    assert results["dr"].correct_tree_prop >= 0.50
    assert results["dr"].correct_first_split_prop >= 0.75
    assert results["ipw"].correct_tree_prop <= results["g"].correct_tree_prop
    assert results["ipw"].pps <= results["g"].pps


def test_unmeasured_covariate_presets_run():
    # the x2-excluded model variants fit end to end without failures
    setting = SimSetting("heterogeneous", n=800, seed=0)
    for est, pv, ov in (("ipw", "unmeasured-cov", "true"),
                        ("g", "true", "unmeasured-cov"),
                        ("dr", "unmeasured-cov", "unmeasured-cov")):
        config = make_config(setting, est, pv, ov)
        summary = run_experiment(setting, config, replications=3, seed=11, threads=1)
        assert summary.failures == 0


def test_binary_mixed_end_to_end_fit():
    setting = SimSetting("binary-mixed-heterogeneous", n=1000, seed=15)
    data, oracle = generate(setting)
    config = make_config(setting, "dr")
    assert config.outcome_family == "binomial"
    _, final, _ = fit_tree(data, np.arange(800), np.arange(800, 1000), config, 3.84)
    # the fitted tree routes and predicts without error
    pred = final.predict(data)
    assert np.isfinite(pred).all()
