"""Synthetic data generators, ground-truth oracles, evaluation metrics, and
the replication driver.

Two continuous-covariate designs share a 6-dimensional equicorrelated normal
covariate vector and a logistic treatment model; they differ in whether the
treatment effect is constant or jumps at x4 = 0. A mixed design draws three
correlated normals plus three discrete uniform covariates and a binary
outcome whose effect is either constant or jumps on a level pair of x4.
"""

from __future__ import annotations

import os
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .data import Categorical, Continuous, Dataset, Schema, SubgroupMask
from .estimators import EstimatorKind, NuisanceScope
from .glm import FitError
from .prune import DEFAULT_LAMBDA, weakest_link_sequence
from .search import SplitRule
from .select import select_final
from .tree import GrowConfig, Tree, grow_max_tree

HOMOGENEOUS = "homogeneous"
HETEROGENEOUS = "heterogeneous"
BINARY_MIXED_HOMOGENEOUS = "binary-mixed-homogeneous"
BINARY_MIXED_HETEROGENEOUS = "binary-mixed-heterogeneous"

SETTINGS = (
    HOMOGENEOUS,
    HETEROGENEOUS,
    BINARY_MIXED_HOMOGENEOUS,
    BINARY_MIXED_HETEROGENEOUS,
)

MODEL_VARIANTS = ("true", "mis-func", "unmeasured-cov")


def _expit(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class SimSetting:
    """One simulation design instance: which generator, how many rows, which seed."""

    design: str
    n: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.design not in SETTINGS:
            raise ValueError(f"unknown design {self.design!r}; choose from {SETTINGS}")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def binary(self) -> bool:
        return self.design.startswith("binary-mixed")

    @property
    def homogeneous(self) -> bool:
        return self.design in (HOMOGENEOUS, BINARY_MIXED_HOMOGENEOUS)


@dataclass
class TruthOracle:
    """Ground truth for one design: the true effect surface, the splits a
    correct tree must make, and which covariates are noise."""

    true_cate: Callable[[Dataset], np.ndarray]
    continuous_splits: dict[str, int]
    categorical_splits: dict[str, list[frozenset]]
    noise_variables: frozenset
    reference_cells: Callable[[Dataset], np.ndarray]


def _continuous_schema() -> Schema:
    cols = tuple((f"x{j}", Continuous()) for j in range(1, 7))
    return Schema(cols, treatment="A", outcome="Y")


def _binary_mixed_schema() -> Schema:
    letters = "ABCDEF"
    cols: list[tuple] = [(f"x{j}", Continuous()) for j in range(1, 4)]
    for j in (4, 5, 6):
        cols.append((f"x{j}", Categorical(tuple(letters[:j]))))
    return Schema(tuple(cols), treatment="A", outcome="Y")


def _equicorrelated_factor(p: int, rho: float = 0.3) -> np.ndarray:
    cov = np.full((p, p), rho)
    np.fill_diagonal(cov, 1.0)
    return np.linalg.cholesky(cov)


_CHOL6 = _equicorrelated_factor(6)
_CHOL3 = _equicorrelated_factor(3)


def generate(setting: SimSetting) -> tuple[Dataset, TruthOracle]:
    """Draw one dataset from the design, deterministic given the setting's seed."""
    rng = np.random.default_rng(np.random.SeedSequence(setting.seed))
    if setting.binary:
        return _generate_binary_mixed(setting, rng)
    return _generate_continuous(setting, rng)


def _generate_continuous(setting: SimSetting, rng) -> tuple[Dataset, TruthOracle]:
    n = setting.n
    X = rng.standard_normal((n, 6)) @ _CHOL6.T
    p_treat = _expit(0.6 * X[:, 0] - 0.6 * X[:, 1] + 0.6 * X[:, 2])
    A = (rng.random(n) < p_treat).astype(np.int64)
    noise = rng.standard_normal(n)
    base = 2.0 + 2.0 * (X[:, 0] < 0) + np.exp(X[:, 1]) + X[:, 4] ** 3
    if setting.homogeneous:
        Y = base + 2.0 * A + 3.0 * (X[:, 3] > 0) + noise
    else:
        Y = base + 2.0 * A + 3.0 * A * (X[:, 3] > 0) + noise
    schema = _continuous_schema()
    data = Dataset(
        schema,
        {f"x{j}": X[:, j - 1] for j in range(1, 7)},
        A,
        Y,
    )

    if setting.homogeneous:
        oracle = TruthOracle(
            true_cate=lambda d: np.full(d.n, 2.0),
            continuous_splits={},
            categorical_splits={},
            noise_variables=frozenset(f"x{j}" for j in range(1, 7)),
            reference_cells=lambda d: np.zeros(d.n, dtype=np.int64),
        )
    else:
        oracle = TruthOracle(
            true_cate=lambda d: 2.0 + 3.0 * (d.column("x4") > 0),
            continuous_splits={"x4": 1},
            categorical_splits={},
            noise_variables=frozenset(f"x{j}" for j in (1, 2, 3, 5, 6)),
            reference_cells=lambda d: (d.column("x4") > 0).astype(np.int64),
        )
    return data, oracle


def _generate_binary_mixed(setting: SimSetting, rng) -> tuple[Dataset, TruthOracle]:
    n = setting.n
    X = rng.standard_normal((n, 3)) @ _CHOL3.T
    codes = {j: rng.integers(0, j, size=n) for j in (4, 5, 6)}
    p_treat = _expit(0.3 * X[:, 1] - 0.3 * X[:, 2] + 0.3 * np.isin(codes[6], (1, 2)))
    A = (rng.random(n) < p_treat).astype(np.int64)
    in_bd = np.isin(codes[4], (1, 3))  # levels "B" and "D"
    if setting.homogeneous:
        p_y = 0.15 + 0.1 * A + _expit(0.2 * X[:, 1]) - 0.4 * in_bd
    else:
        p_y = 0.1 + 0.1 * A + _expit(0.2 * X[:, 1]) - 0.4 * A * in_bd
    p_y = np.clip(p_y, 0.0, 1.0)
    Y = (rng.random(n) < p_y).astype(np.float64)
    schema = _binary_mixed_schema()
    covs = {f"x{j}": X[:, j - 1] for j in (1, 2, 3)}
    covs.update({f"x{j}": codes[j] for j in (4, 5, 6)})
    data = Dataset(schema, covs, A, Y)

    if setting.homogeneous:
        oracle = TruthOracle(
            true_cate=lambda d: np.full(d.n, 0.1),
            continuous_splits={},
            categorical_splits={},
            noise_variables=frozenset(f"x{j}" for j in range(1, 7)),
            reference_cells=lambda d: np.zeros(d.n, dtype=np.int64),
        )
    else:
        partition = frozenset([frozenset({"B", "D"}), frozenset({"A", "C"})])
        oracle = TruthOracle(
            true_cate=lambda d: 0.1 - 0.4 * np.isin(d.column("x4"), (1, 3)),
            continuous_splits={},
            categorical_splits={"x4": [partition]},
            noise_variables=frozenset(f"x{j}" for j in (1, 2, 3, 5, 6)),
            reference_cells=lambda d: np.isin(d.column("x4"), (1, 3)).astype(np.int64),
        )
    return data, oracle


# ----------------------------------------------------------------------
# model-spec presets


def preset_specs(setting: SimSetting, propensity_variant: str, outcome_variant: str) -> dict:
    """Propensity and outcome spec strings for a design and model variants.

    Variants: "true" (the generating functional forms), "mis-func" (raw main
    effects, exponentiated covariates in the propensity), "unmeasured-cov"
    (x2 excluded from both models).
    """
    for variant in (propensity_variant, outcome_variant):
        if variant not in MODEL_VARIANTS:
            raise ValueError(f"unknown model variant {variant!r}")
    if setting.binary:
        prop = {
            "true": "1 + x2 + x3 + in(x6,B,C)",
            "mis-func": "1 + exp(x1) + exp(x2) + exp(x3) + x4 + x5 + x6",
            "unmeasured-cov": "1 + x1 + x3 + x4 + x5 + x6",
        }[propensity_variant]
        true_out = "1 + A + x2 + {}in(x4,B,D)"
        family = "binomial"
    else:
        prop = {
            "true": "1 + x1 + x2 + x3",
            "mis-func": "1 + " + " + ".join(f"exp(x{j})" for j in range(1, 7)),
            "unmeasured-cov": "1 + x1 + x3 + x4 + x5 + x6",
        }[propensity_variant]
        true_out = "1 + A + lt(x1,0) + exp(x2) + {}gt(x4,0) + cube(x5)"
        family = "gaussian"
    if outcome_variant == "true":
        # the effect modifier enters with A only in the heterogeneous design
        out = true_out.format("" if setting.homogeneous else "A:")
    else:
        kept = range(1, 7) if outcome_variant == "mis-func" else (1, 3, 4, 5, 6)
        covs = [f"x{j}" for j in kept]
        out = "1 + A + " + " + ".join(covs) + " + " + " + ".join(f"A:{c}" for c in covs)
    return {"propensity": prop, "outcome": out, "outcome_family": family}


def make_config(
    setting: SimSetting,
    estimator: str | EstimatorKind,
    propensity_variant: str = "true",
    outcome_variant: str = "true",
    **overrides,
) -> GrowConfig:
    """GrowConfig with preset nuisance specs for a simulation design."""
    specs = preset_specs(setting, propensity_variant, outcome_variant)
    kwargs = {"scope": NuisanceScope.PARENT, "outcome_family": specs["outcome_family"], **overrides}
    return GrowConfig.from_strings(
        estimator=EstimatorKind(estimator).value,
        treatment_name="A",
        propensity=specs["propensity"],
        outcome=specs["outcome"],
        **kwargs,
    )


# ----------------------------------------------------------------------
# metrics


def mse(tree: Tree, test: Dataset, oracle: TruthOracle) -> float:
    """Mean squared error of the tree's effect predictions against the truth."""
    if test.n == 0:
        raise ValueError("empty test set")
    pred = tree.predict(test)
    return float(np.mean((pred - oracle.true_cate(test)) ** 2))


def _level_partition(rule: SplitRule, levels: tuple[str, ...]) -> frozenset:
    """The unordered pair of level sets a categorical or ordinal split makes."""
    if rule.kind == "subset":
        left = frozenset(rule.left_levels)
    else:
        left = frozenset(levels[: rule.cut + 1])
    return frozenset([left, frozenset(levels) - left])


def _tree_split_summary(tree: Tree) -> tuple[dict[str, int], dict[str, list[frozenset]]]:
    continuous: dict[str, int] = {}
    categorical: dict[str, list[frozenset]] = {}
    for node_id in tree.internal_ids():
        rule = tree.node(node_id).rule
        kind = tree.schema.kind_of(rule.column)
        if isinstance(kind, Continuous):
            continuous[rule.column] = continuous.get(rule.column, 0) + 1
        else:
            categorical.setdefault(rule.column, []).append(_level_partition(rule, kind.levels))
    return continuous, categorical


def is_correct_tree(tree: Tree, oracle: TruthOracle) -> bool:
    """True when continuous split counts match the oracle per variable
    (split points free) and categorical/ordinal splits hit exactly the
    oracle's level partitions."""
    continuous, categorical = _tree_split_summary(tree)
    if continuous != oracle.continuous_splits:
        return False
    if set(categorical) != set(oracle.categorical_splits):
        return False
    for col, partitions in oracle.categorical_splits.items():
        if sorted(categorical[col], key=sorted) != sorted(partitions, key=sorted):
            return False
    return True


def noise_split_count(tree: Tree, oracle: TruthOracle) -> int:
    """Number of internal nodes splitting on a noise variable."""
    return sum(
        1
        for node_id in tree.internal_ids()
        if tree.node(node_id).rule.column in oracle.noise_variables
    )


def correct_first_split(max_tree: Tree, oracle: TruthOracle) -> bool:
    """Whether the fully grown tree's root split matches the oracle."""
    root = max_tree.node(max_tree.root_id)
    if root.is_terminal:
        return False
    rule = root.rule
    if oracle.continuous_splits:
        return rule.column in oracle.continuous_splits
    if oracle.categorical_splits:
        if rule.column not in oracle.categorical_splits:
            return False
        levels = max_tree.schema.kind_of(rule.column).levels
        return _level_partition(rule, levels) in oracle.categorical_splits[rule.column]
    return False


def pairwise_similarity_labels(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Co-membership agreement rate between two partitions of the same rows.

    Computed from the contingency table of cell pairs, equivalent to
    enumerating all row pairs: 1 - (pairs together in exactly one
    partition) / (all pairs).
    """
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    m = len(labels_a)
    if m < 2 or m != len(labels_b):
        raise ValueError("need two label vectors of equal length >= 2")

    def pairs(x):
        return x * (x - 1) // 2

    _, ia = np.unique(labels_a, return_inverse=True)
    _, ib = np.unique(labels_b, return_inverse=True)
    joint = np.zeros((ia.max() + 1, ib.max() + 1), dtype=np.int64)
    np.add.at(joint, (ia, ib), 1)
    same_a = int(pairs(joint.sum(axis=1)).sum())
    same_b = int(pairs(joint.sum(axis=0)).sum())
    same_both = int(pairs(joint).sum())
    discordant = same_a + same_b - 2 * same_both
    return 1.0 - discordant / pairs(m)


def pairwise_similarity(tree: Tree, reference, data: Dataset) -> float:
    """Pairwise prediction similarity between a tree and a reference
    partition (another tree or a truth oracle) on the given rows."""
    labels_a = tree.route(data)
    if isinstance(reference, Tree):
        labels_b = reference.route(data)
    else:
        labels_b = reference.reference_cells(data)
    return pairwise_similarity_labels(labels_a, labels_b)


# ----------------------------------------------------------------------
# replication driver


@dataclass
class ExperimentSummary:
    """Aggregated Monte Carlo results for one design and algorithm config."""

    mse: float
    correct_tree_prop: float
    mean_noise_splits: float
    pps: float
    correct_first_split_prop: float
    mean_fit_seconds: float
    replications: int
    failures: int

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "mse": self.mse,
            "correct_tree_prop": self.correct_tree_prop,
            "mean_noise_splits": self.mean_noise_splits,
            "pps": self.pps,
            "correct_first_split_prop": self.correct_first_split_prop,
            "replications": self.replications,
            "failures": self.failures,
        }
        if include_timing:
            out["mean_fit_seconds"] = self.mean_fit_seconds
        return out


@dataclass
class ReplicateResult:
    mse: float
    correct: bool
    noise_splits: int
    pps: float
    correct_first: bool
    fit_seconds: float


def _replicate_seed(seed: int, index: int, stream: str) -> int:
    """Deterministic substream seed for one replicate and purpose."""
    label = zlib.crc32(stream.encode("utf-8"))
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(label, index))
    return int(ss.generate_state(1)[0])


def run_replicate(
    setting: SimSetting,
    config: GrowConfig,
    index: int,
    seed: int,
    train_fraction: float = 0.8,
    lam: float = DEFAULT_LAMBDA,
) -> ReplicateResult:
    """One train/select/evaluate cycle: fresh train and test draws, an
    80/20 build/validation split, full growth + pruning + selection."""
    train_setting = SimSetting(setting.design, setting.n, _replicate_seed(seed, index, "train"))
    test_setting = SimSetting(setting.design, setting.n, _replicate_seed(seed, index, "test"))
    train, oracle = generate(train_setting)
    test, _ = generate(test_setting)

    n_build = int(round(train_fraction * train.n))
    build_mask = SubgroupMask(np.arange(train.n) < n_build)

    t0 = time.perf_counter()
    max_tree = grow_max_tree(train, build_mask, config)
    sequence = weakest_link_sequence(max_tree)
    final, _ = select_final(sequence, train, np.arange(n_build, train.n), lam)
    fit_seconds = time.perf_counter() - t0

    return ReplicateResult(
        mse=mse(final, test, oracle),
        correct=is_correct_tree(final, oracle),
        noise_splits=noise_split_count(final, oracle),
        pps=pairwise_similarity(final, oracle, test),
        correct_first=correct_first_split(max_tree, oracle),
        fit_seconds=fit_seconds,
    )


def _run_replicate_packed(args):
    setting, config, index, seed, train_fraction, lam = args
    try:
        return index, run_replicate(setting, config, index, seed, train_fraction, lam), None
    except (FitError, ValueError) as err:  # a replicate that cannot be fit; bugs propagate
        return index, None, f"{type(err).__name__}: {err}"


def run_experiment(
    setting: SimSetting,
    config: GrowConfig,
    replications: int,
    seed: int,
    train_fraction: float = 0.8,
    lam: float = DEFAULT_LAMBDA,
    threads: Optional[int] = None,
) -> ExperimentSummary:
    """Aggregate metrics over independent replicates.

    Replicate i draws from substreams of (seed, i), so results are identical
    for any thread count. A replicate that cannot be fit (FitError or
    ValueError) is excluded and counted; any other error propagates.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    jobs = [
        (setting, config, i, seed, train_fraction, lam) for i in range(replications)
    ]
    results: list[Optional[ReplicateResult]] = [None] * replications
    errors: list[str] = []
    workers = threads if threads is not None else (os.cpu_count() or 1)
    if workers <= 1:
        outputs = list(map(_run_replicate_packed, jobs))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_run_replicate_packed, jobs))
    for index, result, error in outputs:
        if error is not None:
            errors.append(f"replicate {index}: {error}")
        else:
            results[index] = result

    kept = [r for r in results if r is not None]
    if not kept:
        raise RuntimeError("all replicates failed: " + "; ".join(errors[:3]))
    return ExperimentSummary(
        mse=float(np.mean([r.mse for r in kept])),
        correct_tree_prop=float(np.mean([r.correct for r in kept])),
        mean_noise_splits=float(np.mean([r.noise_splits for r in kept])),
        pps=float(np.mean([r.pps for r in kept])),
        correct_first_split_prop=float(np.mean([r.correct_first for r in kept])),
        mean_fit_seconds=float(np.mean([r.fit_seconds for r in kept])),
        replications=len(kept),
        failures=len(errors),
    )
