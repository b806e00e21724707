"""Synthetic data generators, their ground truth, the Table-1 metrics, and
the replication driver.

Two continuous-covariate designs share a 6-dimensional equicorrelated normal
covariate vector and a logistic treatment model; they differ in whether the
treatment effect is constant or jumps at x4 = 0. A mixed design draws three
correlated normals plus three discrete uniform covariates and a binary
outcome whose effect is either constant or differs on the x4 levels {B, D}.

Each draw comes with a :class:`TruthOracle`: the one true split (``None``
for a constant effect) and the true effect on each side of it. Every metric
compares a fitted tree with that record.
"""

from __future__ import annotations

import os
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

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

# share of each replicate's training draw that grows the tree; the rest selects it
TRAIN_FRACTION = 0.8


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def binary(self) -> bool:
        return self.design.startswith("binary-mixed")

    @property
    def homogeneous(self) -> bool:
        return self.design in (HOMOGENEOUS, BINARY_MIXED_HOMOGENEOUS)


@dataclass(frozen=True)
class TruthOracle:
    """Ground truth of one design: the split where the treatment effect
    jumps, or None for a constant effect, and the effect on each side of it
    (both sides equal when there is no split)."""

    split: Optional[SplitRule]
    left_effect: float
    right_effect: float

    def reference_cells(self, data: Dataset) -> np.ndarray:
        """The true cell of every row: 1 left of the split, 0 otherwise."""
        if self.split is None:
            return np.zeros(data.n, dtype=np.int64)
        return self.split.goes_left(data, np.arange(data.n)).astype(np.int64)

    def true_cate(self, data: Dataset) -> np.ndarray:
        """The true treatment effect of every row."""
        return np.where(self.reference_cells(data) == 1, self.left_effect, self.right_effect)


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

    jump = None if setting.homogeneous else SplitRule("x4", 3, "threshold", threshold=0.0)
    return data, TruthOracle(jump, 2.0, 2.0 if jump is None else 5.0)


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

    jump = None if setting.homogeneous else SplitRule(
        "x4", 3, "subset", left_levels=("B", "D"), right_levels=("A", "C"))
    # 0.1 - 0.4 sums the generator's two A terms; as a float it is not -0.3
    return data, TruthOracle(jump, 0.1 if jump is None else 0.1 - 0.4, 0.1)


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


def mse(tree: Tree, test: Dataset, truth: TruthOracle) -> float:
    """Mean squared error of the tree's effect predictions against the truth."""
    if test.n == 0:
        raise ValueError("empty test set")
    pred = tree.predict(test)
    return float(np.mean((pred - truth.true_cate(test)) ** 2))


def _level_partition(rule: SplitRule, levels: tuple[str, ...]) -> frozenset:
    """The unordered pair of level sets a categorical or ordinal split makes."""
    if rule.kind == "subset":
        left = frozenset(rule.left_levels)
    else:
        left = frozenset(levels[: rule.cut + 1])
    return frozenset([left, frozenset(levels) - left])


def _is_true_split(rule: SplitRule, truth: TruthOracle, schema: Schema) -> bool:
    """Whether a fitted split cuts where the truth does: on the same column
    and, unless that column is continuous (split point free), into the same
    unordered pair of level sets."""
    if truth.split is None or rule.column != truth.split.column:
        return False
    kind = schema.kind_of(rule.column)
    return isinstance(kind, Continuous) or (
        _level_partition(rule, kind.levels) == _level_partition(truth.split, kind.levels))


def is_correct_tree(tree: Tree, truth: TruthOracle) -> bool:
    """True when the tree splits exactly once, on the true split, or not at
    all when the effect is constant."""
    rules = [tree.node(node_id).rule for node_id in tree.internal_ids()]
    if truth.split is None:
        return not rules
    return len(rules) == 1 and _is_true_split(rules[0], truth, tree.schema)


def noise_split_count(tree: Tree, truth: TruthOracle) -> int:
    """Number of internal nodes splitting on a column other than the true split's."""
    true_column = None if truth.split is None else truth.split.column
    return sum(tree.node(node_id).rule.column != true_column for node_id in tree.internal_ids())


def correct_first_split(max_tree: Tree, truth: TruthOracle) -> bool:
    """Whether the fully grown tree's root split is the true split."""
    root = max_tree.node(max_tree.root_id)
    return not root.is_terminal and _is_true_split(root.rule, truth, max_tree.schema)


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
    n_b = ib.max() + 1
    joint = np.bincount(ia * n_b + ib, minlength=(ia.max() + 1) * n_b).reshape(-1, n_b)
    same_a = int(pairs(joint.sum(axis=1)).sum())
    same_b = int(pairs(joint.sum(axis=0)).sum())
    same_both = int(pairs(joint).sum())
    discordant = same_a + same_b - 2 * same_both
    return 1.0 - discordant / pairs(m)


def pairwise_similarity(tree: Tree, truth: TruthOracle, data: Dataset) -> float:
    """Pairwise prediction similarity between the tree's cells and the true
    cells on the given rows."""
    return pairwise_similarity_labels(tree.route(data), truth.reference_cells(data))


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


def build_size(n: int) -> int:
    """Rows a replicate of n training rows builds its tree on; the rest select it."""
    return int(round(TRAIN_FRACTION * n))


def check_sample_size(setting: SimSetting, config: GrowConfig) -> None:
    """ValueError when a replicate's build rows are fewer than ``min_node``,
    so that every replicate would fail to grow a root."""
    n_build = build_size(setting.n)
    if n_build < config.min_node:
        raise ValueError(f"n={setting.n} leaves {n_build} build rows, "
                         f"fewer than min_node={config.min_node}")


def run_replicate(
    setting: SimSetting,
    config: GrowConfig,
    index: int,
    seed: int,
    lam: float = DEFAULT_LAMBDA,
) -> ReplicateResult:
    """One train/select/evaluate cycle: fresh train and test draws, a
    build/validation split at TRAIN_FRACTION, full growth + pruning + selection."""
    train_setting = SimSetting(setting.design, setting.n, _replicate_seed(seed, index, "train"))
    test_setting = SimSetting(setting.design, setting.n, _replicate_seed(seed, index, "test"))
    train, truth = generate(train_setting)
    test, _ = generate(test_setting)

    n_build = build_size(train.n)
    build_mask = SubgroupMask(np.arange(train.n) < n_build)

    t0 = time.perf_counter()
    max_tree = grow_max_tree(train, build_mask, config)
    sequence = weakest_link_sequence(max_tree)
    final, _ = select_final(sequence, train, np.arange(n_build, train.n), lam)
    fit_seconds = time.perf_counter() - t0

    return ReplicateResult(
        mse=mse(final, test, truth),
        correct=is_correct_tree(final, truth),
        noise_splits=noise_split_count(final, truth),
        pps=pairwise_similarity(final, truth, test),
        correct_first=correct_first_split(max_tree, truth),
        fit_seconds=fit_seconds,
    )


def _run_replicate_packed(args):
    setting, config, index, seed, lam = args
    try:
        return index, run_replicate(setting, config, index, seed, lam), None
    except FitError as err:  # a replicate that cannot be fit; bugs propagate
        return index, None, f"{type(err).__name__}: {err}"


def run_experiment(
    setting: SimSetting,
    config: GrowConfig,
    replications: int,
    seed: int,
    lam: float = DEFAULT_LAMBDA,
    threads: Optional[int] = None,
) -> ExperimentSummary:
    """Aggregate metrics over independent replicates.

    Replicate i draws from substreams of (seed, i), so results are identical
    for any thread count; at most one worker process starts per replicate.
    A replicate that cannot be fit (FitError) is excluded and counted, and
    FitError is raised if no replicate is left; any other error propagates.
    ValueError, before any replicate runs, for fewer than one replication or
    thread, or a sample too small for ``min_node`` (``check_sample_size``).
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if threads is not None and threads < 1:
        raise ValueError("threads must be >= 1")
    check_sample_size(setting, config)
    jobs = [(setting, config, i, seed, lam) for i in range(replications)]
    results: list[Optional[ReplicateResult]] = [None] * replications
    errors: list[str] = []
    workers = min(threads if threads is not None else (os.cpu_count() or 1), replications)
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
        raise FitError("all replicates failed: " + "; ".join(errors[:3]))
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
