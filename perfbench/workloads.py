"""Benchmark workloads: their inputs, the efftree commands they time, and
the checks each command's output must pass.

Inputs come from efftree's own generators (`efftree.simulate.generate`),
so every check can compare against the generator's truth oracle. All
inputs derive from the workload seed. A repetition on input `index` k
draws fresh data from the seed's k-th input streams: an untraced run gives
repetition k input k, so its median spans several draws of the data; a
traced run uses input 0 in every repetition, so its counts must repeat
exactly.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from efftree import cli
from efftree.data import load_csv, write_csv
from efftree.simulate import SimSetting, correct_first_split, generate, mse
from efftree.tree import schema_to_dict, tree_from_dict

# Outcome spec with every covariate and its treatment interaction: the
# widest design the continuous generator's presets offer ("mis-func").
WIDE_OUTCOME = ("1 + A + x1 + x2 + x3 + x4 + x5 + x6"
                " + A:x1 + A:x2 + A:x3 + A:x4 + A:x5 + A:x6")
G_FIT_FLAGS = ["--estimator", "g", "--outcome-spec", WIDE_OUTCOME,
               "--variance", "pooled-sandwich", "--scope", "parent"]


@dataclass
class Op:
    """One timed `efftree` command.

    `units` is the number of operations it stands for in `attempted`
    (replicates for `simulate`, else 1). Commands with the same `key` run on
    the same input and must print the same output. `out` is the command's
    output directory, if it has one.
    """

    argv: list[str]
    units: int
    label: str
    key: str
    out: Optional[Path] = None


@dataclass
class Outcome:
    """Result of checking one command's output."""

    failed_units: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""            # hash of the deterministic part of the output
    extras: dict = field(default_factory=dict)

    def fail(self, units: int, problem: str) -> None:
        self.failed_units = max(self.failed_units, units)
        self.problems.append(problem)


def derived_seed(seed: int, *stream: int) -> int:
    """Seed of one independent input stream of the workload seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=stream)
    return int(ss.generate_state(1)[0])


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _write_schema(data, path: Path) -> None:
    path.write_text(json.dumps(schema_to_dict(data.schema)), encoding="utf-8")


def _load_tree(path: Path):
    return tree_from_dict(json.loads(path.read_text(encoding="utf-8")))


class Workload:
    name = ""
    why = ""
    sizes: dict[str, dict] = {}

    def __init__(self, scale: str = "full"):
        self.size = self.sizes[scale]

    def prepare(self, seed: int, workdir: Path) -> None:
        """Make the inputs every repetition shares (untimed)."""
        self.seed = seed
        self.workdir = workdir

    def ops(self, rep_dir: Path, index: int) -> list[Op]:
        """The commands of one repetition on input `index`; inputs are made
        on first use (untimed)."""
        raise NotImplementedError

    def check(self, op: Op, stdout: Path, exit_code) -> Outcome:
        raise NotImplementedError


class SimTable1(Workload):
    """`efftree simulate --threads 1` on the four Table-1 cells."""

    name = "sim-table1"
    why = ("efftree simulate at n=1000 on four Table-1 cells: many small nodes, so "
           "IRLS, design rebuilds and scalar selection dominate; no CSV I/O")
    sizes = {"full": {"n": 1000, "reps": 15}, "tiny": {"n": 300, "reps": 1}}
    CELLS = (("homog", "g"), ("heterog", "g"), ("heterog", "dr"), ("heterog", "ipw"))
    # Mean squared effect error per cell: g and dr with true specs land near
    # 0; ipw at n=1000 is noisy (often a root-only tree, MSE about 2.25).
    MSE_BOUND = {"g": 0.5, "dr": 1.0, "ipw": 12.0}
    # Share of replicates whose max tree splits first on x4 (heterog g/dr).
    FIRST_SPLIT_MIN = 0.6

    def ops(self, rep_dir: Path, index: int) -> list[Op]:
        seed = derived_seed(self.seed, 1, index)
        return [
            Op(["simulate", "--setting", setting, "--algo", algo,
                "--reps", str(self.size["reps"]), "--n", str(self.size["n"]),
                "--seed", str(seed), "--threads", "1", "--timing"],
               self.size["reps"], f"{setting}-{algo}", f"{setting}-{algo}:{index}")
            for setting, algo in self.CELLS
        ]

    def check(self, op: Op, stdout: Path, exit_code) -> Outcome:
        out = Outcome()
        if exit_code != 0:
            out.fail(op.units, f"{op.label}: exit code {exit_code}")
            return out
        try:
            res = json.loads(stdout.read_text(encoding="utf-8").strip().splitlines()[-1])["results"]
        except (IndexError, ValueError, KeyError) as err:
            out.fail(op.units, f"{op.label}: unreadable simulate output ({err})")
            return out
        out.extras.update(fit_s=res.pop("mean_fit_seconds", math.nan), mse=res["mse"],
                          first_split=res["correct_first_split_prop"])
        out.digest = hashlib.sha256(json.dumps(res, sort_keys=True).encode()).hexdigest()
        if res["failures"]:
            out.fail(res["failures"], f"{op.label}: {res['failures']} replicates failed")
        if res["replications"] + res["failures"] != op.units:
            out.fail(op.units, f"{op.label}: {res['replications']} replicates reported")
        algo = op.label.split("-")[1]
        if not res["mse"] < self.MSE_BOUND[algo]:
            out.fail(op.units, f"{op.label}: mse {res['mse']:.4g} over {self.MSE_BOUND[algo]}")
        if op.label.startswith("heterog") and algo != "ipw":
            if res["correct_first_split_prop"] < self.FIRST_SPLIT_MIN:
                out.fail(op.units, f"{op.label}: first split on x4 in only "
                                   f"{res['correct_first_split_prop']:.2f} of replicates")
        return out


class _FitWorkload(Workload):
    """`efftree fit` on generated CSVs, each checked against the truth oracle."""

    design = ""
    max_mse = 0.0

    def fit_flags(self) -> list[str]:
        raise NotImplementedError

    def prepare(self, seed: int, workdir: Path) -> None:
        super().prepare(seed, workdir)
        self.test, self.oracle = generate(
            SimSetting(self.design, self.size["n_test"], derived_seed(seed, 0)))
        _write_schema(self.test, workdir / "schema.json")

    def ops(self, rep_dir: Path, index: int) -> list[Op]:
        ops = []
        for j in range(self.size["per_rep"]):
            k = index * self.size["per_rep"] + j
            train_csv = self.workdir / f"train{k}.csv"
            if not train_csv.exists():
                train, _ = generate(SimSetting(self.design, self.size["n"],
                                               derived_seed(self.seed, 1, k)))
                write_csv(train, train_csv)
            out = rep_dir / f"fit{j}"
            argv = ["fit", "--data", str(train_csv), "--schema", str(self.workdir / "schema.json"),
                    "--seed", str(self.seed), "--out", str(out)] + self.fit_flags()
            ops.append(Op(argv, 1, "fit", f"fit:{k}", out))
        return ops

    def check(self, op: Op, stdout: Path, exit_code) -> Outcome:
        out = Outcome()
        if exit_code != 0:
            out.fail(1, f"fit: exit code {exit_code}")
            return out
        artifacts = [op.out / "tree.json", op.out / "selection.json", stdout]
        try:
            tree = _load_tree(op.out / "tree.json")
            selection = json.loads((op.out / "selection.json").read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError) as err:
            out.fail(1, f"fit: unreadable artifacts ({err})")
            return out
        chosen = selection["candidates"][selection["chosen"]]
        if chosen["internal_nodes"] != tree.n_internal():
            out.fail(1, "fit: selection.json does not describe tree.json")
        if not correct_first_split(tree, self.oracle):
            out.fail(1, f"fit: first split {tree.node(tree.root_id).rule} misses the oracle's")
        err = mse(tree, self.test, self.oracle)
        out.extras.update(mse=err, terminals=len(tree.terminal_ids()))
        if not err < self.max_mse:
            out.fail(1, f"fit: effect mse {err:.4g} over {self.max_mse}")
        if (op.out / "bootstrap.json").exists():
            artifacts.append(op.out / "bootstrap.json")
        self.check_bootstrap(tree, op.out, out)
        out.digest = _digest(*artifacts)
        return out

    def check_bootstrap(self, tree, out_dir: Path, out: Outcome) -> None:
        pass


# Effect MSE bound for the g-formula trees with the wide (misspecified)
# outcome design: a root-only tree scores 2.25, while 110 fits at 1e4 rows
# stayed under 0.85.
MAX_G_MSE = 1.5


class CliContinuousG(_FitWorkload):
    name = "cli-continuous-g"
    why = ("efftree fit, g-formula, widest outcome design, pooled sandwich: large "
           "nodes make the sandwich kernel and sorting dominate; no IRLS")
    design = "heterogeneous"
    sizes = {"full": {"n": 10000, "n_test": 20000, "per_rep": 2},
             "tiny": {"n": 6000, "n_test": 3000, "per_rep": 1}}
    max_mse = MAX_G_MSE

    def fit_flags(self) -> list[str]:
        return G_FIT_FLAGS


class CliMixedDrBoot(_FitWorkload):
    name = "cli-mixed-dr-boot"
    why = ("efftree fit --bootstrap, DR, binomial outcome, influence variance on "
           "mixed covariates: IRLS, categorical subsets and resampling dominate")
    design = "binary-mixed-heterogeneous"
    sizes = {"full": {"n": 20000, "n_test": 20000, "B": 100, "per_rep": 1},
             "tiny": {"n": 3000, "n_test": 3000, "B": 5, "per_rep": 1}}
    max_mse = 0.02

    def fit_flags(self) -> list[str]:
        return ["--estimator", "dr", "--propensity-spec", "1 + x2 + x3 + in(x6,B,C)",
                "--outcome-spec", "1 + A + x2 + A:in(x4,B,D)", "--outcome-family", "binomial",
                "--variance", "influence", "--scope", "parent",
                # Intervals need terminals of some size, and bootstrap time
                # grows with the terminal count: 100-row nodes and the 0.999
                # chi-square penalty keep the selected tree at the true split.
                "--min-node", "100", "--lambda", "10.83",
                "--bootstrap", str(self.size["B"])]

    def check_bootstrap(self, tree, out_dir: Path, out: Outcome) -> None:
        try:
            intervals = json.loads((out_dir / "bootstrap.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            out.fail(1, f"fit: unreadable bootstrap.json ({err})")
            return
        if sorted(iv["terminal"] for iv in intervals) != tree.terminal_ids():
            out.fail(1, "fit: bootstrap intervals do not match the terminals")
        for iv in intervals:
            if iv["replicates"] + iv["dropped"] != self.size["B"]:
                out.fail(1, f"fit: terminal {iv['terminal']} counts "
                            f"{iv['replicates']}+{iv['dropped']} replicates")
            if not (math.isfinite(iv["lower"]) and iv["lower"] <= iv["upper"]):
                out.fail(1, f"fit: bad interval for terminal {iv['terminal']}")
        out.extras["dropped"] = max((iv["dropped"] for iv in intervals), default=0)


class CliContinuousPredict(Workload):
    """`efftree predict` of a fitted tree on a larger generated CSV."""

    name = "cli-continuous-predict"
    why = ("efftree predict on continuous rows: CSV load, routing and the per-row "
           "CSV output loop; no model fitting")
    sizes = {"full": {"n_fit": 10000, "n": 10000, "per_rep": 1},
             "tiny": {"n_fit": 6000, "n": 2000, "per_rep": 1}}
    max_mse = MAX_G_MSE

    def prepare(self, seed: int, workdir: Path) -> None:
        super().prepare(seed, workdir)
        train, _ = generate(SimSetting("heterogeneous", self.size["n_fit"], derived_seed(seed, 1)))
        rows, self.oracle = generate(SimSetting("heterogeneous", self.size["n"], derived_seed(seed, 2)))
        write_csv(train, workdir / "train.csv")
        _write_schema(train, workdir / "schema.json")
        write_csv(rows, workdir / "rows.csv")
        argv = ["fit", "--data", str(workdir / "train.csv"), "--schema", str(workdir / "schema.json"),
                "--seed", str(seed), "--out", str(workdir / "tree")] + G_FIT_FLAGS
        with open(workdir / "fit.out", "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"fitting the tree to predict with failed: exit {code}")
        self.tree = _load_tree(workdir / "tree" / "tree.json")
        self.rows = load_csv(workdir / "rows.csv", self.tree.schema)
        self.expected = self.tree.route(self.rows)
        self.verified: dict[str, Outcome] = {}

    def ops(self, rep_dir: Path, index: int) -> list[Op]:
        # Predict time follows the row count, not the draw: one input serves all.
        argv = ["predict", "--tree", str(self.workdir / "tree" / "tree.json"),
                "--data", str(self.workdir / "rows.csv")]
        return [Op(argv, 1, "predict", "predict") for _ in range(self.size["per_rep"])]

    def check(self, op: Op, stdout: Path, exit_code) -> Outcome:
        if exit_code != 0:
            out = Outcome()
            out.fail(1, f"predict: exit code {exit_code}")
            return out
        digest = _digest(stdout)
        if digest not in self.verified:
            self.verified[digest] = self._check_table(stdout)
            self.verified[digest].digest = digest
        return self.verified[digest]

    def _check_table(self, stdout: Path) -> Outcome:
        out = Outcome()
        with open(stdout, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        header, body = table[0], table[1:]
        if header[-2:] != ["effect", "terminal_id"] or len(body) != self.rows.n:
            out.fail(1, f"predict: {len(body)} rows under header {header}")
            return out
        terminal = np.array([int(r[-1]) for r in body])
        effect = np.array([float(r[-2]) for r in body])
        if not np.array_equal(terminal, self.expected):
            bad = int((terminal != self.expected).sum())
            out.fail(1, f"predict: {bad} terminal ids differ from Tree.route")
        want = np.array([self.tree.node(int(t)).effect.effect for t in self.expected])
        if not np.array_equal(effect, want):
            out.fail(1, "predict: effects differ from the routed terminals' effects")
        err = float(np.mean((effect - self.oracle.true_cate(self.rows)) ** 2))
        out.extras["mse"] = err
        if not err < self.max_mse:
            out.fail(1, f"predict: effect mse {err:.4g} over {self.max_mse}")
        return out


WORKLOADS = {w.name: w for w in (SimTable1, CliContinuousG, CliContinuousPredict, CliMixedDrBoot)}
