"""Run a fixed matrix of efftree commands on generated data and keep every artifact.

Usage:
    python tools/artifacts.py SRC_DIR OUT_DIR

SRC_DIR is the ``src`` directory of an efftree checkout; the commands run
as ``python -m efftree.cli`` (the reload as ``python -c``) with it first on
PYTHONPATH and BLAS pinned to one thread. The inputs are generated here
from a fixed seed, independently of the checkout, so two checkouts see the
same bytes. The matrix:

* ``fit`` for ipw, g and dr under whole and parent scope, on a gaussian and
  a binomial outcome, each with ``--bootstrap 20``;
* ``fit --variance influence`` for ipw and g on both outcomes;
* child scope for ipw, g and dr with ``--max-depth 2`` on a smaller file,
  and on the same file child-scope ipw with ``--variance influence`` and
  child-scope dr, both with ``--bootstrap 20``;
* child-scope ipw and dr with ``--max-depth 2`` on the 1000-row file, where
  the validation fits succeed, so the tree splits and its validation
  statistics are nonzero;
* child-scope g-formula and dr with ``--max-depth 2`` on the binomial
  outcome, so every child refits a logistic outcome model and predicts at
  both arms, and under dr also refits the propensity;
* g-formula on a file whose effect jumps between levels of the ordinal
  ``g``, so an ``ordinal_cut`` rule is written, loaded and routed;
* DR with ``--bootstrap 20`` and a propensity design that is rank-deficient
  on every node (``in(c,B,C,D)`` is the sum of the ``c`` dummies), so each
  propensity fit drops a column;
* ``predict`` with every fitted ``tree.json``;
* every fitted ``tree.json`` loaded with ``tree_from_dict`` and written
  again as ``tree.reloaded.json`` in the form ``efftree fit`` writes, so
  ``cmp tree.json tree.reloaded.json`` checks the reader's round trip;
* ``fit --train-frac 1``, so selection scores the build rows themselves;
* g-formula with ``--max-depth 900 --min-node 2 --min-per-arm 1`` on a
  2000-row chain file (sorted ``x``, alternating arms, an effect of
  ``exp(5x)``), where each node splits one pair of rows off its end, so
  growth, pruning, selection and rendering run on a tree hundreds of
  levels deep;
* ``simulate --threads 1`` on every setting, including a misspecified
  DR model, and a child-scope IPW cell.

Each run keeps its artifacts (``tree.json``, ``tree.txt``,
``selection.json``, ``bootstrap.json``, the predict CSV, the simulate
JSON), its stdout and its exit code. Comparing two outputs with
``diff -r`` checks that a refactor left every artifact byte-identical.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

PROPENSITY = "1 + x1 + x2 + c"
RANK_DEFICIENT_PROPENSITY = PROPENSITY + " + in(c,B,C,D)"
OUTCOME = "1 + A + x1 + x3 + A:x2 + A:in(c,B,D) + g"
CLI = ["-m", "efftree.cli"]
RELOAD = ("import json, sys; from efftree.tree import tree_from_dict; "
          "tree = tree_from_dict(json.loads(open(sys.argv[1], encoding='utf-8').read())); "
          "sys.stdout.write(json.dumps(tree.to_dict(), sort_keys=True, indent=2) + '\\n')")
SIMULATIONS = [("homog", "g"), ("heterog", "ipw"), ("heterog", "g"), ("heterog", "dr"),
               ("heterog", "dr:mis-func,true"), ("binary-mixed-homog", "g"),
               ("binary-mixed", "g")]


def write_inputs(out: Path) -> None:
    """schema.json, gaussian.csv and binomial.csv (1000 rows), small.csv (300 rows),
    ordinal.csv (1000 rows, the effect set by ``g``); chain-schema.json and
    chain.csv (2000 rows)."""
    rng = np.random.default_rng(20201)
    n = 1000
    x1, x2, x3 = rng.standard_normal((3, n))
    c = rng.integers(0, 4, n)
    g = rng.integers(0, 3, n)
    expit = lambda v: 1.0 / (1.0 + np.exp(-v))
    A = (rng.random(n) < expit(0.4 * x1 - 0.3 * x2 + 0.3 * (c == 1))).astype(int)
    y = 1.0 + x1 + 0.5 * x3 + A * (1.0 + 1.5 * (x2 > 0)) + rng.standard_normal(n)
    yb = (rng.random(n) < expit(-0.3 + 0.5 * x1 + A * (0.5 + np.isin(c, (1, 3))))).astype(int)
    yg = 1.0 + x1 + A * (1.0 + 2.0 * (g >= 1)) + np.random.default_rng(20202).standard_normal(n)
    schema = {
        "covariates": [
            {"name": "x1", "kind": "continuous"},
            {"name": "x2", "kind": "continuous"},
            {"name": "x3", "kind": "continuous"},
            {"name": "c", "kind": "categorical", "levels": ["A", "B", "C", "D"]},
            {"name": "g", "kind": "ordinal", "levels": ["lo", "mid", "hi"]},
        ],
        "treatment": "A",
        "outcome": "Y",
    }
    (out / "schema.json").write_text(json.dumps(schema, indent=2) + "\n", encoding="utf-8")
    for name, outcome, rows in (("gaussian", y, n), ("binomial", yb, n), ("small", y, 300),
                                ("ordinal", yg, n)):
        with open(out / f"{name}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2", "x3", "c", "g", "A", "Y"])
            for i in range(rows):
                writer.writerow([repr(float(x1[i])), repr(float(x2[i])), repr(float(x3[i])),
                                 "ABCD"[c[i]], ("lo", "mid", "hi")[g[i]], int(A[i]),
                                 repr(float(outcome[i]))])
    rng = np.random.default_rng(20203)
    n = 2000
    x = np.sort(rng.random(n))
    A = np.arange(n) % 2
    y = A * np.exp(5.0 * x) + 0.001 * rng.standard_normal(n)
    chain_schema = {"covariates": [{"name": "x", "kind": "continuous"}],
                    "treatment": "A", "outcome": "Y"}
    (out / "chain-schema.json").write_text(json.dumps(chain_schema, indent=2) + "\n",
                                           encoding="utf-8")
    with open(out / "chain.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "A", "Y"])
        for i in range(n):
            writer.writerow([repr(float(x[i])), int(A[i]), repr(float(y[i]))])


def fit_runs() -> list[tuple[str, list[str]]]:
    """(run name, fit arguments) for every fit in the matrix."""
    runs = []

    def specs(estimator):
        args = []
        if estimator != "g":
            args += ["--propensity-spec", PROPENSITY]
        if estimator != "ipw":
            args += ["--outcome-spec", OUTCOME]
        return args

    for family in ("gaussian", "binomial"):
        family_args = ["--outcome-family", family] if family == "binomial" else []
        for estimator in ("ipw", "g", "dr"):
            for scope in ("whole", "parent"):
                runs.append((f"fit-{estimator}-{scope}-{family}",
                             ["--data", f"{family}.csv", "--estimator", estimator,
                              "--scope", scope, "--bootstrap", "20"]
                             + specs(estimator) + family_args))
        for estimator in ("ipw", "g"):
            runs.append((f"fit-{estimator}-influence-{family}",
                         ["--data", f"{family}.csv", "--estimator", estimator,
                          "--variance", "influence"] + specs(estimator) + family_args))
    for estimator in ("ipw", "g", "dr"):
        runs.append((f"fit-{estimator}-child-gaussian",
                     ["--data", "small.csv", "--estimator", estimator, "--scope", "child",
                      "--max-depth", "2"] + specs(estimator)))
    runs.append(("fit-g-ordinal", ["--data", "ordinal.csv", "--estimator", "g",
                                   "--outcome-spec", "1 + A + x1 + g + A:g"]))
    runs.append(("fit-dr-rank-deficient-gaussian",
                 ["--data", "gaussian.csv", "--estimator", "dr", "--bootstrap", "20",
                  "--propensity-spec", RANK_DEFICIENT_PROPENSITY, "--outcome-spec", OUTCOME]))
    runs.append(("fit-g-parent-train-all-gaussian",
                 ["--data", "gaussian.csv", "--estimator", "g", "--scope", "parent",
                  "--train-frac", "1", "--outcome-spec", OUTCOME]))
    runs.append(("fit-ipw-child-influence-gaussian",
                 ["--data", "small.csv", "--estimator", "ipw", "--scope", "child",
                  "--variance", "influence", "--max-depth", "2", "--bootstrap", "20"]
                 + specs("ipw")))
    runs.append(("fit-dr-child-boot-gaussian",
                 ["--data", "small.csv", "--estimator", "dr", "--scope", "child",
                  "--max-depth", "2", "--bootstrap", "20"] + specs("dr")))
    for estimator in ("ipw", "dr"):
        runs.append((f"fit-{estimator}-child-growth-gaussian",
                     ["--data", "gaussian.csv", "--estimator", estimator, "--scope", "child",
                      "--max-depth", "2"] + specs(estimator)))
    runs.append(("fit-g-deep-chain",
                 ["--data", "chain.csv", "--schema", "chain-schema.json", "--estimator", "g",
                  "--outcome-spec", "1 + A + x + A:x", "--max-depth", "900", "--min-node", "2",
                  "--min-per-arm", "1"]))
    for estimator in ("g", "dr"):
        runs.append((f"fit-{estimator}-child-growth-binomial",
                     ["--data", "binomial.csv", "--estimator", estimator,
                      "--outcome-family", "binomial", "--scope", "child", "--max-depth", "2"]
                     + specs(estimator)))
    return runs


def simulate_runs() -> list[tuple[str, list[str]]]:
    """(run name, simulate arguments) for every simulation in the matrix."""
    runs = [(f"simulate-{setting}-{algo.replace(':', '-').replace(',', '-')}",
             ["--setting", setting, "--algo", algo, "--reps", "3", "--n", "400"])
            for setting, algo in SIMULATIONS]
    runs.append(("simulate-heterog-ipw-child",
                 ["--setting", "heterog", "--algo", "ipw", "--scope", "child", "--n", "300",
                  "--reps", "2", "--max-depth", "2"]))
    return runs


def run(src: Path, cwd: Path, argv: list[str], stdout_path: Path) -> None:
    """Run ``python ARGV`` in ``cwd``; keep its stdout and exit code."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600)
    stdout_path.write_bytes(proc.stdout)
    (stdout_path.parent / f"{stdout_path.stem}.exit").write_text(f"{proc.returncode}\n")
    if proc.returncode != 0:
        print(f"{stdout_path.relative_to(cwd)} exited {proc.returncode}: "
              f"{proc.stderr.decode(errors='replace').strip()}", file=sys.stderr)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/artifacts.py SRC_DIR OUT_DIR", file=sys.stderr)
        return 2
    src, out = Path(argv[0]), Path(argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    write_inputs(out)
    for name, args in fit_runs():
        run_dir = out / name
        run_dir.mkdir(exist_ok=True)
        print(name, file=sys.stderr)
        schema = [] if "--schema" in args else ["--schema", "schema.json"]
        run(src, out, [*CLI, "fit", *schema, "--out", name, *args], run_dir / "fit.stdout")
        if (run_dir / "tree.json").exists():
            data = args[args.index("--data") + 1]
            run(src, out, [*CLI, "predict", "--tree", f"{name}/tree.json", "--data", data],
                run_dir / "predict.csv")
            run(src, out, ["-c", RELOAD, f"{name}/tree.json"], run_dir / "tree.reloaded.json")
    for name, args in simulate_runs():
        print(name, file=sys.stderr)
        run(src, out, [*CLI, "simulate", *args, "--threads", "1"], out / f"{name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
