"""Command-line front end: fit trees from CSV, predict, run simulations.

Exit codes: 0 success, 1 standard output closed by its reader before every
line was written (``efftree predict ... | head``; no traceback), 2
configuration error (including a ``simulate --n`` whose training rows are
fewer than ``--min-node``), 3 data error (including build rows that hold
one treatment arm only, a categorical column with too many levels to split
on, a model-spec transform that is not finite on some row, such as
``exp(x1)`` overflowing, and a model-spec column too large to square, such
as an ``x1`` of 1e308), 4 fit failure (including a bootstrap that drops
every replicate and a simulation whose every replicate fails).
JSON artifacts go to files or stdout; logs and progress go to stderr, at
the level the environment variable EFFTREE_LOGLEVEL names (default
WARNING; an unknown level is a configuration error).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .data import DataError, csv_blocks, load_csv
from .estimators import EstimatorKind, NuisanceScope, VarianceMethod
from .glm import FitError, check_factor
from .prune import DEFAULT_LAMBDA
from .select import bootstrap_effects, check_lambda, fit_tree
from .simulate import MODEL_VARIANTS, SimSetting, check_sample_size, make_config, run_experiment
from .tree import GrowConfig, schema_from_dict, tree_from_dict

EXIT_CLOSED_STDOUT = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_FIT = 4

logger = logging.getLogger("efftree")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


_SETTING_ALIASES = {
    "homog": "homogeneous",
    "heterog": "heterogeneous",
    "binary-mixed": "binary-mixed-heterogeneous",
    "binary-mixed-homog": "binary-mixed-homogeneous",
}
_ESTIMATORS = [kind.value for kind in EstimatorKind]


def _add_growth_flags(parser: argparse.ArgumentParser) -> None:
    """Flags that fit and simulate share: nuisance scope, node limits,
    propensity truncation and the split penalty."""
    parser.add_argument("--scope", default="parent", choices=[s.value for s in NuisanceScope],
                        help="which rows fit the nuisance models (default parent)")
    parser.add_argument("--min-node", type=int, default=30,
                        help="minimum rows per node (default 30)")
    parser.add_argument("--min-per-arm", type=int, default=10,
                        help="minimum rows per treatment arm per node (default 10)")
    parser.add_argument("--max-depth", type=int, default=10,
                        help="maximum tree depth (default 10)")
    parser.add_argument("--epsilon", type=float, default=0.01,
                        help="propensity truncation bound (default 0.01)")
    parser.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA,
                        help=f"split complexity penalty (default {DEFAULT_LAMBDA})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efftree",
        description="Fit subgroup treatment-effect trees from observational data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a tree from a CSV file")
    fit.add_argument("--data", required=True, help="CSV file with covariates, treatment, outcome")
    fit.add_argument("--schema", required=True, help="JSON schema file describing the columns")
    fit.add_argument("--estimator", required=True, choices=_ESTIMATORS,
                     help="subgroup effect estimator")
    fit.add_argument("--propensity-spec", default=None,
                     help="propensity model formula (required for ipw and dr)")
    fit.add_argument("--outcome-spec", default=None,
                     help="outcome model formula (required for g and dr)")
    fit.add_argument("--outcome-family", default="gaussian", choices=["gaussian", "binomial"],
                     help="outcome model family (default gaussian)")
    fit.add_argument("--variance", default=None,
                     choices=[v.value for v in VarianceMethod],
                     help="split variance method (default depends on the estimator)")
    _add_growth_flags(fit)
    fit.add_argument("--train-frac", type=float, default=0.8,
                     help="fraction of rows used to build the tree; the rest select it (default 0.8)")
    fit.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    fit.add_argument("--bootstrap", type=int, default=0, metavar="B",
                     help="bootstrap replicates for terminal intervals (default 0 = off)")
    fit.add_argument("--level", type=float, default=0.95,
                     help="bootstrap interval level (default 0.95)")
    fit.add_argument("--missing", default="drop_rows", choices=["drop_rows", "reject"],
                     help="missing-cell policy (default drop_rows)")
    fit.add_argument("--out", default=".", help="output directory (default current)")

    predict = sub.add_parser("predict", help="route a CSV through a fitted tree")
    predict.add_argument("--tree", required=True, help="tree.json from a previous fit")
    predict.add_argument("--data", required=True, help="CSV file to score")
    predict.add_argument("--missing", default="drop_rows", choices=["drop_rows", "reject"])

    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    sim.add_argument("--setting", required=True, choices=list(_SETTING_ALIASES),
                     help="simulation design")
    sim.add_argument("--algo", required=True,
                     help="algorithm config: ESTIMATOR[:PROP_VARIANT,OUT_VARIANT] with "
                          f"variants in {{{', '.join(MODEL_VARIANTS)}}}; e.g. dr:mis-func,true")
    sim.add_argument("--reps", type=int, required=True, help="number of replications")
    sim.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    sim.add_argument("--n", type=int, default=1000, help="sample size per replicate (default 1000)")
    _add_growth_flags(sim)
    sim.add_argument("--threads", type=int, default=None,
                     help="worker processes, at most one per replicate (default: available "
                          "cores); results do not depend on it")
    sim.add_argument("--timing", action="store_true",
                     help="include wall-clock timing in the JSON output (off by default "
                          "so identical runs produce identical JSON)")
    return parser


def _unreadable(what: str, path, err: OSError) -> CliError:
    return CliError(f"cannot read {what} file {path}: {err.strerror or err}", EXIT_DATA)


def _load_schema(path: str):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return schema_from_dict(json.load(fh))
    except OSError as err:
        raise _unreadable("schema", path, err)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
        raise CliError(f"bad schema file {path}: {err}", EXIT_CONFIG)


def _check_lambda(lam: float) -> None:
    try:
        check_lambda(lam)
    except ValueError:
        raise CliError("--lambda must be finite and >= 0", EXIT_CONFIG)


def _check_out_dir(path: Path) -> None:
    """CliError unless ``path`` is a directory or can be made one: its
    nearest existing ancestor must be a directory."""
    for existing in (path, *path.parents):
        if existing.exists():
            if not existing.is_dir():
                raise CliError(f"--out {path}: {existing} is not a directory", EXIT_CONFIG)
            return


def _write_json(path: Path, payload) -> None:
    """The one form of every JSON fit artifact: sorted keys, two-space indent."""
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def cmd_fit(args) -> int:
    schema = _load_schema(args.schema)
    if not 0.0 < args.train_frac <= 1.0:
        raise CliError("--train-frac must lie in (0, 1]", EXIT_CONFIG)
    if args.bootstrap < 0:
        raise CliError("--bootstrap must be >= 0", EXIT_CONFIG)
    if not 0.0 < args.level < 1.0:
        raise CliError("--level must lie in (0, 1)", EXIT_CONFIG)
    _check_lambda(args.lam)
    _check_out_dir(Path(args.out))
    try:
        config = GrowConfig.from_strings(
            estimator=args.estimator,
            treatment_name=schema.treatment,
            propensity=args.propensity_spec,
            outcome=args.outcome_spec,
            scope=NuisanceScope(args.scope),
            variance_method=VarianceMethod(args.variance) if args.variance else None,
            min_node=args.min_node,
            min_per_arm=args.min_per_arm,
            max_depth=args.max_depth,
            epsilon=args.epsilon,
            seed=args.seed,
            outcome_family=args.outcome_family,
        )
        for spec in filter(None, (config.propensity_spec, config.outcome_spec)):
            for term in spec.terms:
                if term.factor is not None:
                    check_factor(term.factor, schema)
    except ValueError as err:
        raise CliError(f"bad configuration: {err}", EXIT_CONFIG)

    try:
        data = load_csv(args.data, schema, args.missing)
    except OSError as err:
        raise _unreadable("data", args.data, err)
    except DataError as err:
        raise CliError(f"bad data: {err}", EXIT_DATA)
    if config.outcome_family == "binomial" and not np.isin(data.outcome, (0.0, 1.0)).all():
        raise CliError(f"bad data: outcome column {schema.outcome!r} must hold only 0 and 1 "
                       "with --outcome-family binomial", EXIT_DATA)

    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    perm = rng.permutation(data.n)
    n_build = int(round(args.train_frac * data.n))
    if n_build < config.min_node:
        raise CliError("training split smaller than --min-node", EXIT_DATA)
    build_rows = np.sort(perm[:n_build])
    if int(data.treatment[build_rows].sum()) in (0, n_build):
        raise CliError(f"bad data: treatment column {schema.treatment!r} holds one arm only "
                       f"on the {n_build} build rows", EXIT_DATA)
    validation_rows = np.sort(perm[n_build:])
    if n_build == data.n:
        validation_rows = build_rows
        logger.warning("no held-out rows; selection reused the training rows")

    try:
        _, final, trace = fit_tree(data, build_rows, validation_rows, config, args.lam)
    except DataError as err:
        raise CliError(f"bad data: {err}", EXIT_DATA)
    except FitError as err:
        raise CliError(f"fit failed: {err}", EXIT_FIT)

    intervals = None
    if args.bootstrap > 0:
        try:
            intervals = bootstrap_effects(final, data, B=args.bootstrap, level=args.level,
                                          seed=args.seed)
        except DataError as err:
            raise CliError(f"bad data: {err}", EXIT_DATA)
        except FitError as err:
            raise CliError(f"bootstrap failed: {err}", EXIT_FIT)

    # Written only once every step has succeeded, so a failed fit leaves no
    # complete-looking output behind.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "tree.json", final.to_dict())
    (out_dir / "tree.txt").write_text(final.render_text(), encoding="utf-8")
    _write_json(out_dir / "selection.json", trace.to_dict())
    if intervals is not None:
        _write_json(out_dir / "bootstrap.json", [iv.to_dict() for iv in intervals])

    print(f"{'terminal':>8} {'n':>6} {'effect':>10} {'mu1':>10} {'mu0':>10}")
    for t in final.terminal_ids():
        nd = final.node(t)
        print(f"{t:>8} {nd.n:>6} {nd.effect.effect:>10.4f} {nd.effect.mu1:>10.4f} {nd.effect.mu0:>10.4f}")
    return 0


def cmd_predict(args) -> int:
    try:
        payload = json.loads(Path(args.tree).read_text(encoding="utf-8"))
        tree = tree_from_dict(payload)
    except OSError as err:
        raise _unreadable("tree", args.tree, err)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
        raise CliError(f"bad tree file: {err}", EXIT_CONFIG)
    try:
        data = load_csv(args.data, tree.schema, args.missing)
    except OSError as err:
        raise _unreadable("data", args.data, err)
    except DataError as err:
        raise CliError(f"schema mismatch or bad data: {err}", EXIT_DATA)

    terminal = tree.route(data)
    effect_text = {t: repr(float(tree.node(t).effect.effect)) for t in tree.terminal_ids()}
    names = list(tree.schema.covariate_names)
    csv.writer(sys.stdout).writerow(
        names + [tree.schema.treatment, tree.schema.outcome, "effect", "terminal_id"])
    sys.stdout.writelines(csv_blocks(data, [(terminal, effect_text.__getitem__), (terminal, str)]))
    return 0


def _parse_algo(text: str) -> tuple[str, str, str]:
    head, _, tail = text.partition(":")
    if head not in _ESTIMATORS:
        raise CliError(f"unknown estimator {head!r} in --algo", EXIT_CONFIG)
    if not tail:
        return head, "true", "true"
    parts = [p.strip() for p in tail.split(",")]
    if len(parts) == 1:
        parts = parts * 2
    if len(parts) != 2:
        raise CliError(f"--algo variants must be PROP,OUT: {text!r}", EXIT_CONFIG)
    for p in parts:
        if p not in MODEL_VARIANTS:
            raise CliError(f"unknown model variant {p!r} in --algo", EXIT_CONFIG)
    return head, parts[0], parts[1]


def cmd_simulate(args) -> int:
    design = _SETTING_ALIASES[args.setting]
    estimator, prop_variant, out_variant = _parse_algo(args.algo)
    try:
        setting = SimSetting(design, n=args.n, seed=args.seed)
        config = make_config(
            setting, estimator, prop_variant, out_variant,
            scope=NuisanceScope(args.scope),
            min_node=args.min_node, min_per_arm=args.min_per_arm,
            max_depth=args.max_depth, epsilon=args.epsilon, seed=args.seed,
        )
        check_sample_size(setting, config)
    except ValueError as err:
        raise CliError(f"bad configuration: {err}", EXIT_CONFIG)
    if args.reps < 1:
        raise CliError("--reps must be >= 1", EXIT_CONFIG)
    if args.threads is not None and args.threads < 1:
        raise CliError("--threads must be >= 1", EXIT_CONFIG)
    _check_lambda(args.lam)

    try:
        summary = run_experiment(setting, config, args.reps, args.seed,
                                 lam=args.lam, threads=args.threads)
    except FitError as err:
        raise CliError(f"simulation failed: {err}", EXIT_FIT)

    header = (
        f"{'setting':>12} {'algo':>22} {'MSE':>8} {'Correct':>8} {'Noise':>6} "
        f"{'PPS':>6} {'CFS':>6} {'Time(s)':>8}"
    )
    line = (
        f"{args.setting:>12} {args.algo:>22} {summary.mse:>8.3f} "
        f"{summary.correct_tree_prop:>8.2f} {summary.mean_noise_splits:>6.2f} "
        f"{summary.pps:>6.2f} {summary.correct_first_split_prop:>6.2f} "
        f"{summary.mean_fit_seconds:>8.3f}"
    )
    print(header, file=sys.stderr)
    print(line, file=sys.stderr)

    payload = {
        "setting": design,
        "n": args.n,
        "algo": args.algo,
        "replications_requested": args.reps,
        "seed": args.seed,
        "results": summary.to_dict(include_timing=args.timing),
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def main(argv=None) -> int:
    level = os.environ.get("EFFTREE_LOGLEVEL", "WARNING")
    if not isinstance(logging.getLevelName(level), int):
        print(f"error: EFFTREE_LOGLEVEL={level!r} is not a logging level "
              "(DEBUG, INFO, WARNING, ERROR or CRITICAL)", file=sys.stderr)
        return EXIT_CONFIG
    logging.basicConfig(stream=sys.stderr, level=level)
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"fit": cmd_fit, "predict": cmd_predict, "simulate": cmd_simulate}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()
        return code
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except BrokenPipeError:
        # The reader closed stdout early. Point stdout at devnull, as the
        # Python docs advise, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT


if __name__ == "__main__":
    sys.exit(main())
