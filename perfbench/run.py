"""efftree benchmark driver.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then runs repetitions of
the workload's `efftree` commands, each repetition in a fresh worker
process with one BLAS thread, until S seconds have passed (at least three
repetitions, four when tracing). Every command's output is checked. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The line before it
records the machine, library versions and every sample.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0  # a run ends within 180 s

END_TO_END = [
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("op_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

_SPANS = [
    "data.load_csv", "data.from_indices", "data.take",
    "glm.build_design", "glm.build_design_difference", "glm.fit_ols", "glm.fit_logistic",
    "glm.predict_mean",
    "estimators.fit_nuisance", "estimators.estimate", "estimators.split_contrast",
    "search.find_best_split", "search.node_tables", "search.candidate_statistics",
    "search.aggregate",
    "tree.grow_max_tree", "tree.route",
    "prune.weakest_link_sequence", "prune.prune_at",
    "select.select_final", "select.validation_statistics", "select.bootstrap_effects",
    "simulate.generate", "simulate.run_replicate",
    "cli.fit", "cli.predict", "cli.simulate",
]
_COUNTERS = [
    "data.load_csv.rows", "glm.fit_logistic.irls_iters", "glm.fit.failed",
    "estimators.fit_nuisance.failed", "estimators.split_contrast.inadmissible",
    "search.candidates", "tree.max_nodes", "select.zeroed", "select.bootstrap.dropped",
]
_SIM_CELLS = ["homog-g", "heterog-g", "heterog-dr", "heterog-ipw"]

PER_LAYER = (
    [(f"{s}.calls", "count", "lower") for s in _SPANS]
    + [(f"{s}.s", "s", "lower") for s in _SPANS]
    + [(c, "count", "lower") for c in _COUNTERS]
    + [("search.admissible_ratio", "ratio", "higher")]
    + [(f"simulate.fit_s.{c}", "s", "lower") for c in _SIM_CELLS]
    + [("simulate.fit_ratio.ipw-dr", "ratio", "higher"),
       ("simulate.fit_ratio.g-dr", "ratio", "higher"),
       ("trace.overhead_pct", "%", "lower")]
)
# Per-layer values that must repeat exactly in every traced repetition.
DETERMINISTIC = {name for name, unit, _ in PER_LAYER if unit == "count"} | {
    "search.scanned", "search.admissible"}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def run_repetition(workload, workdir: Path, number: int, index: int, traced: bool,
                   timeout: float) -> dict:
    """One worker process: run and check the workload's commands on input `index`."""
    rep_dir = workdir / f"rep{number}"
    rep_dir.mkdir()
    ops = workload.ops(rep_dir, index)
    plan = {
        "src": str(SRC),
        "trace": traced,
        "ops": [{"argv": op.argv, "stdout": str(rep_dir / f"op{i}.out")} for i, op in enumerate(ops)],
    }
    (rep_dir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    result_path = rep_dir / "result.json"
    with open(rep_dir / "worker.log", "w", encoding="utf-8") as log:
        launched = _now()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), repr(launched),
             str(rep_dir / "plan.json"), str(result_path)],
            stdin=subprocess.DEVNULL, stdout=log, stderr=log, cwd=ROOT,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
    rep = {"traced": traced, "ops": ops, "outcomes": [], "lost": 0, "problems": []}
    if code != 0 or not result_path.exists():
        tail = (rep_dir / "worker.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        rep["problems"].append(f"worker exit {code}: {tail}")
        rep["lost"] = sum(op.units for op in ops)
        return rep
    result = json.loads(result_path.read_text(encoding="utf-8"))
    rep.update(setup_s=result["setup_s"], peak_rss_mb=result["peak_rss_mb"],
               layers=result["layers"])
    rep["op_s"] = sum(r["seconds"] for r in result["ops"]) / sum(op.units for op in ops)
    for i, (op, r) in enumerate(zip(ops, result["ops"])):
        outcome = workload.check(op, rep_dir / f"op{i}.out", r["exit_code"])
        if r["error"]:
            outcome.fail(op.units, f"{op.label}: raised {r['error'].strip().splitlines()[-1]}")
        rep["outcomes"].append(outcome)
    if not any(o.problems for o in rep["outcomes"]):
        shutil.rmtree(rep_dir)
    return rep


def per_layer(reps: list[dict], problems: list[str]) -> dict[str, float]:
    traced = [r for r in reps if r["traced"] and r.get("layers") is not None]
    plain = [r for r in reps if not r["traced"] and "op_s" in r]
    if not traced or not plain:
        return {}
    first = traced[0]["layers"]
    for rep in traced[1:]:
        for name in DETERMINISTIC:
            if rep["layers"].get(name, 0) != first.get(name, 0):
                problems.append(f"count {name} differs between traced repetitions")
    values: dict[str, float] = {}
    for name, unit, _ in PER_LAYER:
        if unit == "s" and not name.startswith("simulate.fit_s."):
            values[name] = statistics.median(r["layers"].get(name, 0.0) for r in traced)
        elif name in DETERMINISTIC:
            values[name] = first.get(name, 0)
    scanned = first.get("search.scanned", 0)
    values["search.admissible_ratio"] = first.get("search.admissible", 0) / scanned if scanned else 0.0

    fit_s = {}
    for cell in _SIM_CELLS:
        samples = [o.extras["fit_s"] for r in plain
                   for op, o in zip(r["ops"], r["outcomes"]) if op.label == cell]
        fit_s[cell] = statistics.median(samples) if samples else 0.0
        values[f"simulate.fit_s.{cell}"] = fit_s[cell]
    dr = fit_s["heterog-dr"]
    values["simulate.fit_ratio.ipw-dr"] = fit_s["heterog-ipw"] / dr if dr else 0.0
    values["simulate.fit_ratio.g-dr"] = fit_s["heterog-g"] / dr if dr else 0.0
    traced_op = statistics.median(r["op_s"] for r in traced)
    plain_op = statistics.median(r["op_s"] for r in plain)
    values["trace.overhead_pct"] = 100.0 * (traced_op / plain_op - 1.0)
    return values


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="input sizes; tiny is for smoke tests")
    args = parser.parse_args(argv)

    started = _now()
    workload = WORKLOADS[args.workload](args.scale)
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{args.scale}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload.prepare(args.seed, workdir)

    min_reps = 4 if args.trace else 3
    reps: list[dict] = []
    t0 = _now()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        index = 0 if args.trace else len(reps)
        rep_start = _now()
        reps.append(run_repetition(workload, workdir, len(reps), index, traced,
                                   timeout=RUN_LIMIT_S - (rep_start - started)))
        rep_wall = _now() - rep_start
        elapsed = _now() - t0
        if "op_s" not in reps[-1] or _now() - started + rep_wall > RUN_LIMIT_S:
            break
        if len(reps) >= min_reps and elapsed + rep_wall > args.seconds:
            break

    first_digest: dict[str, str] = {}
    for i, rep in enumerate(reps):
        for op, outcome in zip(rep["ops"], rep["outcomes"]):
            if outcome.digest and first_digest.setdefault(op.key, outcome.digest) != outcome.digest:
                outcome.fail(op.units, f"{op.label}: repetition {i} output differs on the same input")
    outcomes = [o for r in reps for o in r["outcomes"]]
    problems = [p for r in reps for p in r["problems"]]
    problems += [p for o in outcomes for p in o.problems]
    attempted = sum(op.units for r in reps for op in r["ops"])
    failed = sum(r["lost"] for r in reps) + sum(o.failed_units for o in outcomes)

    timed = [r for r in reps if "op_s" in r]
    plain = [r for r in timed if not r["traced"]]
    samples = {name: [r[name] for r in plain] for name, _, _ in END_TO_END}
    if args.trace:
        values = per_layer(timed, problems)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = {name: statistics.median(v) for name, v in samples.items() if v}
        units = {name: unit for name, unit, _ in END_TO_END}
    if len(values) != len(units):
        for p in problems:
            print(p, file=sys.stderr)
        print("error: no repetition produced timings", file=sys.stderr)
        return 1
    if problems and failed == 0:
        failed = 1  # a problem outside any one command, such as counts that differ
    failed = min(failed, attempted)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "environment": environment(), "repetitions": len(reps),
        "traced_repetitions": sum(r["traced"] for r in reps),
        "samples": samples, "problems": problems,
        "checked": [[[op.label, o.extras] for op, o in zip(r["ops"], r["outcomes"])] for r in reps],
    }))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    if not problems:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    if not (SRC / "efftree" / "__init__.py").is_file():
        print(f"error: efftree sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
