"""One repetition of a benchmark workload, in a fresh process.

Usage: worker.py LAUNCHED PLAN RESULT

LAUNCHED is the CLOCK_MONOTONIC time at which the parent started this
process. PLAN is a JSON file naming the efftree source directory, whether
to trace, and the `efftree` commands to run in order, each with the file
that receives its standard output. The worker writes RESULT as JSON: its
set-up time (process start to the first timed call), each command's wall
time and exit code, its peak resident memory and, when tracing, the
per-layer metrics.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_mb() -> float:
    """Peak resident memory of this process image. VmHWM starts afresh at
    exec; ru_maxrss can carry over the parent's peak."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(launched: float, plan: dict) -> dict:
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    from efftree import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"efftree imported from {cli.__file__}, not from {src}")
    patches = tracer = None
    if plan["trace"]:
        from tracer import Tracer, install_efftree

        tracer = Tracer()
        patches = install_efftree(tracer)
    setup_s = _now() - launched

    ops = []
    for op in plan["ops"]:
        error = None
        with open(op["stdout"], "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            t0 = time.perf_counter()
            try:
                code = cli.main(op["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # noqa: BLE001 - a raised error is a failed operation
                code = None
                error = traceback.format_exc()
            seconds = time.perf_counter() - t0
        if error is not None:
            print(error, file=sys.stderr)
        ops.append({"seconds": seconds, "exit_code": code, "error": error})
    if patches is not None:
        patches.restore()
    return {
        "setup_s": setup_s,
        "ops": ops,
        "peak_rss_mb": _peak_rss_mb(),
        "layers": tracer.metrics() if tracer is not None else None,
    }


def main(argv: list[str]) -> int:
    launched = float(argv[1])
    plan = json.loads(Path(argv[2]).read_text(encoding="utf-8"))
    result = run(launched, plan)
    Path(argv[3]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
