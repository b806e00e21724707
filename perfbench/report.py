"""Print every benchmark metric by name and unit, for every workload.

Usage, from the root of a checkout:

    python3 perfbench/report.py [--seed N] [--seconds S] [--scale full|tiny]

Runs perfbench/run.py on each workload once untraced (end-to-end metrics)
and once traced (per-layer metrics), and prints one line per metric:
workload, metric, value and unit. Exits 1 if any run's outputs failed
their checks.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    args = parser.parse_args(argv)

    ok = True
    print(f"{'workload':<24} {'metric':<40} {'value':>14} unit")
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--scale", args.scale],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            if proc.returncode != 0:
                print(f"{name}: run.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            print(f"{name:<24} {'attempted/failed':<40} {result['attempted']:>10}/{result['failed']:<3} ops")
            for metric, m in result["metrics"].items():
                print(f"{name:<24} {metric:<40} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
