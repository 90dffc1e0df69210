"""Every metric of every workload, untraced and traced, in one table.

Run from the root of a source checkout:

    python3 perfbench/report.py --seed 1 --seconds 30

It runs ``perfbench/run.py`` once per workload with ``--trace 0`` and once
with ``--trace 1``, each in its own process, and prints the machine, the
seed and each metric with its unit per workload.  It exits with 1 when a
run fails or reports a failed request.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("certify", "frames", "general")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()

    results: dict[str, dict] = {}
    units: dict[str, str] = {}
    header = ""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace {trace}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            header = header or lines[0]
            result = json.loads(lines[-1])
            ok &= result["correct"] and not result["failed"]
            row = results.setdefault(workload, {})
            row[f"failed/attempted (trace {trace})"] = (
                f"{result['failed']}/{result['attempted']}")
            for name, metric in result["metrics"].items():
                row[name] = f"{metric['value']:.6g}"
                units[name] = metric["unit"]

    print(header)
    print(f"seed {args.seed}, seconds {args.seconds}")
    names = list(dict.fromkeys(n for row in results.values() for n in row))
    print(f"{'metric':44s} {'unit':6s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for name in names:
        cells = "".join(f"{results[w].get(name, '-'):>14s}" for w in WORKLOADS)
        print(f"{name:44s} {units.get(name, ''):6s}{cells}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
