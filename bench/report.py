"""Print every metric of every workload by name, with its unit.

    python3 bench/report.py [--seed N] [--seconds S]

Runs bench/run.py once untraced and once traced per workload, prints one
``workload metric value unit`` line per metric and the run's detail record
(tail percentile and op count, fail rate, output-quality figures, machine
fingerprint), and exits 1 if any run reported a failed op or an incorrect
result.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)
    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            ok &= result["correct"] and result["failed"] == 0
            print(f"{workload} trace={trace}: {result['attempted']} ops, "
                  f"{result['failed']} failed, correct={result['correct']}")
            for name, m in result["metrics"].items():
                print(f"  {workload:8s} {name:36s} {m['value']:<14.6g} {m['unit']}")
            print(f"  {workload:8s} {lines[-2]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
