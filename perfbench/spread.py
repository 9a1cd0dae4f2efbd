"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10]

Runs run.py once per seed 1, 2, ... for every workload in
BENCHMARK.json, interleaving the workloads round robin so that a slow
phase of the machine spreads over all of them, and prints for each metric the median and the distance between
the first and third quartile of the runs as a share of the median.  It
reads the run length and the bounds from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    values: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    for seed in range(1, args.runs + 1):
        for w in names:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: {result['failed']} failed", file=sys.stderr)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in names:
        for name, xs in values[w].items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            print(f"{w:14s} {name:12s} median {med:10.4g}  spread {(q3 - q1) / med:6.3f}"
                  f"  bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
