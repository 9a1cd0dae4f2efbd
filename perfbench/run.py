"""latquot benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it imports latquot from ``src``.
A single caller issues each operation only after the previous one
returns.  Each round of the workload runs in a fresh worker process and
calls every operation once.  A run makes round(S / ROUND_S) rounds, a
number that S alone fixes.  See README.md for the metrics and workloads.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs one
untraced and one traced round and prints the per-layer metrics.  Lines
for a reader come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2 when
the checkout holds no latquot sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import DERIVED_METRICS, LAYERS, SPAN_METRICS  # noqa: E402

WORKLOADS = ("searches", "shells")
# Nominal seconds of one round, set-up included, at the commit that
# defined the benchmark.  They only turn --seconds into a round count.
ROUND_S = {"searches": 5.0, "shells": 8.0}
# set-up time is the fastest of SETUPS fresh processes: the rounds' own
# and, if there are fewer rounds, workers that only set up
SETUPS = 12
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {metric: unit for metric, (*_, unit) in SPAN_METRICS.items()}
PER_LAYER_UNITS.update({metric: unit for metric, (_, unit) in DERIVED_METRICS.items()})
PER_LAYER_UNITS.update({f"{layer}.share": "ratio" for layer in LAYERS})
PER_LAYER_UNITS.update({
    "construct.build_s": "s",
    "quality.certified_ratio": "ratio",
    "watson.exhaustive_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
})


def spawn(workload: str, seed: int, mode: str, cpu: int | None = None) -> dict:
    """Run one worker; ``cpu`` pins it, from its start, to that processor."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           repr(time.monotonic()), mode]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S, check=True, preexec_fn=pin)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _cpus() -> list:
    """The processors to take turns on; [None] where affinity is not settable."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None]


def tail(n: int) -> tuple[int, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (index into the n sorted samples, percentile).  With twenty
    samples or fewer that percentile is the median or below it, so the
    maximum (p100) stands in.
    """
    if n <= 20:
        return n - 1, 100.0
    return n - 11, 100.0 * (n - 10) / n


def _outcome(results: list[dict]) -> tuple[int, int, list]:
    failures = [f for p in results for f in p["failures"]]
    return sum(p["calls"] for p in results), len(failures), failures


def timed_run(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict], list[str]]:
    """Rounds in fresh processes, taking turns on the processors.

    On a shared host one virtual processor can run slow for tens of
    seconds while another does not, and other tenants only ever slow a
    call down; so each figure is the fastest the run saw.
    """
    cpus = _cpus()
    rounds = max(1, round(seconds / ROUND_S[workload]))
    results = [spawn(workload, seed, "round", cpus[i % len(cpus)]) for i in range(rounds)]
    setups = [p["setup_s"] for p in results]
    while len(setups) < SETUPS:
        setups.append(spawn(workload, seed, "setup", cpus[len(setups) % len(cpus)])["setup_s"])

    labels = results[0]["labels"]
    best = [min(calls) for calls in zip(*(p["op_s"] for p in results))]
    n = len(best)
    order = sorted(range(n), key=best.__getitem__)
    k, pct = tail(n)
    metrics = {
        "wall_s": min(p["wall_s"] for p in results),
        "op_p50_s": statistics.median(best),
        "op_tail_s": best[order[k]],
        "setup_s": min(setups),
        "peak_rss_mb": max(p["rss_mb"] for p in results),
    }
    mid = [labels[i] for i in order[(n - 1) // 2:n // 2 + 1]]
    notes = [
        f"rounds {rounds}, calls {sum(p['calls'] for p in results)}, set-ups timed {len(setups)}",
        f"wall_s is the fastest of {rounds} rounds: "
        + ", ".join(f"{p['wall_s']:.3f}" for p in results),
        f"op_p50_s and op_tail_s (p{pct:.1f}) are taken over the {n} operations "
        f"of a round, each at its fastest call; the median falls on {' and '.join(mid)}, "
        f"the tail on {labels[order[k]]}",
    ]
    notes += [f"  {label:12s} {dt:.4f} s" for label, dt in zip(labels, best)
              if not label.startswith("trial")]
    return metrics, results, notes


def traced_run(workload: str, seed: int) -> tuple[dict, list[dict], list[str]]:
    cpu = _cpus()[0]  # both rounds on one processor, for a fairer overhead ratio
    plain = spawn(workload, seed, "round", cpu)
    traced = spawn(workload, seed, "traced", cpu)
    metrics = dict(traced["trace"])
    metrics["construct.build_s"] = statistics.median([plain["build_s"], traced["build_s"]])
    for name, flag in (("quality.certified_ratio", "certified"),
                       ("watson.exhaustive_ratio", "exhaustive")):
        true, seen = traced["flags"][flag]
        metrics[name] = true / seen if seen else 0.0
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    notes = [f"untraced round {plain['wall_s']:.3f} s, traced round {traced['wall_s']:.3f} s"]
    return metrics, [plain, traced], notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "latquot" / "__init__.py").is_file():
        print(f"no latquot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        values, results, notes = traced_run(args.workload, args.seed)
        units = PER_LAYER_UNITS
    else:
        values, results, notes = timed_run(args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    attempted, failed, failures = _outcome(results)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    for name, unit in units.items():
        value = values[name]
        print(f"  {name:40s} {'absent' if value is None else f'{value:.6g}'} {unit}")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    for label, reason in failures:
        print(f"FAILED {label}: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
