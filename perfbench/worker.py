"""One round of one workload, in a fresh process.

run.py starts this as ``worker.py WORKLOAD SEED SPAWNED MODE``, where
SPAWNED is run.py's ``time.monotonic()`` just before the start and MODE
is ``setup`` (build the inputs and stop), ``round`` (call every
operation once, untraced) or ``traced`` (the same with the tracer
installed).  It prints one JSON object on standard output.

A round calls each operation once, so no state the program keeps in
its process, on a lattice object or keyed by its value, survives from
one timed call of an input to the next.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

FLAGS = {"qb": "certified", "sweep": "certified", "index": "exhaustive"}


def _call(op) -> tuple[float, str | None, object]:
    """One timed call: (seconds, failure reason or None, value)."""
    t0 = time.perf_counter()
    try:
        value = op.call()
    except Exception as exc:  # a raising operation is counted as failed; the round goes on
        return time.perf_counter() - t0, f"raised {exc!r}", None
    return time.perf_counter() - t0, None, value


def _verdict(op, error, value) -> str | None:
    if error is not None:
        return error
    try:
        return op.check(value)
    except Exception as exc:  # malformed output: report it, keep checking the rest
        return f"check raised {exc!r}"


def run_round(ops, tracer) -> dict:
    """Call every operation once, then check the outputs outside the timing.

    ``wall_s`` is the wall time from the first call to the return of the
    last one.
    """
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    done = [_call(op) for op in ops]
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    failures = []
    flags = {"certified": [0, 0], "exhaustive": [0, 0]}  # [true, seen]
    for op, (_, error, value) in zip(ops, done):
        reason = _verdict(op, error, value)
        if reason is not None:
            failures.append([op.label, reason])
        flag = FLAGS.get(op.kind)
        if flag is not None:
            report = value[0] if op.kind == "sweep" and value is not None else value
            flags[flag][0] += getattr(report, flag, False) is True
            flags[flag][1] += 1
    out = {
        "wall_s": wall_s,
        "labels": [op.label for op in ops],
        "op_s": [dt for dt, _, _ in done],
        "calls": len(ops),
        "failures": failures,
        "flags": flags,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["trace"] = tracer.summary(wall_s)
    return out


def main(argv: list[str]) -> int:
    workload, seed, spawned, mode = argv[1], int(argv[2]), float(argv[3]), argv[4]
    sys.path.insert(0, str(SRC))
    import latquot

    if Path(latquot.__file__).resolve().parent != SRC / "latquot":
        print(f"imported latquot from {latquot.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    t0 = time.perf_counter()
    ops = workloads.build(workload, seed)
    build_s = time.perf_counter() - t0
    out = {"setup_s": time.monotonic() - spawned, "build_s": build_s}
    if mode != "setup":
        tracer = Tracer() if mode == "traced" else None
        out.update(run_round(ops, tracer))
        if tracer is not None:
            trace_dir = HERE / "out"
            trace_dir.mkdir(exist_ok=True)
            tracer.dump(trace_dir / f"trace-{workload}-seed{seed}.json")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
