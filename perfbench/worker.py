"""One round of one workload in a fresh interpreter.

The program keeps lru caches and a module-level flux table for the life of
a process, and a CLI user fills them on every run; so every round is a new
process, started by run.py.  The round imports the package from the
checkout's ``src``, makes its inputs, solves (timed, optionally traced),
reads its peak resident set size, checks the results and prints one JSON
object on its last line of standard output.  Set-up and solve are timed on
a ``HostClock`` (hostclock.py), started first thing in ``main``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

from hostclock import HostClock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    clock = HostClock()
    clock.start()
    try:
        return _round(clock, argv)
    finally:
        clock.stop()


def _round(clock, argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    # the checkout's sources, never an installed copy
    sys.path.insert(0, SRC)
    import kraichnan_lab
    if not os.path.abspath(kraichnan_lab.__file__).startswith(SRC + os.sep):
        print(f"imported {kraichnan_lab.__file__}, not the checkout's src",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]

    os.makedirs(args.workdir, exist_ok=True)
    try:
        inputs = workload.make_inputs(args.seed, args.workdir)
        setup_ref = clock.now()

        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer(clock=clock.now)
            tracer.install()
        wall0, probe0, t0 = time.perf_counter(), clock.probe_s, clock.now()
        try:
            ops = workload.solve(inputs)
        finally:
            solve_s = clock.now() - t0
            solve_wall_s = time.perf_counter() - wall0 - (clock.probe_s - probe0)
            if tracer is not None:
                tracer.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checks = workload.check(inputs, ops)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    for op in ops:
        if op["failed"]:
            print(f"operation {op['name']} failed:\n{op['error']}", file=sys.stderr)
    for c in checks:
        if not c["passed"]:
            print(f"check {c['id']} FAILED: value={c['value']!r} target={c['target']}",
                  file=sys.stderr)
    result = {
        # set-up before the clock started is read by the parent at the
        # clock's first speed
        "clock_started": clock.started_wall,
        "clock_speed0": clock.initial_speed,
        "setup_ref": setup_ref,
        "solve_s": solve_s,
        "host_slowdown": solve_wall_s / solve_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": sum(op["failed"] for op in ops),
        "correct": all(c["passed"] for c in checks),
        "checks": checks,
        "layers": tracer.metrics() if tracer is not None else None,
    }
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
