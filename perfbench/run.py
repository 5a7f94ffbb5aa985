"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload, each in a fresh interpreter
(worker.py), for about --seconds: a new round starts only if the last
round's wall time says it will end in time, and there are always at least
MIN_ROUNDS.  Every round does the same operations on the same inputs.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: untraced, the medians over
rounds of solve_s, setup_s and peak_rss_mb; traced, the medians of the
per-layer metrics, of the traced solve and of the host's slowdown.

Times are read on each round's HostClock (hostclock.py), which runs at a
fixed reference speed of the CPU: co-tenants of the host slow each virtual
CPU by 1.1-1.8x for stretches of a fraction of a second to many minutes, and
a wall-clock time would measure them as much as the program (README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from tracing import LAYER_METRICS, metric_unit
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, ".out")
MIN_ROUNDS = 3
# a run must end within 180 s; no round starts that could end past this
HARD_LIMIT_S = 170.0


class RoundError(RuntimeError):
    pass


def run_round(workload, seed, trace, index, deadline):
    workdir = os.path.join(OUT, f"{workload}-{seed}-{os.getpid()}-{index}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(trace),
           "--workdir", workdir]
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = time.perf_counter() - t_spawn
    if proc.returncode != 0 or not out.strip():
        raise RoundError(f"round {index} exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    # both wall clocks are the system-wide monotonic clock
    result["setup_s"] = (result.pop("setup_ref") + result.pop("clock_speed0")
                         * (result.pop("clock_started") - t_spawn))
    result["wall"] = wall
    return result


def summarize(rounds, trace):
    def median(key, sub=None):
        return statistics.median(r[sub][key] if sub else r[key] for r in rounds)

    if trace:
        metrics = {name: {"value": median(name, "layers"), "unit": metric_unit(name)}
                   for name in LAYER_METRICS}
        # the same statistic as the untraced solve_s, so their difference is
        # the tracing overhead
        metrics["traced.solve_s"] = {"value": median("solve_s"), "unit": "s"}
        metrics["host.slowdown"] = {"value": median("host_slowdown"),
                                    "unit": "ratio"}
    else:
        metrics = {"solve_s": {"value": median("solve_s"), "unit": "s"},
                   "setup_s": {"value": median("setup_s"), "unit": "s"},
                   "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"}}
    return {"correct": all(r["correct"] for r in rounds),
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kraichnan_lab", "__init__.py")):
        print(f"no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an interrupt, so the running round is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    rounds = []
    try:
        while True:
            r = run_round(args.workload, args.seed, args.trace, len(rounds), deadline)
            rounds.append(r)
            print(f"round {len(rounds)}: solve {r['solve_s']:.3f} s (host "
                  f"slowdown {r['host_slowdown']:.2f}), setup "
                  f"{r['setup_s']:.3f} s, rss {r['peak_rss_mb']:.1f} MB, "
                  f"{r['failed']}/{r['attempted']} failed, correct {r['correct']}")
            end = time.perf_counter() + r["wall"]
            if end > deadline or (len(rounds) >= MIN_ROUNDS
                                  and end - start > args.seconds):
                break
    except (RoundError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(OUT)
        except OSError:  # absent, or another run's rounds are in it
            pass
    print(json.dumps(summarize(rounds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
