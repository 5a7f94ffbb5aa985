#!/usr/bin/env python3
"""Drive every experiment config under scripts/configs/: each run prints
its checks, then one status line per config."""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from kraichnan_lab import cli  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-root", default="experiment_output")
    parser.add_argument("--only", default=None,
                        help="substring filter on config file names")
    args = parser.parse_args()

    cfg_dir = os.path.join(os.path.dirname(__file__), "configs")
    configs = sorted(f for f in os.listdir(cfg_dir) if f.endswith(".json"))
    if args.only:
        configs = [f for f in configs if args.only in f]

    failures = 0
    for name in configs:
        stem = name[:-len(".json")]
        out_dir = os.path.join(args.output_root, stem)
        t0 = time.monotonic()
        code = cli.run(os.path.join(cfg_dir, name), out_dir)
        elapsed = time.monotonic() - t0
        status = {0: "ok", 1: "CHECK FAILED", 2: "CONFIG ERROR",
                  3: "COMPUTE ERROR"}.get(code, f"exit {code}")
        print(f"{stem:28s} {status:14s} {elapsed:8.1f}s -> {out_dir}")
        failures += code != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
