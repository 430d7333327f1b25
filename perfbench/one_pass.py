"""Run one pass of a workload in a fresh process and report its peak memory.

Usage: python3 perfbench/one_pass.py --workload NAME --seed N

Prints one JSON line: {"maxrss_kib": ..., "outputs": [...]}, the outputs
in problem order so that the caller can check them.
"""

from __future__ import annotations

import argparse
import json
import resource

import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    eq = workloads.load_engine()
    outputs = [workloads.solve(eq, p) for p in workloads.build(args.workload, args.seed)]
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({"maxrss_kib": maxrss, "outputs": outputs}))


if __name__ == "__main__":
    main()
