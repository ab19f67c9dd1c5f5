"""Self-test: a corrupted output must count as a failed operation.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py [WORKLOAD ...]

Runs ``run.py --perturb`` for one short pass of each workload (all four by
default).  ``--perturb`` nudges a number, swaps a verdict or reorders a
chain in every output before the oracles judge it, so every execution must
fail: the test passes only when ``failed == attempted`` and ``correct`` is
false for every workload.  Exits 0 on success, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    ok = True
    for name in names:
        out = os.path.join(".perfbench", "selftest", f"{name}.json")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", "1", "--seconds", "1", "--trace", "0", "--perturb",
             "--out", out],
            capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"{name}: run.py exited {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        caught = result["failed"] == result["attempted"] and not result["correct"]
        ok &= caught
        print(f"{name}: {result['failed']} of {result['attempted']} perturbed "
              f"executions failed -> {'ok' if caught else 'ORACLE MISSED A PERTURBATION'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
