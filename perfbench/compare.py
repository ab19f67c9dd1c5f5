"""Print the differences between two sets of benchmark results.

Usage:

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files written by ``run.py`` or directories of them
(such as ``.perfbench/results`` copied aside between two commits).  Results
are paired by workload, seed and trace flag.  For each pair the printout
gives the environment fields that differ, every metric with its delta and
its ratio to the base, for traced results the self time and call count of
every span name, and every operation whose stdout digest changed.  When a
workload has several seeds on both sides, a summary row per metric gives
the medians over seeds.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ENV_KEYS = ("python", "numpy", "blas", "nproc", "thread_env", "git_commit",
            "src_sha256")


def load(path: str) -> dict[tuple, dict]:
    files = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    out = {}
    for name in files:
        with open(name, encoding="utf-8") as fh:
            r = json.load(fh)
        if "workload" in r and "metrics" in r:
            out[(r["workload"], r["seed"], r["trace"])] = r
    return out


def ratio(base: float, new: float, unit: str = "") -> str:
    if base == 0:
        return "base 0" if new == 0 else f"base 0 -> {new:.6g}"
    return f"x{new / base:.3f} of base {base:.6g}{(' ' + unit) if unit else ''}"


def row(name: str, base: float, new: float, unit: str) -> str:
    return (f"  {name:<34}{base:>14.6g}{new:>14.6g}{new - base:>+14.4g}  "
            f"{ratio(base, new, unit)}")


def compare_pair(base: dict, new: dict) -> None:
    print(f"== {base['workload']} seed={base['seed']} trace={base['trace']}")
    for key in ENV_KEYS:
        if base["env"].get(key) != new["env"].get(key):
            print(f"  env {key}: {base['env'].get(key)} -> {new['env'].get(key)}")
    for label, r in (("base", base), ("new", new)):
        if not r["correct"]:
            print(f"  {label}: {r['failed']} of {r['attempted']} executions FAILED")
    print(f"  {'metric':<34}{'base':>14}{'new':>14}{'delta':>14}")
    for name, m in base["metrics"].items():
        if name in new["metrics"]:
            print(row(name, m["value"], new["metrics"][name]["value"], m["unit"]))
    spans_b, spans_n = base.get("layers_by_span", {}), new.get("layers_by_span", {})
    if spans_b or spans_n:
        print(f"  {'span (per pass)':<34}{'self_s base':>14}{'self_s new':>14}"
              f"{'delta':>14}  calls base -> new")
        for key in sorted(set(spans_b) | set(spans_n)):
            b = spans_b.get(key, {"count": 0, "self_s": 0.0})
            n = spans_n.get(key, {"count": 0, "self_s": 0.0})
            calls = f"{b['count']:g} -> {n['count']:g}"
            if b["count"] != n["count"]:
                calls += f" ({ratio(b['count'], n['count'])})"
            print(f"{row(key, b['self_s'], n['self_s'], 's')}  calls {calls}")
    changed = []
    for op_id in sorted(set(base["ops"]) | set(new["ops"])):
        b, n = base["ops"].get(op_id), new["ops"].get(op_id)
        if b is None or n is None:
            changed.append(f"  {op_id}: only in {'new' if b is None else 'base'}")
        elif b["digest"] != n["digest"]:
            changed.append(f"  {op_id}: {str(b['digest'])[:16]} -> {str(n['digest'])[:16]}")
    print(f"  output digests changed: {len(changed)}")
    for line in changed:
        print(line)


def summarize(pairs: list[tuple[dict, dict]]) -> None:
    by_workload: dict[tuple, list] = {}
    for b, n in pairs:
        by_workload.setdefault((b["workload"], b["trace"]), []).append((b, n))
    for (workload, trace), group in sorted(by_workload.items()):
        if len(group) < 2:
            continue
        print(f"== {workload} trace={trace}: medians over {len(group)} seeds")
        for name, m in group[0][0]["metrics"].items():
            bs = [b["metrics"][name]["value"] for b, _ in group]
            ns = [n["metrics"][name]["value"] for _, n in group if name in n["metrics"]]
            if len(ns) == len(bs):
                print(row(name, statistics.median(bs), statistics.median(ns), m["unit"]))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    keys = sorted(set(base) & set(new))
    if not keys:
        print("no results with the same workload, seed and trace flag", file=sys.stderr)
        return 1
    for key in sorted(set(base) ^ set(new)):
        print(f"unpaired: {key} only in {'base' if key in base else 'new'}")
    pairs = [(base[k], new[k]) for k in keys]
    for b, n in pairs:
        compare_pair(b, n)
    summarize(pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
