"""subent benchmark: one workload, end-to-end or traced, checked by oracles.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in BENCHMARK.json and built in ``workloads.py``.  The
load model is a closed loop with one client: a single worker process runs
the operations one after another, CLI operations in-process through
``subent.cli.main(argv)``.  BLAS thread variables are pinned to 1 before
numpy is imported anywhere.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(``setup_s``, ``run_s``, ``small_op_ms``, ``large_op_ms``, ``peak_rss_mb``);
with ``--trace 1`` it reports the per-layer metrics of a traced run, which
alternates untraced and traced passes so ``trace.overhead_s`` compares the
two.  Lines before it, prefixed ``#``, give the environment, each timing's
median with the highest percentile its sample count supports, and every
failed operation.  The full result (metrics, samples, per-operation stdout
digests and layer breakdown) is written to
``.perfbench/results/<workload>-seed<N>-trace<T>.json``; ``compare.py``
prints the differences between two such files.

``--perturb`` corrupts every output before the oracles see it, so every
operation must count as failed; ``selftest.py`` runs that check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pins)

import oracles  # noqa: E402
import workloads  # noqa: E402
from calibration import kernel_seconds, speed_factor  # noqa: E402

SETUP_SAMPLES = 10
WORKER_TIMEOUT_S = 150
RESULTS_DIR = os.path.join(".perfbench", "results")
WORK_DIR = os.path.join(".perfbench", "work")
HERE = os.path.dirname(os.path.abspath(__file__))

# Interpreter start-up and imports are interpreter-bound work.
SETUP_BLAS_WEIGHT = 0.0

E2E_UNITS = {"setup_s": "s", "run_s": "s", "small_op_ms": "ms",
             "large_op_ms": "ms", "peak_rss_mb": "MB"}


# --- per-layer metrics ----------------------------------------------------------


def _self_s(agg: dict, *keys: str) -> float:
    return sum(agg.get(k, (0, 0, 0))[1] for k in keys) / 1e9


def _count(agg: dict, key: str) -> int:
    return agg.get(key, (0, 0, 0))[0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _both(name: str) -> tuple[str, str]:
    return name, name + "@cli"


# name -> (unit, function of (span aggregates, counters)).  io spans under
# cli.main carry the suffix "@cli" (see tracer.Tracer.aggregate).
LAYER_METRICS = {
    "spaces.validate_s": ("s", lambda a, c: _self_s(a, "spaces.validate_projector")),
    "spaces.validate_calls": ("count", lambda a, c: _count(a, "spaces.validate_projector")),
    "spaces.validate_per_projector": ("ratio", lambda a, c: _ratio(
        _count(a, "spaces.validate_projector"),
        _count(a, "spaces.Projector.__post_init__"))),
    "spaces.basis_check_s": ("s", lambda a, c: _self_s(a, "spaces.SubspaceBasis.__post_init__")),
    "spaces.projector_from_basis_s": ("s", lambda a, c: _self_s(a, "spaces.projector_from_basis")),
    "catalog.build_s": ("s", lambda a, c: _self_s(a, *[k for k in a if k.startswith("catalog.")])),
    "schmidt.realign_s": ("s", lambda a, c: _self_s(a, "schmidt.realign")),
    "schmidt.gram_s": ("s", lambda a, c: _self_s(a, "schmidt.reduced_superop")),
    "schmidt.string_s": ("s", lambda a, c: _self_s(a, "schmidt.schmidt_string")),
    "schmidt.measures_s": ("s", lambda a, c: _self_s(a, "schmidt.measures")),
    "linalg.eig_s": ("s", lambda a, c: _self_s(a, "linalg.hermitian_eigenvalues")),
    "linalg.eig_calls": ("count", lambda a, c: _count(a, "linalg.hermitian_eigenvalues")),
    "linalg.gram_schmidt_s": ("s", lambda a, c: _self_s(a, "linalg.gram_schmidt")),
    "linalg.gs_vectors_in": ("count", lambda a, c: c.get("gs_vectors_in", 0)),
    "linalg.gs_kept_ratio": ("ratio", lambda a, c: _ratio(
        c.get("gs_vectors_kept", 0), c.get("gs_vectors_in", 0))),
    "io.parse_s": ("s", lambda a, c: _self_s(
        a, *_both("io.load_subspace_document"), *_both("io.parse_subspace_document"))),
    "io.parse_mb": ("MB", lambda a, c: c.get("parse_bytes", 0) / 1e6),
    "io.emit_s": ("s", lambda a, c: _self_s(
        a, "io.basis_document", "io.projector_document", "io.dumps_json")),
    "io.emit_mb": ("MB", lambda a, c: c.get("emit_bytes", 0) / 1e6),
    "io.render_s": ("s", lambda a, c: _self_s(
        a, *[k for k in a if k.startswith("io.") and k.endswith("@cli")
             and "subspace_document" not in k])),
    "cli.self_s": ("s", lambda a, c: _self_s(a, "cli.main")),
    "majorization.sort_chain_s": ("s", lambda a, c: _self_s(a, "majorization.sort_chain")),
    "majorization.compare_s": ("s", lambda a, c: _self_s(a, "majorization.compare")),
    "majorization.compare_calls": ("count", lambda a, c: _count(a, "majorization.compare")),
}
PER_OP_COUNTS = ("spaces.validate_calls", "spaces.validate_per_projector",
                 "linalg.eig_calls", "linalg.gs_vectors_in",
                 "majorization.compare_calls")


def _merge(aggs: list[dict], counters: list[dict]) -> tuple[dict, dict]:
    agg: dict[str, list[float]] = {}
    for a in aggs:
        for key, row in a.items():
            acc = agg.setdefault(key, [0, 0, 0])
            for i in range(3):
                acc[i] += row[i]
    cnt: dict[str, int] = {}
    for c in counters:
        for key, v in c.items():
            cnt[key] = cnt.get(key, 0) + v
    return agg, cnt


def _layer_values(agg: dict, cnt: dict) -> dict[str, float]:
    return {name: float(fn(agg, cnt)) for name, (_, fn) in LAYER_METRICS.items()}


# --- environment ---------------------------------------------------------------------


def _git_commit(root: str) -> str | None:
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = os.path.join(root, ".git", name)
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    return None


def _src_digest(root: str) -> str:
    """sha256 over the paths and bytes of every .py file under src/."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _mem_available_mb() -> float | None:
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def environment(root: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "mem_available_mb": _mem_available_mb(),
        "seed": seed,
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
        "machine": platform.machine(),
    }


# --- measurement -------------------------------------------------------------------------


def measure_setup(root: str, count: int, discard_first: bool) -> list[dict]:
    """Fresh interpreters that import subent.cli, each bracketed by the
    reference kernel; returns raw and scaled wall times."""
    cmd = [sys.executable, "-c",
           "import sys; sys.path.insert(0, 'src'); import subent.cli"]
    samples = []
    before = kernel_seconds()
    for i in range(count + discard_first):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - t0
        after = kernel_seconds()
        if proc.returncode != 0:
            raise RuntimeError("importing subent.cli failed:\n"
                               + proc.stderr.decode(errors="replace"))
        if i or not discard_first:
            kernel = [(b + a) / 2 for b, a in zip(before, after)]
            samples.append({"raw": elapsed, "kernel_s": kernel,
                            "scaled": elapsed * speed_factor(*kernel, SETUP_BLAS_WEIGHT)})
        before = after
    return samples


def run_worker(root: str, work: str, plan: dict) -> dict:
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan_path]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{out}{err}")
    with open(os.path.join(work, "worker.json"), encoding="utf-8") as fh:
        return json.load(fh)


def summarize(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it.

    No samples (every execution raised) gives 0; the run is then reported
    as failed anyway.
    """
    s = sorted(samples)
    if not s:
        return {"n": 0, "median": 0.0}
    out = {"n": len(s), "median": statistics.median(s)}
    q = int(100 * (1 - 10 / len(s)))
    if q > 50:
        out[f"p{q}"] = statistics.quantiles(s, n=100, method="inclusive")[q - 1]
    else:
        out["max"] = s[-1]
    return out


# --- oracles ------------------------------------------------------------------------------


def check_output(op: dict, text: str, reemit: dict, digest: str) -> list[str]:
    check, exp = op["check"], op["expect"]
    if check == "schmidt":
        return oracles.check_schmidt(text, exp)
    if check == "compare":
        return oracles.check_compare(text, exp)
    if check == "hydrogen":
        return oracles.check_hydrogen(text, exp)
    if check == "verify":
        return oracles.check_verify(text, exp)
    if check == "chain":
        return oracles.check_chain(text, exp)
    problems = oracles.check_emit(text, exp, np.load(op["source"]))
    if reemit.get(digest) != digest:
        problems.append("emit -> parse -> emit is not byte-identical")
    return problems


def judge(ops: list[dict], worker: dict, perturb: bool) -> list[dict]:
    """Mark each execution ok or failed; returns the failures."""
    verdicts: dict[tuple[int, str], list[str]] = {}
    for key, paths in worker["outputs"].items():
        op = ops[int(key)]
        for digest, path in paths.items():
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if perturb:
                text = oracles.perturb(text, op["check"])
            reemit = worker["reemit"].get(key, {})
            verdicts[(int(key), digest)] = check_output(op, text, reemit, digest)
    failures, first_digest = [], {}
    for ex in worker["executions"]:
        op = ops[ex["op"]]
        problems = []
        if ex.get("error"):
            problems.append(ex["error"])
        else:
            if ex["rc"] != 0:
                problems.append(f"exit code {ex['rc']}")
            if ex["stderr"]:
                problems.append(f"stderr: {ex['stderr'].strip()[:200]}")
            want = op["expect"].get("warning") if isinstance(op["expect"], dict) else None
            got = ex["warnings"]
            if want is None and got:
                problems.append(f"unexpected warnings {got}")
            if want is not None and not any(
                    w.startswith("RankDeficiencyWarning") and want in w for w in got):
                problems.append(f"missing RankDeficiencyWarning '{want}'")
            first = first_digest.setdefault(op["id"], ex["digest"])
            if ex["digest"] != first:
                problems.append("output differs from this operation's first output")
            problems += verdicts[(ex["op"], ex["digest"])]
        if problems:
            failures.append({"op": op["id"], "pass": ex["pass"], "problems": problems})
    return failures


# --- main ------------------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", action="store_true",
                    help="corrupt every output before the oracles (self-test)")
    ap.add_argument("--out", help="result file (default under .perfbench/results)")
    return ap.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "subent", "cli.py")):
        print("perfbench: run from the root of a subent checkout "
              "(src/subent/cli.py not found)", file=sys.stderr)
        return 2
    work = os.path.join(root, WORK_DIR,
                        f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, root: str, work: str) -> int:
    blas_weight = workloads.BLAS_WEIGHT[args.workload]

    def scale(ex: dict) -> float:
        """Reference-speed factor of one execution (see calibration.py)."""
        return speed_factor(*ex["kernel_s"], blas_weight)

    env = environment(root, args.seed)
    # Half the set-up samples before the worker and half after it, so their
    # median is not taken from a single stretch of the host's speed drift.
    setup = None if args.trace else measure_setup(root, SETUP_SAMPLES // 2, True)
    ops, warmup = workloads.build(args.workload, args.seed, work)
    strip = ("check", "expect")
    plan = {"root": root, "work": work, "seconds": args.seconds, "trace": args.trace,
            "ops": [{k: v for k, v in op.items() if k not in strip} for op in ops],
            "warmup": [{k: v for k, v in op.items() if k not in strip} for op in warmup]}
    worker = run_worker(root, work, plan)
    if setup is not None:
        setup += measure_setup(root, SETUP_SAMPLES - len(setup), False)
    all_ops = ops + warmup
    failures = judge(all_ops, worker, args.perturb)
    executions = [ex for ex in worker["executions"] if ex["seconds"] is not None]
    timed = [ex for ex in executions if ex["pass"] >= 0]

    def pass_totals(traced: bool, scaled: bool) -> list[float]:
        totals: dict[int, float] = {}
        for ex in timed:
            if ex["traced"] == traced:
                totals[ex["pass"]] = (totals.get(ex["pass"], 0.0)
                                      + ex["seconds"] * (scale(ex) if scaled else 1.0))
        return list(totals.values())

    def rung_ms(rung: str, scaled: bool) -> list[float]:
        return [ex["seconds"] * 1e3 * (scale(ex) if scaled else 1.0) for ex in timed
                if not ex["traced"] and ops[ex["op"]]["rung"] == rung]

    timings, timings_raw = {}, {}
    for scaled, table in ((True, timings), (False, timings_raw)):
        table["run_s"] = summarize(pass_totals(False, scaled))
        table["small_op_ms"] = summarize(rung_ms("small", scaled))
        table["large_op_ms"] = summarize(rung_ms("large", scaled))
        if setup is not None:
            table["setup_s"] = summarize([x["scaled" if scaled else "raw"] for x in setup])

    ops_report: dict[str, dict] = {}
    for i, op in enumerate(all_ops):
        runs = [ex for ex in executions if ex["op"] == i]
        rep = ops_report.setdefault(op["id"], {
            "rung": op["rung"], "executions": 0, "latency_ms": [], "latency_ms_raw": [],
            "digest": next((ex["digest"] for ex in runs), None)})
        rep["executions"] += len(runs)
        rep["latency_ms"] += [ex["seconds"] * 1e3 * scale(ex) for ex in runs]
        rep["latency_ms_raw"] += [ex["seconds"] * 1e3 for ex in runs]

    layer_keys = {}
    if args.trace:
        layers, layer_keys = trace_metrics(worker, ops, ops_report, scale)
        layers["trace.overhead_s"] = (statistics.median(pass_totals(True, True))
                                      - timings["run_s"]["median"])
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        units["trace.overhead_s"] = "s"
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in layers.items()}
    else:
        values = {name: timings[name]["median"]
                  for name in ("setup_s", "run_s", "small_op_ms", "large_op_ms")}
        values["peak_rss_mb"] = worker["peak_rss_kb"] / 1024
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    attempted, failed = len(worker["executions"]), len(failures)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "perturb": args.perturb, "env": env,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "fail_rate": failed / attempted,
        "metrics": metrics, "timings": timings, "timings_raw": timings_raw,
        "reference_kernel_s": {
            "blas": summarize([ex["kernel_s"][0] for ex in executions]),
            "interp": summarize([ex["kernel_s"][1] for ex in executions])},
        "passes": worker["passes"], "ops": ops_report,
        "executions": [[all_ops[ex["op"]]["id"], ex["pass"], ex["traced"], ex["seconds"],
                        *ex["kernel_s"]] for ex in executions],
        "layers_by_span": layer_keys, "failures": failures,
        "trace_missing": worker.get("trace", {}).get("missing", []),
    }
    report(result)
    out = args.out or os.path.join(
        root, RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    spans = os.path.join(work, "spans.tsv")
    if os.path.isfile(spans):
        shutil.move(spans, out[: -len(".json")] + "-spans.tsv")
    print(json.dumps({"correct": result["correct"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


def trace_metrics(worker, ops, ops_report, scale):
    """Per-layer metrics: medians over traced passes of per-pass totals.

    Span times are scaled to reference speed like the end-to-end timings.
    """
    executions = worker["executions"]
    counters: dict[int, dict[str, int]] = {}
    for exec_id, key, value in worker["trace"]["counters"]:
        counters.setdefault(exec_id, {})[key] = value
    scaled: dict[int, dict[str, list[float]]] = {}
    for key, agg in worker["trace"]["aggregates"].items():
        f = scale(executions[int(key)])
        scaled[int(key)] = {k: [row[0], row[1] * f, row[2] * f] for k, row in agg.items()}
    by_pass: dict[int, list[int]] = {}
    by_op: dict[int, list[int]] = {}
    for exec_id, ex in enumerate(executions):
        if ex["traced"] and ex["seconds"] is not None:
            by_pass.setdefault(ex["pass"], []).append(exec_id)
            by_op.setdefault(ex["op"], []).append(exec_id)

    def totals(ids):
        return _merge([scaled.get(i, {}) for i in ids], [counters.get(i, {}) for i in ids])

    per_pass = [totals(ids) for ids in by_pass.values()]
    values = [_layer_values(*t) for t in per_pass]
    layers = {name: statistics.median(v[name] for v in values) for name in LAYER_METRICS}
    keys = sorted({k for agg, _ in per_pass for k in agg})
    layer_keys = {k: {"count": statistics.median(agg.get(k, (0,))[0] for agg, _ in per_pass),
                      "self_s": statistics.median(agg.get(k, (0, 0))[1] / 1e9
                                                  for agg, _ in per_pass)}
                  for k in keys}
    for op_index, ids in by_op.items():
        per_exec = [_layer_values(*totals([i])) for i in ids]
        ops_report[ops[op_index]["id"]]["layers"] = {
            name: statistics.median(v[name] for v in per_exec) for name in LAYER_METRICS}
    return layers, layer_keys


def report(result: dict) -> None:
    """Human-readable lines, each prefixed with '#'."""
    env = result["env"]
    print(f"# perfbench {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    blas = env["blas"]
    print(f"# env python {env['python']}  numpy {env['numpy']}  "
          f"blas {blas.get('name')} {blas.get('version')}  nproc {env['nproc']} "
          f"(affinity {env['affinity_cpus']})  MemAvailable "
          f"{env['mem_available_mb'] and round(env['mem_available_mb'])} MB")
    print(f"# env threads {env['thread_env']}")
    print(f"# env git {env['git_commit']}  src sha256 {env['src_sha256'][:16]}")
    kernel = result["reference_kernel_s"]
    print("# timings at reference speed (raw wall time in brackets); reference "
          f"kernel median blas {kernel['blas']['median'] * 1e3:.4g} ms, interpreter "
          f"{kernel['interp']['median'] * 1e3:.4g} ms")

    def stats(t: dict) -> str:
        tail = ", ".join(f"{k} {v:.6g}" for k, v in t.items() if k not in ("n", "median"))
        return f"median {t['median']:.6g}, {tail}"

    for name, t in result["timings"].items():
        print(f"# {name:<12} {stats(t)}  [{stats(result['timings_raw'][name])}]"
              f"  (n={t['n']})")
    for name, m in result["metrics"].items():
        print(f"# metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"# fail_rate {result['fail_rate']:.4g} "
          f"({result['failed']} of {result['attempted']} executions)")
    if result["trace"]:
        for op_id, rep in result["ops"].items():
            if "layers" in rep:
                counts = "  ".join(f"{k.split('.', 1)[1]}={rep['layers'][k]:g}"
                                   for k in PER_OP_COUNTS if rep["layers"][k])
                if counts:
                    print(f"# op {op_id}: {counts}")
        if result["trace_missing"]:
            print(f"# trace: functions not found {result['trace_missing']}")
    for f in result["failures"][:20]:
        print(f"# FAILED {f['op']} (pass {f['pass']}): {'; '.join(f['problems'][:3])}")


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
