"""Run one workload's operations against subent and record what happened.

Started by ``run.py`` in a fresh process whose BLAS thread variables are
already pinned.  Usage: ``python3 perfbench/worker.py PLAN.json``.  The plan
names the checkout root, the operations, the seconds to measure and
whether to trace; the worker writes ``worker.json`` (per-execution
latencies, exit codes and stdout digests, pass times, peak RSS and, when
tracing, per-execution span aggregates) and one text file per distinct
output into the plan's work directory.

Timing: after a warm-up, whole passes over the operation list run back to
back, one operation at a time, until the next pass would end past the
deadline (at least one pass; with tracing at least one untraced and one
traced pass, alternating).  Only the call into subent is timed; capturing
and hashing output happen outside the timed region, and so does the
reference kernel (``calibration.py``) timed between operations.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import warnings

from calibration import kernel_seconds


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pass_order(ops: list) -> list[int]:
    """Operation indices of one pass, repeats included.

    Executions of the small rung are spread evenly over the pass instead of
    running back to back, so their median samples the same stretch of time
    as the pass itself; the host's speed drifts within seconds.
    """
    small = [i for i, op in enumerate(ops) if op["rung"] == "small"
             for _ in range(op["repeat"])]
    rest = [i for i, op in enumerate(ops) if op["rung"] != "small"
            for _ in range(op["repeat"])]
    keyed = [((k + 0.5) / len(rest), 0, i) for k, i in enumerate(rest)]
    keyed += [((k + 0.5) / len(small), 1, i) for k, i in enumerate(small)]
    return [i for _, _, i in sorted(keyed)]


class Runner:
    def __init__(self, plan: dict):
        import numpy as np
        import subent.cli
        import subent.io
        import subent.majorization
        import subent.spaces

        self.np = np
        self.cli = subent.cli
        self.io = subent.io
        self.maj = subent.majorization
        self.spaces = subent.spaces
        self.plan = plan
        self.work = plan["work"]
        self.prepared = {}
        self.executions = []
        self.outputs: dict[int, dict[str, str]] = {}

    def prepare(self, index: int, op: dict) -> None:
        """Build library-call inputs outside the timed region."""
        np = self.np
        if op["kind"] == "emit":
            f = self.spaces.Factorization(op["d1"], op["d2"])
            array = np.load(op["source"], allow_pickle=False)
            if op["form"] == "basis":
                obj = self.spaces.SubspaceBasis(factorization=f, vectors=array)
            else:
                obj = self.spaces.Projector(factorization=f, matrix=array,
                                            dim=op["dim"])
            self.prepared[index] = obj
        elif op["kind"] == "chain":
            data = np.load(op["source"], allow_pickle=False)
            strings = [row[:n] for row, n in zip(data["strings"], data["lengths"])]
            self.prepared[index] = list(zip(op["labels"], strings))

    def call(self, index: int, op: dict) -> tuple[float, object, str, str, list]:
        """Run one operation; returns (seconds, rc, stdout, stderr, warnings)."""
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if op["kind"] == "cli":
                    t0 = time.perf_counter()
                    rc = self.cli.main(list(op["argv"]))
                    t1 = time.perf_counter()
                    text = out.getvalue()
                elif op["kind"] == "emit":
                    make = (self.io.basis_document if op["form"] == "basis"
                            else self.io.projector_document)
                    t0 = time.perf_counter()
                    text = self.io.dumps_json(make(self.prepared[index], op["label"]))
                    t1 = time.perf_counter()
                    rc = 0
                else:
                    t0 = time.perf_counter()
                    chain = self.maj.sort_chain(self.prepared[index])
                    t1 = time.perf_counter()
                    rc = 0
                    text = json.dumps({
                        "ordered": chain.ordered,
                        "labels": None if chain.labels is None else list(chain.labels),
                        "ties": [list(p) for p in chain.ties],
                        "incomparable": [list(p) for p in chain.incomparable],
                    })
        found = [f"{w.category.__name__}: {w.message}" for w in caught]
        return t1 - t0, rc, text, err.getvalue(), found

    def execute(self, index: int, op: dict, pass_no: int, traced: bool,
                tracer) -> None:
        exec_id = len(self.executions)
        if tracer is not None:
            tracer.exec_id = exec_id
        record = {"op": index, "pass": pass_no, "traced": traced}
        # Start every operation without the previous one's cyclic garbage,
        # as a fresh CLI process would.
        gc.collect()
        try:
            seconds, rc, text, err, found = self.call(index, op)
        except Exception as exc:  # a crash is a failed operation, not a crash
            record.update(seconds=None, rc=None, digest=None,
                          error=f"{type(exc).__name__}: {exc}")
            self.executions.append(record)
            return
        digest = _digest(text)
        record.update(seconds=seconds, rc=rc, digest=digest, stderr=err,
                      warnings=found)
        self.executions.append(record)
        seen = self.outputs.setdefault(index, {})
        if digest not in seen:
            path = os.path.join(self.work, f"out_{index}_{digest[:16]}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            seen[digest] = path

    def run_sequence(self, items: list, pass_no: int, traced: bool, tracer) -> None:
        """Execute (index, op) items, timing the reference kernel around each."""
        before = kernel_seconds()
        for index, op in items:
            self.execute(index, op, pass_no, traced, tracer)
            after = kernel_seconds()
            self.executions[-1]["kernel_s"] = [(b + a) / 2 for b, a in zip(before, after)]
            before = after

    def run_pass(self, ops: list, pass_no: int, traced: bool, tracer) -> dict:
        if traced:
            tracer.install()
        wall0 = time.perf_counter()
        try:
            items = [(i, ops[i]) for i in pass_order(ops)]
            self.run_sequence(items, pass_no, traced, tracer)
        finally:
            if traced:
                tracer.uninstall()
        return {"pass": pass_no, "traced": traced,
                "wall_s": time.perf_counter() - wall0,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}

    def reemit(self, index: int) -> dict[str, str]:
        """Digest of dumps_json(json.loads(text)) for each emitted document."""
        out = {}
        for digest, path in self.outputs.get(index, {}).items():
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            out[digest] = _digest(self.io.dumps_json(doc))
        return out


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        plan = json.load(fh)
    src = os.path.join(plan["root"], "src")
    sys.path.insert(0, src)
    runner = Runner(plan)
    import subent

    if os.path.dirname(os.path.abspath(subent.__file__)) != os.path.join(src, "subent"):
        print(f"imported subent from {subent.__file__}, not {src}", file=sys.stderr)
        return 2
    ops, warmup = plan["ops"], plan["warmup"]
    n_ops = len(ops)
    for index, op in enumerate(ops + warmup):
        runner.prepare(index, op)

    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()

    runner.run_sequence([(n_ops + k, op) for k, op in enumerate(warmup)], -1,
                        False, tracer)

    passes = []
    deadline = time.perf_counter() + plan["seconds"]
    while True:
        traced = bool(plan["trace"]) and len(passes) % 2 == 1
        p = runner.run_pass(ops, len(passes), traced, tracer)
        passes.append(p)
        enough = len(passes) >= (2 if plan["trace"] else 1)
        if enough and time.perf_counter() + p["wall_s"] > deadline:
            break

    result = {
        "subent_file": subent.__file__,
        "executions": runner.executions,
        "outputs": {str(k): v for k, v in runner.outputs.items()},
        "passes": passes,
        # Peak RSS after the first pass, so that it does not depend on how
        # many passes fit into the run.
        "peak_rss_kb": passes[0]["maxrss_kb"],
    }
    result["reemit"] = {
        str(i): runner.reemit(i) for i, op in enumerate(ops + warmup)
        if op["kind"] == "emit"
    }
    if tracer is not None:
        result["trace"] = {
            "missing": tracer.missing,
            "aggregates": {str(k): v for k, v in tracer.aggregate().items()},
            "counters": [[e, key, v] for (e, key), v in tracer.counters.items()],
        }
        tracer.write_spans(os.path.join(plan["work"], "spans.tsv"))
    with open(os.path.join(plan["work"], "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
