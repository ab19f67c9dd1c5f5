"""The four workloads: seeded inputs, the operation list of one pass, and
the oracle expectation of every operation.

Each operation is a dict.  ``kind`` is ``cli`` (argv for
``subent.cli.main``), ``emit`` (``basis_document`` / ``projector_document``
followed by ``dumps_json`` on a source array saved as ``.npy``) or
``chain`` (``sort_chain`` on a string family saved as ``.npz``).  ``rung``
marks the smallest and largest operation of the workload, whose latencies
become ``small_op_ms`` and ``large_op_ms``; the smallest rung runs
``SMALL_REPEAT`` times per pass so its median rests on enough samples.
``check`` and ``expect`` stay in the benchmark process and feed the oracle.
"""

from __future__ import annotations

import json
import os

import numpy as np

import oracles

WORKLOADS = ("catalog_dense", "user_documents", "document_export", "chains")
SMALL_REPEAT = 10
RANDOM_SHAPES = {"small": (10, 10, 30), "large": (20, 30, 300)}
DEPENDENT_VECTORS = 60
# Weight of the BLAS half of the reference kernel when timings are scaled to
# reference speed (calibration.py), chosen per workload as the weight that
# gave the smallest spread over ten seeds: the parse- and emit-bound
# workloads follow the interpreter half alone.
BLAS_WEIGHT = {"catalog_dense": 0.5, "user_documents": 0.0,
               "document_export": 0.0, "chains": 0.5}


def _op(op_id, kind, check, expect, rung=None, repeat=1, **spec):
    return {"id": op_id, "kind": kind, "rung": rung, "repeat": repeat,
            "check": check, "expect": expect, **spec}


# --- catalog_dense -------------------------------------------------------------


def _preset_expect(family: str, size: int, branch: str | None = None) -> dict:
    if family == "spin":
        probs = oracles.spin_string(size, branch)
        dim = size + 2 if branch == "plus" else size
        return {"label": f"spin 2j={size} {branch}", "d1": size + 1, "d2": 2,
                "dim": dim, "probs": probs}
    closed = oracles.antisym_string if family == "antisym" else oracles.sym_string
    dim = size * (size - 1) // 2 if family == "antisym" else size * (size + 1) // 2
    return {"label": f"{family} n={size}", "d1": size, "d2": size, "dim": dim,
            "probs": closed(size)}


def _spin_op(two_j, branch, **kw):
    argv = ["schmidt", "--preset", "spin", "--two-j", str(two_j), "--branch", branch]
    return _op(" ".join(argv), "cli", "schmidt", _preset_expect("spin", two_j, branch),
               argv=argv, **kw)


def _pair_op(family, n, **kw):
    argv = ["schmidt", "--preset", family, "--n", str(n)]
    return _op(" ".join(argv), "cli", "schmidt", _preset_expect(family, n),
               argv=argv, **kw)


def catalog_dense(seed: int, work: str):
    ops = []
    for two_j in (100, 400, 1000):
        rung = {100: "small", 1000: "large"}.get(two_j)
        for branch in ("plus", "minus"):
            ops.append(_spin_op(two_j, branch, rung=rung,
                                repeat=SMALL_REPEAT if rung == "small" else 1))
    for n in (8, 16, 24):
        ops += [_pair_op("antisym", n), _pair_op("sym", n)]
    ops.append(_op("verify", "cli", "verify",
                   {"counts": oracles.verify_check_counts()}, argv=["verify"]))
    warmup = [_spin_op(100, "plus"), _pair_op("antisym", 8)]
    return ops, warmup


# --- random subspaces ------------------------------------------------------------


def random_rows(rng, d1: int, d2: int, m: int, dependent: int = 0) -> np.ndarray:
    """m complex Gaussian vectors in C^(d1 d2); `dependent` of them are
    random combinations of the others, placed at random positions."""
    dim, free = d1 * d2, m - dependent
    rows = rng.standard_normal((free, dim)) + 1j * rng.standard_normal((free, dim))
    if dependent:
        coef = (rng.standard_normal((dependent, free))
                + 1j * rng.standard_normal((dependent, free)))
        rows = np.concatenate([rows, coef @ rows / np.sqrt(free)])
        rows = rows[rng.permutation(m)]
    return rows


def random_subspaces(seed: int) -> dict[str, dict]:
    """The seeded subspaces shared by user_documents and document_export."""
    rng = np.random.default_rng([seed, 7])
    out = {}
    for key, dependent in (("small", 0), ("large", 0),
                           ("deficient", DEPENDENT_VECTORS)):
        d1, d2, m = RANDOM_SHAPES["small" if key == "small" else "large"]
        rows = random_rows(rng, d1, d2, m, dependent)
        q, _ = np.linalg.qr(rows.T)
        out[key] = {"d1": d1, "d2": d2, "m": m, "rows": rows,
                    "vectors": np.ascontiguousarray(q.T),
                    "label": f"random {d1}x{d2} m={m}"
                             + (f" dependent={dependent}" if dependent else "")}
    return out


def _pairs(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _svd_expect(sub: dict, label: str) -> dict:
    probs, rank = oracles.svd_string(sub["rows"], sub["d1"], sub["d2"])
    near = (probs > oracles.ZERO_THRESHOLD / 10) & (probs < oracles.ZERO_THRESHOLD * 10)
    if np.any(near):
        raise RuntimeError(f"{label}: a Schmidt coefficient sits at the rank cut")
    return {"label": label, "d1": sub["d1"], "d2": sub["d2"], "dim": rank,
            "probs": probs}


def user_documents(seed: int, work: str):
    subs = random_subspaces(seed)
    paths, expects = {}, {}
    for key, sub in subs.items():
        base = {"label": sub["label"], "d1": sub["d1"], "d2": sub["d2"]}
        paths[key] = _write_json(os.path.join(work, f"basis_{key}.json"),
                                 {**base, "basis": _pairs(sub["rows"])})
        expects[key] = _svd_expect(sub, sub["label"])
        if key == "deficient":
            continue
        proj = sub["vectors"].T @ sub["vectors"].conj()
        label = sub["label"] + " projector"
        paths[key + "_projector"] = _write_json(
            os.path.join(work, f"projector_{key}.json"),
            {**base, "label": label, "projector": _pairs(proj)})
        expects[key + "_projector"] = {**expects[key], "label": label}

    def schmidt(key, **kw):
        exp = dict(expects[key])
        if key == "deficient":
            exp["warning"] = (f"dropped {DEPENDENT_VECTORS} linearly dependent")
        return _op(f"schmidt {key}", "cli", "schmidt", exp,
                   argv=["schmidt", paths[key]], **kw)

    def compare(key):
        a, b = expects[key], expects[key + "_projector"]
        cums = np.cumsum(a["probs"])
        return _op(f"compare {key} {key}_projector", "cli", "compare",
                   {"a": a["label"], "b": b["label"], "verdict": "equal",
                    "ca": cums, "cb": cums},
                   argv=["compare", paths[key], paths[key + "_projector"]])

    ops = [
        schmidt("small", rung="small", repeat=SMALL_REPEAT),
        schmidt("small_projector"),
        schmidt("large", rung="large"),
        schmidt("deficient", rung="large"),
        schmidt("large_projector"),
        compare("large"),
    ]
    warmup = [schmidt("small"), schmidt("small_projector"), compare("small")]
    return ops, warmup


# --- document_export ---------------------------------------------------------------


def document_export(seed: int, work: str):
    subs = random_subspaces(seed)
    ops = []
    for key in ("small", "large"):
        sub = subs[key]
        sources = {"basis": sub["vectors"],
                   "projector": sub["vectors"].T @ sub["vectors"].conj()}
        for form, array in sources.items():
            path = os.path.join(work, f"{form}_{key}.npy")
            np.save(path, array)
            rung = {("small", "basis"): "small",
                    ("large", "projector"): "large"}.get((key, form))
            label = sub["label"] + ("" if form == "basis" else " projector")
            ops.append(_op(
                f"emit {form} {key}", "emit", "emit",
                {"form": form, "label": label, "d1": sub["d1"], "d2": sub["d2"]},
                rung=rung, repeat=SMALL_REPEAT if rung == "small" else 1,
                source=path, form=form, label=label, d1=sub["d1"], d2=sub["d2"],
                dim=sub["m"]))
    warmup = [dict(ops[0], repeat=1)]
    return ops, warmup


# --- chains ---------------------------------------------------------------------------


def t_transform_family(rng, count: int, length: int) -> list[np.ndarray]:
    """A totally ordered family: each string is a T-transform of the one
    before it, so it is strictly more entangled than every earlier one."""
    chain = [np.sort(rng.dirichlet(np.full(length, 0.3)))[::-1]]
    for _ in range(count * 50):
        if len(chain) == count:
            return chain
        q = chain[-1].copy()
        i, j = np.sort(rng.choice(length, 2, replace=False))
        gap = q[i] - q[j]
        if gap < 1e-3:
            continue
        move = rng.uniform(0.05, 0.45) * gap
        q[i] -= move
        q[j] += move
        q = np.sort(q)[::-1]
        c_prev = oracles.partial_sums(chain)
        c_new = np.cumsum(np.pad(q, (0, c_prev.shape[1] - length)))
        gaps = c_prev - c_new
        if np.all(gaps.max(axis=1) > 1e-6) and not np.any(
            (np.abs(gaps) > oracles.AMBIGUOUS_GAP[0])
            & (np.abs(gaps) < oracles.AMBIGUOUS_GAP[1])
        ):
            chain.append(q)
    raise RuntimeError("could not build a T-transform chain")


def incomparable_family(rng, count: int, min_len: int, max_len: int):
    for _ in range(20):
        family = [np.sort(rng.dirichlet(np.ones(n)))[::-1]
                  for n in rng.integers(min_len, max_len + 1, size=count)]
        if not oracles.ambiguous(family):
            return family
    raise RuntimeError("could not draw an unambiguous string family")


def _chain_op(name: str, strings, labels, work: str, **kw):
    width = max(len(s) for s in strings)
    padded = np.zeros((len(strings), width))
    for i, s in enumerate(strings):
        padded[i, : len(s)] = s
    path = os.path.join(work, f"{name}.npz")
    np.savez(path, strings=padded, lengths=np.array([len(s) for s in strings]))
    return _op(f"sort_chain {name}", "chain", "chain",
               oracles.expected_chain(labels, strings),
               source=path, labels=labels, **kw)


def _compare_presets(rng) -> list[tuple[str, str]]:
    """Seeded preset pairs whose verdicts are clear of the tolerance."""
    pairs = []
    while len(pairs) < 4:
        a, b, c = (int(x) for x in rng.integers(3, 7, size=3))
        t = int(rng.integers(3, 41))
        candidates = [(f"antisym:{a}", f"sym:{b}"),
                      (f"spin:{t}:plus", f"spin:{t}:minus"),
                      (f"sym:{c}", f"sym:{c}"),
                      (f"spin:{t}:minus", f"antisym:{a}")]
        token = candidates[len(pairs)]
        if not oracles.ambiguous([_preset_string(x) for x in token]):
            pairs.append(token)
    return pairs


def _preset_string(token: str) -> np.ndarray:
    parts = token.split(":")
    if parts[0] == "spin":
        return oracles.spin_string(int(parts[1]), parts[2])
    closed = oracles.antisym_string if parts[0] == "antisym" else oracles.sym_string
    return closed(int(parts[1]))


def _preset_label(token: str) -> str:
    parts = token.split(":")
    if parts[0] == "spin":
        return f"spin 2j={parts[1]} {parts[2]}"
    return f"{parts[0]} n={parts[1]}"


def _compare_op(a: str, b: str):
    sa, sb = _preset_string(a), _preset_string(b)
    verdict = oracles.verdict_matrix([sa, sb])[0, 1]
    c = oracles.partial_sums([sa, sb])
    return _op(f"compare {a} {b}", "cli", "compare",
               {"a": _preset_label(a), "b": _preset_label(b), "verdict": verdict,
                "ca": c[0], "cb": c[1]},
               argv=["compare", a, b])


def _hydrogen_op(n: int, **kw):
    return _op(f"hydrogen --n {n}", "cli", "hydrogen", n,
               argv=["hydrogen", "--n", str(n)], **kw)


def chains(seed: int, work: str):
    rng = np.random.default_rng([seed, 11])
    ordered = t_transform_family(rng, 150, 48)
    labels = [f"t{i:03d}" for i in range(len(ordered))]
    perm = rng.permutation(len(ordered))
    ordered_op = _chain_op("ordered", [ordered[i] for i in perm],
                           [labels[i] for i in perm], work)
    if ordered_op["expect"]["labels"] != labels:
        raise RuntimeError("T-transform family is not ordered as built")
    wide = incomparable_family(rng, 120, 64, 128)
    wide_op = _chain_op("incomparable", wide,
                        [f"w{i:03d}" for i in range(len(wide))], work)
    compares = [_compare_op(a, b) for a, b in _compare_presets(rng)]
    ops = [
        _hydrogen_op(25, rung="small", repeat=SMALL_REPEAT),
        _hydrogen_op(50),
        _hydrogen_op(100),
        _hydrogen_op(200, rung="large"),
        ordered_op,
        wide_op,
        *compares,
    ]
    warmup = [_hydrogen_op(25), compares[0]]
    return ops, warmup


_WORKLOAD_INPUTS = {
    "catalog_dense": catalog_dense,
    "user_documents": user_documents,
    "document_export": document_export,
    "chains": chains,
}


def build(workload: str, seed: int, work: str):
    """Write the inputs of `workload` into `work`; return (ops, warmup)."""
    return _WORKLOAD_INPUTS[workload](seed, work)
