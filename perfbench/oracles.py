"""Oracles that judge subent's outputs without trusting subent.

Nothing here imports subent.  Catalog strings and measures are written out
from their closed forms, random subspaces are checked against a plain numpy
SVD of the realigned projector, and majorization verdicts come from a numpy
partial-sum comparator.  Each ``check_*`` function takes an operation's
output text and returns a list of problems; an empty list means the output
is correct.  ``perturb`` corrupts an output so that a self-test can show each
oracle notices.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

STRING_TOL = 1e-9          # same bar as `subent verify`
MEASURE_TOL = 1e-9
COMPARE_TOL = 1e-9         # subent's default majorization tolerance
ZERO_THRESHOLD = 1e-10     # subent's default zero_threshold
DEFECT_TOL = 1e-10
TRACE_DEFECT_TOL = 1e-8
# A partial-sum gap this close to COMPARE_TOL would make a verdict depend on
# rounding; generated inputs are redrawn until no gap falls in the band.
AMBIGUOUS_GAP = (0.9 * COMPARE_TOL, 1.1 * COMPARE_TOL)


# --- closed forms -----------------------------------------------------------


def antisym_string(n: int) -> np.ndarray:
    denom = 2.0 * n * (n - 1)
    p = np.full(n * n, 1.0 / denom)
    p[0] = (n - 1) ** 2 / denom
    return p


def sym_string(n: int) -> np.ndarray:
    denom = 2.0 * n * (n + 1)
    p = np.full(n * n, 1.0 / denom)
    p[0] = (n + 1) ** 2 / denom
    return p


def spin_string(two_j: int, branch: str) -> np.ndarray:
    j = two_j / 2.0
    denom = 2.0 * j + 1.0
    if branch == "plus":
        p = [(j + 1.0) / denom] + [j / (3.0 * denom)] * 3
    else:
        p = [j / denom] + [(j + 1.0) / (3.0 * denom)] * 3
    return np.sort(np.array(p))[::-1]


def limiting_string() -> np.ndarray:
    return np.array([0.5, 1 / 6, 1 / 6, 1 / 6])


def measures_of(p: np.ndarray) -> dict[str, float]:
    """e_d, e_i (bits) and e_t of a probability string, from their definitions."""
    p = np.asarray(p, dtype=float)
    nz = p[p > 0]
    return {
        "e_d": math.sqrt(max(0.0, 2.0 * (1.0 - math.sqrt(float(p.max()))))),
        "e_i": float(-(nz * np.log2(nz)).sum()),
        "e_t": float(1.0 - (p * p).sum()),
    }


def hydrogen_order(n: int) -> list[str]:
    """Least to most entangled: V_1/2..V_{n-1/2}, then S_0, then Vt_{n-3/2}..Vt_1/2."""
    plus = [f"V_{2 * l + 1}/2" for l in range(n)]
    minus = [f"Vt_{2 * l - 1}/2" for l in range(n - 1, 0, -1)]
    return plus + ["S_0"] + minus


def hydrogen_entries(n: int) -> list[dict]:
    """Label, l, branch and closed-form string of every level-n eigenspace."""
    out = [{"label": "V_1/2", "l": 0, "branch": "plus",
            "string": np.array([1.0, 0.0, 0.0, 0.0]), "dim": 2}]
    for l in range(1, n):
        out.append({"label": f"V_{2 * l + 1}/2", "l": l, "branch": "plus",
                    "string": spin_string(2 * l, "plus"), "dim": 2 * l + 2})
        out.append({"label": f"Vt_{2 * l - 1}/2", "l": l, "branch": "minus",
                    "string": spin_string(2 * l, "minus"), "dim": 2 * l})
    return out


def verify_check_counts(max_n: int = 12, max_two_j: int = 20,
                        max_hydrogen_n: int = 8) -> dict[str, int]:
    """Number of checks `subent verify` runs per family at the given ranges."""
    return {
        "antisym": 2 * (max_n - 1),      # string + measures, n = 2..max_n
        "sym": 2 * max_n,                # n = 1..max_n
        "spin": 7 * max_two_j,           # 2 strings, 2 measures, Q, X, completeness
        "hydrogen": sum(2 * n for n in range(1, max_hydrogen_n + 1)),
    }


# --- independent numerics ---------------------------------------------------


def svd_string(raw_vectors: np.ndarray, d1: int, d2: int) -> tuple[np.ndarray, int]:
    """Schmidt string of span(raw_vectors) via numpy SVDs only.

    The span's orthonormal basis comes from an SVD of the raw vectors; the
    operator-Schmidt coefficients are the singular values of the realigned
    projector A[(i,j),(k,l)] = P[(i,k),(j,l)] / sqrt(dim).
    """
    u, s, _ = np.linalg.svd(raw_vectors.T, full_matrices=False)
    rank = int(np.count_nonzero(s > s[0] * 1e-10))
    u = u[:, :rank]
    p = (u @ u.conj().T).reshape(d1, d2, d1, d2)
    a = np.einsum("ikjl->ijkl", p).reshape(d1 * d1, d2 * d2) / math.sqrt(rank)
    sv = np.linalg.svd(a, compute_uv=False)
    return np.sort(sv * sv)[::-1], rank


def partial_sums(strings: list[np.ndarray]) -> np.ndarray:
    """Row-wise cumulative sums of descending strings padded to one length."""
    length = max(len(s) for s in strings)
    out = np.zeros((len(strings), length))
    for i, s in enumerate(strings):
        out[i, : len(s)] = np.sort(np.asarray(s, dtype=float))[::-1]
    return np.cumsum(out, axis=1)


def verdict_matrix(strings: list[np.ndarray], tol: float = COMPARE_TOL) -> np.ndarray:
    """verdict[i, j] of string i relative to string j, by partial sums."""
    c = partial_sums(strings)
    below = np.all(c[:, None, :] <= c[None, :, :] + tol, axis=2)
    v = np.full(below.shape, "incomparable", dtype=object)
    v[below & below.T] = "equal"
    v[below & ~below.T] = "more_entangled"
    v[~below & below.T] = "less_entangled"
    return v


def ambiguous(strings: list[np.ndarray]) -> bool:
    """True when some pairwise partial-sum gap is too close to call."""
    c = partial_sums(strings)
    gap = np.abs(c[:, None, :] - c[None, :, :])
    return bool(np.any((gap > AMBIGUOUS_GAP[0]) & (gap < AMBIGUOUS_GAP[1])))


def expected_chain(labels: list[str], strings: list[np.ndarray]) -> dict:
    """The ChainResult sort_chain must return, from the numpy comparator."""
    v = verdict_matrix(strings)
    n = len(labels)
    ties, incomparable = [], []
    for i in range(n):
        for j in range(i + 1, n):
            if v[i, j] == "equal":
                ties.append([labels[i], labels[j]])
            elif v[i, j] == "incomparable":
                incomparable.append([labels[i], labels[j]])
    if incomparable:
        return {"ordered": False, "labels": None, "ties": ties,
                "incomparable": incomparable}
    score = [sum(v[i, j] == "more_entangled" for j in range(n)) for i in range(n)]
    order = sorted(range(n), key=lambda i: score[i])
    return {"ordered": True, "labels": [labels[i] for i in order], "ties": ties,
            "incomparable": []}


# --- checks -----------------------------------------------------------------


def _close(problems: list, what: str, got, want, tol: float) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{what}: shape {got.shape}, expected {want.shape}")
    elif not np.all(np.abs(got - want) <= tol):
        worst = float(np.max(np.abs(got - want)))
        problems.append(f"{what}: deviation {worst:.3e} exceeds {tol:.0e}")


def _loads(text: str, problems: list):
    try:
        return json.loads(text)
    except ValueError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def check_schmidt(text: str, exp: dict) -> list[str]:
    """`subent schmidt` JSON against an expected string, dim and label."""
    problems: list[str] = []
    doc = _loads(text, problems)
    if doc is None:
        return problems
    for key in ("label", "d1", "d2", "dim"):
        if doc.get(key) != exp[key]:
            problems.append(f"{key} = {doc.get(key)!r}, expected {exp[key]!r}")
    probs = np.asarray(exp["probs"], dtype=float)
    _close(problems, "schmidt_string", doc.get("schmidt_string", []), probs, STRING_TOL)
    k = int(np.count_nonzero(probs > ZERO_THRESHOLD))
    if doc.get("k") != k:
        problems.append(f"k = {doc.get('k')!r}, expected {k}")
    want = measures_of(probs)
    got = doc.get("measures", {})
    for key in ("e_d", "e_i", "e_t"):
        _close(problems, f"measures.{key}", got.get(key, math.nan), want[key],
               MEASURE_TOL)
    d = doc.get("projector_defects", {})
    if d.get("passes") is not True:
        problems.append("projector_defects.passes is not true")
    for key, tol in (("hermiticity", DEFECT_TOL), ("idempotency", DEFECT_TOL),
                     ("trace", TRACE_DEFECT_TOL)):
        if not (isinstance(d.get(key), (int, float)) and 0 <= d[key] <= tol):
            problems.append(f"projector_defects.{key} = {d.get(key)!r}")
    return problems


def check_compare(text: str, exp: dict) -> list[str]:
    """`subent compare`: verdict line, partial-sum table and JSON record."""
    problems: list[str] = []
    lines = text.split("\n")
    ca, cb = np.asarray(exp["ca"]), np.asarray(exp["cb"])
    if lines[0] != exp["verdict"]:
        problems.append(f"verdict line {lines[0]!r}, expected {exp['verdict']!r}")
    rows = [r.split() for r in lines[2: 2 + len(ca)]]
    if [r[:1] for r in rows] != [[str(i + 1)] for i in range(len(ca))]:
        problems.append("partial sum table has the wrong rows")
    else:
        table = np.array([[float(x) for x in r[1:3]] for r in rows])
        _close(problems, "table sums", table, np.stack([ca, cb], axis=1), 1e-11)
    record = _loads("\n".join(lines[2 + len(ca):]), problems)
    if record is None:
        return problems
    for key in ("a", "b", "verdict"):
        want = exp["verdict"] if key == "verdict" else exp[key]
        if record.get(key) != want:
            problems.append(f"record {key} = {record.get(key)!r}, expected {want!r}")
    _close(problems, "partial_sums_a", record.get("partial_sums_a", []), ca, STRING_TOL)
    _close(problems, "partial_sums_b", record.get("partial_sums_b", []), cb, STRING_TOL)
    a_ex = [i + 1 for i in range(len(ca)) if ca[i] > cb[i] + COMPARE_TOL]
    b_ex = [i + 1 for i in range(len(ca)) if cb[i] > ca[i] + COMPARE_TOL]
    if record.get("a_exceeds_at") != a_ex or record.get("b_exceeds_at") != b_ex:
        problems.append("exceedance lists disagree with the partial sums")
    return problems


def check_hydrogen(text: str, n: int) -> list[str]:
    """`subent hydrogen --n N`: order rule, closed-form strings and measures."""
    problems: list[str] = []
    doc = _loads(text, problems)
    if doc is None:
        return problems
    order = hydrogen_order(n)
    if doc.get("n") != n or doc.get("order") != order:
        problems.append("order does not follow the fine structure rule")
    if doc.get("strict") is not True:
        problems.append("chain is not reported strict")
    rank = {label: i + 1 for i, label in enumerate(order)}
    entries = doc.get("entries", [])
    expected = hydrogen_entries(n)
    if len(entries) != len(expected):
        problems.append(f"{len(entries)} entries, expected {len(expected)}")
        return problems
    limiting = doc.get("limiting", {})
    pairs = list(zip(entries, expected)) + [
        (limiting, {"label": "S_0", "string": limiting_string()})
    ]
    for got, want in pairs:
        label = want["label"]
        if got.get("label") != label or got.get("rank") != rank[label]:
            problems.append(f"{label}: label or rank wrong")
        for key in ("l", "branch", "dim"):
            if key in want and got.get(key) != want[key]:
                problems.append(f"{label}: {key} = {got.get(key)!r}")
        _close(problems, f"{label} string", got.get("schmidt_string", []),
               want["string"], STRING_TOL)
        m, w = got.get("measures", {}), measures_of(want["string"])
        for key in ("e_d", "e_i", "e_t"):
            _close(problems, f"{label} {key}", m.get(key, math.nan), w[key],
                   MEASURE_TOL)
        if len(problems) > 5:
            break
    return problems


_VERIFY_LINE = re.compile(
    r"^(\w+)\s+(pass|FAIL)\s+checks=(\d+)\s+max deviation=(\S+) \((.*)\)$"
)


def check_verify(text: str, exp: dict) -> list[str]:
    """`subent verify`: every family passes with the expected check count."""
    problems: list[str] = []
    lines = [l for l in text.split("\n") if l]
    want = exp["counts"]
    if len(lines) != len(want):
        return [f"{len(lines)} output lines, expected {len(want)}"]
    for line, (family, count) in zip(lines, want.items()):
        m = _VERIFY_LINE.match(line)
        if not m:
            problems.append(f"unparsed verify line {line!r}")
            continue
        if m.group(1) != family or m.group(2) != "pass" or int(m.group(3)) != count:
            problems.append(f"verify line {line!r}: expected {family} pass "
                            f"checks={count}")
        if not float(m.group(4)) <= STRING_TOL:
            problems.append(f"{family} max deviation {m.group(4)}")
    return problems


def check_emit(text: str, exp: dict, source: np.ndarray) -> list[str]:
    """An emitted document parses back to exactly the source array."""
    problems: list[str] = []
    doc = _loads(text, problems)
    if doc is None:
        return problems
    want_keys = ["label", "d1", "d2", exp["form"]]
    if list(doc) != want_keys:
        problems.append(f"keys {list(doc)}, expected {want_keys}")
        return problems
    if (doc["label"], doc["d1"], doc["d2"]) != (exp["label"], exp["d1"], exp["d2"]):
        problems.append("label or factorization changed")
    try:
        arr = np.array(doc[exp["form"]], dtype=float)
    except ValueError:
        return problems + ["entries are not a rectangular array of pairs"]
    want = np.stack([source.real, source.imag], axis=-1)
    if arr.shape != want.shape:
        problems.append(f"array shape {arr.shape}, expected {want.shape}")
    elif not np.array_equal(arr, want):
        bad = int(np.count_nonzero(arr != want))
        problems.append(f"{bad} entries differ from the source array")
    return problems


def check_chain(text: str, exp: dict) -> list[str]:
    """sort_chain's result, serialized by the worker, against the comparator."""
    problems: list[str] = []
    got = _loads(text, problems)
    if got is None:
        return problems
    for key in ("ordered", "labels", "ties", "incomparable"):
        if got.get(key) != exp[key]:
            problems.append(f"chain {key} differs from the partial-sum comparator")
    return problems


# --- perturbation self-test ---------------------------------------------------


_NUMBER = re.compile(r"(?<![\w.])-?\d+\.\d{6,}(?:e-?\d+)?")


def perturb(text: str, kind: str) -> str:
    """Corrupt an output in a way its oracle must notice."""
    if kind == "verify":
        return text.replace("pass", "FAIL", 1)
    if kind == "chain":
        doc = json.loads(text)
        if doc["ordered"]:
            doc["labels"][0], doc["labels"][-1] = doc["labels"][-1], doc["labels"][0]
        else:
            doc["incomparable"] = doc["incomparable"][1:]
        return json.dumps(doc)
    if kind == "compare":
        head, _, rest = text.partition("\n")
        swap = "incomparable" if head != "incomparable" else "equal"
        return swap + "\n" + rest
    # schmidt, hydrogen and emitted documents: nudge the first long float
    # (the first string entry, or the first array entry) in its 6th digit.
    m = _NUMBER.search(text)
    if m is None:
        return text + "x"
    value = float(m.group(0))
    new = repr(value * (1 + 1e-5) + 1e-5)
    return text[: m.start()] + new + text[m.end():]
