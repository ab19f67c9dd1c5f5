"""Shared test utilities and independent oracles.

The oracles here deliberately avoid the code paths used by the package:
eigenvalues come from the characteristic polynomial (Faddeev-LeVerrier
coefficients, mpmath root finding), and Schmidt coefficients of vectors are
recomputed from the partial trace of the full density matrix.
"""

from __future__ import annotations

import json
import math
import warnings
from json.encoder import encode_basestring_ascii

import mpmath
import numpy as np

from subent import (
    Check,
    Factorization,
    InputError,
    Projector,
    RankDeficiencyWarning,
    SpinLabel,
    SubspaceBasis,
    gram_schmidt,
    hydrogen_chain_expected,
    hydrogen_level,
    limiting_string,
    linalg,
    projector_from_basis,
    realign,
    schmidt_string,
    sort_chain,
    spin_projector,
)
from subent.io import SubspaceDocument, parse_subspace_document
from subent.tolerances import DROP_TOL, STRING_TOL


def char_poly_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix via its characteristic polynomial."""
    a = np.asarray(h, dtype=np.complex128)
    n = a.shape[0]
    coeffs = [mpmath.mpc(1)]
    m = np.zeros_like(a)
    c = 1.0 + 0.0j
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs.append(mpmath.mpc(c))
    roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=120)
    return np.sort(np.array([float(mpmath.re(r)) for r in roots]))[::-1]


def partial_trace_coefficients(v: np.ndarray, f: Factorization) -> np.ndarray:
    """Squared Schmidt coefficients of a unit vector from the partial trace."""
    rho = np.outer(v, v.conj())
    rho1 = np.zeros((f.d1, f.d1), dtype=np.complex128)
    for i in range(f.d1):
        for j in range(f.d1):
            for k in range(f.d2):
                rho1[i, j] += rho[i * f.d2 + k, j * f.d2 + k]
    w = np.sort(np.linalg.eigvalsh(rho1))[::-1]
    return w[: min(f.d1, f.d2)]


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_basis(
    rng: np.random.Generator, f: Factorization, size: int
) -> SubspaceBasis:
    raw = rng.standard_normal((size, f.dim)) + 1j * rng.standard_normal(
        (size, f.dim)
    )
    return SubspaceBasis(factorization=f, vectors=gram_schmidt(raw))


def permuted_block_basis(
    rng: np.random.Generator, f: Factorization, max_block: int = 4
) -> SubspaceBasis:
    """A basis whose projector is block diagonal under a random permutation
    of the product basis: blocks of 1 to `max_block` product basis vectors,
    each holding a random subspace of random rank (at least one nonzero)."""
    perm = rng.permutation(f.dim)
    vectors = []
    start = 0
    while start < f.dim:
        idx = perm[start : start + int(rng.integers(1, max_block + 1))]
        start += idx.size
        # the last block is nonzero if all before it were zero
        low = 0 if vectors or start < f.dim else 1
        rank = int(rng.integers(low, idx.size + 1))
        for column in random_unitary(rng, idx.size)[:, :rank].T:
            v = np.zeros(f.dim, dtype=np.complex128)
            v[idx] = column
            vectors.append(v)
    return SubspaceBasis(factorization=f, vectors=np.array(vectors))


def realigned_gram_eigenvalues_mp(p: Projector) -> np.ndarray:
    """Eigenvalues of A A^dagger at 50 digits, descending, where A is built
    entry by entry from its definition A[(i, j), (k, l)] = P[(i, k), (j, l)]
    / sqrt(dim), with no reshape or transpose."""
    d1, d2 = p.factorization.d1, p.factorization.d2
    with mpmath.workdps(50):
        a = mpmath.matrix(d1 * d1, d2 * d2)
        scale = mpmath.sqrt(p.dim)
        for i in range(d1):
            for j in range(d1):
                for k in range(d2):
                    for l in range(d2):
                        entry = complex(p.matrix[i * d2 + k, j * d2 + l])
                        a[i * d1 + j, k * d2 + l] = mpmath.mpc(entry) / scale
        w = mpmath.eighe(a * a.H, eigvals_only=True)
        return np.sort(np.array([float(x) for x in w]))[::-1]


def full_realignment_gram(p: Projector, side: int) -> np.ndarray:
    """The Gram of the whole realigned matrix, zero rows and columns kept:
    A A^dagger for side 1, A^dagger A for side 2."""
    a = realign(p)
    return a @ a.conj().T if side == 1 else a.conj().T @ a


def kept_whole(m: np.ndarray) -> bool:
    """Whether the square matrix `m` is solved whole: its pattern is full,
    or `linalg._blocks` keeps it as one block."""
    rows, cols = np.nonzero(m)
    if rows.size == m.size:
        return True
    blocks = linalg._blocks(rows, cols, m[rows, cols], m.shape, True)
    return [b.shape for b in blocks] == [(1, *m.shape)]


def stride_path_hermitian(rng: np.random.Generator, n: int = 64) -> np.ndarray:
    """A Hermitian matrix whose pattern is a path visiting the vertices in
    strides of 7, which label propagation cannot settle within its cap."""
    path = np.arange(n) * 7 % n
    h = np.zeros((n, n), dtype=np.complex128)
    h[path, path] = rng.standard_normal(n)
    values = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    h[path[:-1], path[1:]] = values
    h[path[1:], path[:-1]] = values.conj()
    return h


def tiles_upb() -> np.ndarray:
    """The five orthonormal product vectors of the Tiles unextendible
    product basis in 3 x 3 (Bennett et al., PRL 82, 5385, 1999), as rows."""
    e = np.eye(3)
    s = np.ones(3) / math.sqrt(3.0)
    pairs = [
        (e[0], (e[0] - e[1]) / math.sqrt(2.0)),
        ((e[0] - e[1]) / math.sqrt(2.0), e[2]),
        (e[2], (e[1] - e[2]) / math.sqrt(2.0)),
        ((e[1] - e[2]) / math.sqrt(2.0), e[0]),
        (s, s),
    ]
    return np.array([np.kron(a, b) for a, b in pairs], dtype=np.complex128)


def off_norm_projector() -> np.ndarray:
    """A matrix over 10x10 within every entrywise projector tolerance whose
    P / sqrt(dim) misses unit norm by 5e-9.

    With u the uniform unit vector it is (1 + 5e-9) u u^dagger
    - 5e-11 (I - u u^dagger), whose trace rounds to dim 1.
    """
    u = np.full(100, 0.1)
    uu = np.outer(u, u)
    return (1 + 5e-9) * uu - 5e-11 * (np.eye(100) - uu)


def random_distribution(rng: np.random.Generator, length: int) -> np.ndarray:
    p = rng.dirichlet(np.ones(length))
    return np.sort(p)[::-1]


def t_transform(rng: np.random.Generator, p: np.ndarray) -> np.ndarray:
    """One Robin Hood transfer: the result is majorized by the input."""
    p = np.sort(np.asarray(p, dtype=np.float64))[::-1]
    if p.size < 2 or p[0] - p[-1] < 1e-12:
        return p
    while True:
        i, j = sorted(rng.choice(p.size, size=2, replace=False))
        if p[i] - p[j] > 1e-12:
            break
    amount = rng.uniform(0.0, (p[i] - p[j]) / 2.0)
    out = p.copy()
    out[i] -= amount
    out[j] += amount
    return np.sort(out)[::-1]


def padded_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Two strings or raw arrays sorted descending, zero padded to one length."""
    rows = [np.asarray(getattr(s, "probs", s), dtype=np.float64) for s in (x, y)]
    n = max(r.size for r in rows)
    x, y = (np.sort(np.pad(r, (0, n - r.size)))[::-1] for r in rows)
    return x, y


def majorization_certificate(x, y, tol: float):
    """Witness for or against "x is majorized by y" within `tol`.

    Works on :func:`padded_pair`, of common length n.  When some partial
    sum of x exceeds y's by more than `tol`, returns (None, i) with i the
    first such index.  Otherwise returns (transforms, None): at most n - 1
    T-transforms (j, k, lam), each the map lam * I + (1 - lam) * (swap of
    entries j and k), whose product takes y to x (Hardy, Littlewood and
    Polya; Marshall, Olkin and Arnold, "Inequalities", lemma 2.B.1).  Each
    step takes k as the first entry short of x after the first entry above
    it, and j as the last entry above x before k, and moves mass from j to
    k until one of them matches x.  With a positive `tol` the result may
    miss x by up to `tol` plus the difference of the totals in any entry.
    """
    x, y = padded_pair(x, y)
    cx, cy = np.cumsum(x), np.cumsum(y)
    violated = np.flatnonzero(~(cx <= cy + tol))
    if violated.size:
        return None, int(violated[0])
    z, transforms = y.copy(), []
    while True:
        d = z - x
        surplus, short = np.flatnonzero(d > 0), np.flatnonzero(d < 0)
        later = short[short > surplus[0]] if surplus.size else short
        if not (surplus.size and later.size):
            return transforms, None
        k = later[0]
        j = surplus[surplus < k][-1]
        delta = min(d[j], -d[k])
        transforms.append((int(j), int(k), float(1.0 - delta / (z[j] - z[k]))))
        z[j], z[k] = z[j] - delta, z[k] + delta
        if delta == d[j]:
            z[j] = x[j]
        if delta == -d[k]:
            z[k] = x[k]


def apply_t_transforms(z: np.ndarray, transforms) -> np.ndarray:
    """z mapped by each T-transform in turn, as an explicit n x n matrix."""
    n = z.size
    for j, k, lam in transforms:
        swap = np.eye(n)
        swap[[j, k]] = swap[[k, j]]
        z = (lam * np.eye(n) + (1.0 - lam) * swap) @ z
    return z


def string_deviation(a, b) -> float:
    pa = np.asarray(getattr(a, "probs", a), dtype=np.float64)
    pb = np.asarray(getattr(b, "probs", b), dtype=np.float64)
    n = max(pa.size, pb.size)
    return float(
        np.max(np.abs(np.pad(pa, (0, n - pa.size)) - np.pad(pb, (0, n - pb.size))))
    )


def blocks_reference(rows, cols, values, shape, square: bool, settled: bool = True):
    """`linalg._blocks` by breadth-first search over plain Python lists.

    Vertices are the indices when `square`; otherwise rows and columns with
    an entry are separate vertices, rows first.  A component's blocks keep
    the order of its rows and columns, and the blocks are grouped into
    (count, r, c) stacks by shape, r then c, each stack by its blocks'
    least row.  Without `settled`, every vertex is one component.
    """
    rows, cols, values = list(map(int, rows)), list(map(int, cols)), list(values)
    if square:
        row_vertex = col_vertex = {k: k for k in range(shape[0])}
    else:
        row_vertex = {r: v for v, r in enumerate(sorted(set(rows)))}
        col_vertex = {c: len(row_vertex) + v for v, c in enumerate(sorted(set(cols)))}
    n = len(row_vertex) if square else len(row_vertex) + len(col_vertex)
    neighbours = [[] for _ in range(n)]
    for r, c in zip(rows, cols):
        neighbours[row_vertex[r]].append(col_vertex[c])
        neighbours[col_vertex[c]].append(row_vertex[r])
    component = [-1] * n
    for start in range(n):
        if component[start] >= 0:
            continue
        component[start], queue = start, [start]
        for v in queue:
            for u in neighbours[v]:
                if component[u] < 0:
                    component[u] = start
                    queue.append(u)
    if not settled:
        component = [0] * n
    members = {}
    for r, v in sorted(row_vertex.items()):
        members.setdefault(component[v], ([], []))[0].append(r)
    for c, v in sorted(col_vertex.items()):
        members[component[v]][1].append(c)
    dense = [[0j] * shape[1] for _ in range(shape[0])]
    for r, c, x in zip(rows, cols, values):
        dense[r][c] = complex(x)
    stacks = {}
    for least in sorted(members):
        rs, cs = members[least]
        block = [[dense[r][c] for c in cs] for r in rs]
        stacks.setdefault((len(rs), len(cs)), []).append(block)
    return [
        np.array(stacks[shape], dtype=np.complex128).reshape(-1, *shape)
        for shape in sorted(stacks)
    ]


def gram_schmidt_reference(vectors, kept_rows: list | None = None) -> np.ndarray:
    """Modified Gram-Schmidt, one vdot per kept vector and sweep, twice.

    The per-vector loop `gram_schmidt` ran before it projected against all
    kept vectors at once; same drop rule (residual below
    DROP_TOL * max(1, ||v||)) and warning.  The index of each kept vector
    is appended to `kept_rows` when it is given.
    """
    kept: list[np.ndarray] = []
    dropped = 0
    for row, v in enumerate(vectors):
        w = np.array(v, dtype=np.complex128)
        for _ in range(2):
            for u in kept:
                w = w - np.vdot(u, w) * u
        norm = float(np.linalg.norm(w))
        if norm < DROP_TOL * max(1.0, float(np.linalg.norm(v))):
            dropped += 1
            continue
        kept.append(w / norm)
        if kept_rows is not None:
            kept_rows.append(row)
    if not kept:
        raise InputError("no linearly independent vectors above the drop tolerance")
    if dropped:
        warnings.warn(
            f"gram_schmidt dropped {dropped} linearly dependent vector(s); "
            f"rank is {len(kept)}",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    return np.array(kept)


def exchange_subspace_reference(n: int, sign: int) -> np.ndarray:
    """Basis rows of the antisymmetric (sign -1) or symmetric (sign +1)
    subspace of C^n (x) C^n, filled pair by pair as the catalog once did."""
    count = n * (n + sign) // 2
    vectors = np.zeros((count, n * n), dtype=np.complex128)
    row = 0
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    if sign > 0:
        for k in range(n):
            vectors[row, k * n + k] = 1.0
            row += 1
    for k in range(n):
        for l in range(k + 1, n):
            vectors[row, k * n + l] = inv_sqrt2
            vectors[row, l * n + k] = inv_sqrt2 if sign > 0 else -inv_sqrt2
            row += 1
    return vectors


def _reference_pair(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in value)
    ):
        raise InputError(f"{where}: expected a [re, im] pair, got {value!r}")
    try:
        re, im = float(value[0]), float(value[1])
    except OverflowError:
        raise InputError(f"{where}: non-finite entry {value!r}") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise InputError(f"{where}: non-finite entry {value!r}")
    return complex(re, im)


def pair_matrix_reference(data: dict) -> np.ndarray:
    """The basis or projector of a subspace document, parsed entry by entry
    into a preallocated matrix, as `parse_subspace_document` did before it
    parsed whole arrays (an integer beyond the float range is reported as a
    non-finite entry).  Expects valid d1, d2 and exactly one matrix key.
    """
    dim = data["d1"] * data["d2"]
    if "basis" in data:
        rows, key, row_name = data["basis"], "basis", "basis vector"
        if not isinstance(rows, list) or not rows:
            raise InputError("basis must be a non-empty list of vectors")
    else:
        rows, key, row_name = data["projector"], "projector", "projector row"
        if not isinstance(rows, list) or len(rows) != dim:
            raise InputError(f"projector must be a list of {dim} rows")
    matrix = np.zeros((len(rows), dim), dtype=np.complex128)
    for a, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise InputError(f"{row_name} {a} must be a list of {dim} [re, im] pairs")
        for b, pair in enumerate(row):
            matrix[a, b] = _reference_pair(pair, f"{key}[{a}][{b}]")
    return matrix


def load_subspace_document_reference(path) -> SubspaceDocument:
    """`json.load` of a file, then `parse_subspace_document`: what
    `subent.io.load_subspace_document` accepts, and the text of each error
    it raises, with text nested past the recursion limit invalid JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    return parse_subspace_document(data)


def verify_hydrogen_reference(max_n: int) -> tuple[Check, ...]:
    """The checks of `verify_hydrogen`, with every entry of every level run
    through the pipeline afresh, as the sweep did before it kept one string
    per eigenspace."""
    checks = []
    for n in range(1, max_n + 1):
        level = hydrogen_level(n)
        for entry in level.entries:
            if entry.l == 0:
                basis = SubspaceBasis(
                    factorization=Factorization(1, 2),
                    vectors=np.eye(2, dtype=np.complex128),
                )
                numeric = schmidt_string(projector_from_basis(basis))
            else:
                numeric = schmidt_string(
                    spin_projector(SpinLabel(2 * entry.l), entry.branch)
                )
            dev = string_deviation(numeric, entry.string)
            name = f"hydrogen n={n} {entry.label} string"
            checks.append(Check(name, dev, STRING_TOL))
        chain = sort_chain(
            [(e.label, e.string) for e in level.entries]
            + [("S_0", limiting_string())]
        )
        order_ok = chain.ordered and chain.labels == hydrogen_chain_expected(n)
        checks.append(
            Check(f"hydrogen n={n} chain order", 0.0 if order_ok else 1.0, 0.0)
        )
    return tuple(checks)


# --- the record-by-record emitter ---------------------------------------------
#
# `dumps_json` as it was before list records were written from a per-shape
# template: one recursive `emit` call per value.  The differential tests hold
# the template route to these bytes and error messages.


def _format_float_reference(x: float, spec: str) -> str:
    if not math.isfinite(x):
        raise InputError(f"cannot serialize non-finite float {x!r}")
    out = format(float(x), spec)
    return "0" if out in ("-0", "0") else out


def _float_array_reference(a: np.ndarray, depth: int) -> str:
    bad = ~np.isfinite(a)
    if bad.any():
        raise InputError(f"cannot serialize non-finite float {a[bad][0].item()!r}")
    flat = (a + 0.0).ravel().tolist()
    n = a.shape[-1]
    if n <= 2:
        row = "[" + ", ".join(["%.17g"] * n) + "]"
        items = list(map(row.__mod__, zip(*[iter(flat)] * n)))
        axes = a.ndim - 1
    else:
        items = [format(x, ".17g") for x in flat]
        axes = a.ndim
    for axis in reversed(range(axes)):
        n = a.shape[axis]
        pad = "  " * (depth + axis)
        head, sep, tail = f"[\n{pad}  ", f",\n{pad}  ", f"\n{pad}]"
        items = [
            head + sep.join(items[i : i + n]) + tail for i in range(0, len(items), n)
        ]
    return items[0]


def dumps_json_reference(obj) -> str:
    """`subent.io.dumps_json`, one recursive call per value."""

    def emit(value, depth: int) -> str:
        kind = type(value)
        if kind is float:
            return _format_float_reference(value, ".17g")
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if kind is int:
            return str(value)
        if value is None:
            return "null"
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return _format_float_reference(float(value), ".17g")
        pad = "  " * depth
        inner = pad + "  "
        if isinstance(value, dict):
            if not value:
                return "{}"
            rows = [
                f"{inner}{encode_basestring_ascii(str(k))}: {emit(v, depth + 1)}"
                for k, v in value.items()
            ]
            return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
        floats = isinstance(value, np.ndarray) and value.dtype == np.float64
        if floats and value.ndim and value.size:
            return _float_array_reference(value, depth)
        if isinstance(value, (list, tuple, np.ndarray)):
            seq = list(value)
            if not seq:
                return "[]"
            flat = all(
                not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq
            )
            if flat and len(seq) <= 2:
                return "[" + ", ".join(emit(v, depth + 1) for v in seq) + "]"
            rows = [f"{inner}{emit(v, depth + 1)}" for v in seq]
            return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
        raise InputError(f"cannot serialize {type(value).__name__}")

    return emit(obj, 0) + "\n"
