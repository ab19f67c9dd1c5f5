"""Operator Schmidt decompositions of subspace projectors.

A subspace V of H1 (x) H2 with projector P is summarized by the Schmidt
string of the normalized operator P / sqrt(dim V): the descending squared
Schmidt coefficients of its expansion in product operator bases.  The string
is a probability distribution of length min(d1^2, d2^2), and every
entanglement quantity in this package is a function of it.

The decomposition is computed by realigning P into the d1^2 x d2^2 matrix A
with entries

    A[(i, j), (k, l)] = P[(i, k), (j, l)] / sqrt(dim V)

where (i, j) indexes pairs of H1 basis labels row-major and (k, l) pairs of
H2 labels.  Squared singular values of A form the string; they are obtained
as eigenvalues of the smaller of the two Gram matrices A A^dagger, A^dagger A,
which are the reduced states of P / sqrt(dim V) viewed as a unit vector in
operator space.

A symmetry that makes P block diagonal (total m, U (x) U invariance) also
makes A block sparse: its nonzero rows and columns fall into connected
blocks, and the string is the union of the blocks' squared singular values.
So a P with zero entries is realigned from the nonzero entries its
projector keeps (the catalog builders make only those, and a dense P is
scanned once, when it is validated), split into those blocks, and each
block's smaller Gram matrix is solved.  A P with no zero entry is realigned
whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .linalg import _blocks, _spectrum, as_array
from .spaces import Factorization, Projector, as_count
from .tolerances import (
    DEFAULT_ZERO_THRESHOLD,
    NEGATIVE_EIGENVALUE_FLOOR,
    STRING_SUM_TOL,
    VECTOR_NORM_TOL,
)


@dataclass(frozen=True, eq=False)
class SchmidtString:
    """Descending probability string of squared Schmidt coefficients.

    `probs` has the full factorization length min(d1^2, d2^2), padded with
    exact zeros past the first `k` positive entries; `k`, the Schmidt rank,
    is counted from `probs`.
    """

    probs: np.ndarray
    k: int = field(init=False)

    def __post_init__(self) -> None:
        p = as_array(self.probs, "probs", np.float64)
        if p.ndim != 1 or p.size == 0:
            raise InputError("probs must be a non-empty 1-D array")
        (row,) = self._rows(p[None])  # checked as a stack of one row
        self._adopt(np.ascontiguousarray(p), row.k)

    def _adopt(self, p: np.ndarray, k: int) -> "SchmidtString":
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "k", k)
        return self

    @classmethod
    def _rows(cls, stack: np.ndarray) -> list["SchmidtString"]:
        """One string per row of an (m, L) stack, each a read-only view; a bad
        row is the InputError the constructor gives for that row alone."""
        negative = stack < 0
        if negative.any():
            low = stack[negative.any(axis=1).argmax()].min()
            raise InputError(f"probs contains negative entries (min {low:.3e})")
        if (stack[:, 1:] > stack[:, :-1]).any():
            raise InputError("probs must be sorted in non-increasing order")
        totals = stack.sum(axis=1)
        off = ~(abs(totals - 1.0) <= STRING_SUM_TOL)  # also catches NaN
        if off.any():
            raise InputError(
                f"probs sum to {totals[off.argmax()]:.17g}, expected 1 within "
                f"{STRING_SUM_TOL:g}"
            )
        stack = np.ascontiguousarray(stack)
        ks = (stack != 0).sum(axis=1).tolist()
        return [cls.__new__(cls)._adopt(p, k) for p, k in zip(stack, ks)]

    def __len__(self) -> int:
        return int(self.probs.size)

    @classmethod
    def from_probs(
        cls,
        values,
        *,
        length: int | None = None,
        zero_threshold: float = 0.0,
    ) -> "SchmidtString":
        """Build a string from raw probabilities.

        Clamps values down to -1e-10 to zero and rejects anything more
        negative, floors entries below `zero_threshold` to exact zeros, sorts
        descending, and right-pads with zeros to `length` when given.  The
        result must sum to 1; it is never renormalized.
        """
        p = as_array(values, "probs", np.float64).ravel()
        if p.size == 0:
            raise InputError("probability string must be non-empty")
        if (p < -NEGATIVE_EIGENVALUE_FLOOR).any():
            raise InputError(f"negative probability {p.min():.3e}")
        size = p.size if length is None else as_count(length, "length")
        if size < p.size:
            raise InputError(f"length {size} shorter than {p.size} values")
        return cls._floored(np.sort(p)[::-1], [(0, p.size)], [size], zero_threshold)[0]

    @classmethod
    def _floored(
        cls, w: np.ndarray, runs: list, lengths: list[int], zero_threshold: float
    ) -> list["SchmidtString"]:
        """One string per run (start, end) of `w`, each descending:
        clamped at zero, floored to exact zeros below `zero_threshold` (which
        keeps it descending) and padded with zeros to its length in
        `lengths`.  Runs of one length are checked as one stack; when one
        fails, the first failing run in order is the InputError it gives
        alone, naming the weight floored from it."""
        if not (math.isfinite(zero_threshold) and zero_threshold >= 0):
            raise InputError(
                f"zero_threshold must be finite and >= 0, got {zero_threshold!r}"
            )
        # + 0.0 writes -0.0 as 0.0, so the place of zeros that compare equal
        # changes no bit
        p = np.maximum(w, 0.0) + 0.0
        q = np.where(p < zero_threshold, 0.0, p)
        rows = [np.zeros(size) for size in lengths]
        groups: dict[int, list[int]] = {}
        for i, ((a, b), row) in enumerate(zip(runs, rows)):
            row[: b - a] = q[a:b]
            groups.setdefault(row.size, []).append(i)
        strings: list = [None] * len(rows)
        try:
            for at in groups.values():
                for i, string in zip(at, cls._rows(np.array([rows[i] for i in at]))):
                    strings[i] = string
        except InputError:
            for (a, b), row in zip(runs, rows):
                try:
                    cls._rows(row[None])
                except InputError as exc:
                    floored = float(p[a:b][p[a:b] < zero_threshold].sum())
                    if floored > 0:
                        raise InputError(
                            f"zero_threshold {zero_threshold:g} floored weight "
                            f"{floored:.3e}: {exc}"
                        ) from None
                    raise
            raise
        return strings


@dataclass(frozen=True)
class Measures:
    """The three entanglement measures of a Schmidt string.

    e_d: distance measure sqrt(2 (1 - sqrt(p_1))), range [0, sqrt(2)].
    e_i: Shannon entropy of the string in bits, range [0, log2 min(d1^2, d2^2)].
    e_t: linear entropy 1 - sum p^2, range [0, 1).
    """

    e_d: float
    e_i: float
    e_t: float


def _measures_of(strings: list[SchmidtString]) -> list[tuple[float, float, float]]:
    """(e_d, e_i, e_t) of each string, one stack per string length and rank."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, s in enumerate(strings):
        groups.setdefault((s.probs.size, s.k), []).append(i)
    found: list = [None] * len(strings)
    for (_, k), at in groups.items():
        stack = np.array([strings[i].probs for i in at])
        # p1 may exceed 1 by up to the string sum tolerance; clamp the radicand.
        e_d = np.sqrt(np.maximum(2.0 * (1.0 - np.sqrt(stack[:, 0])), 0.0))
        e_t = np.maximum(1.0 - (stack * stack).sum(axis=1), 0.0)
        # the entropy sums the k positive entries alone: the trailing zeros
        # would regroup the pairwise sum and move last bits
        nz = stack[:, :k]
        e_i = 0.0 - (nz * np.log2(nz)).sum(axis=1)  # 0.0, never -0.0
        for i, m in zip(at, zip(e_d.tolist(), e_i.tolist(), e_t.tolist())):
            found[i] = m
    return found


def measures(s: SchmidtString) -> Measures:
    """Evaluate all three measures on a Schmidt string."""
    if not isinstance(s, SchmidtString):
        raise InputError(f"measures needs a SchmidtString, got {type(s).__name__}")
    return Measures(*_measures_of([s])[0])


def realign(p: Projector) -> np.ndarray:
    """Realigned matrix A of P / sqrt(dim V), shape (d1^2, d2^2).

    Row (i, j) and column (k, l) of A hold the entry of P at row i*d2+k,
    column j*d2+l, scaled by 1/sqrt(dim V).  Realignment only permutes
    entries, so A is a unit vector because P / sqrt(dim V) is, which
    projector validation checks.  P is read from its entries, so a
    projector built from them keeps no dense copy.
    """
    d1, d2 = p.factorization.d1, p.factorization.d2
    a = p._entries.dense().reshape(d1, d2, d1, d2)
    return a.transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2) / math.sqrt(p.dim)


def schmidt_string(
    p: Projector, zero_threshold: float = DEFAULT_ZERO_THRESHOLD
) -> SchmidtString:
    """Schmidt string of a subspace projector.

    Eigenvalues are taken from the smaller Gram matrix of each block of the
    realigned matrix; entries below `zero_threshold` are floored to exact
    zeros before the Schmidt rank is counted.
    """
    return _spectra([p], zero_threshold)[0]


# nonzero entries per chunk of `_spectra`, which bounds what a chunk holds
# at once; the largest default `verify` sweep, spin, takes 2,580
_CHUNK = 2**13


def _spectra(items, zero_threshold: float = DEFAULT_ZERO_THRESHOLD) -> list:
    """The Schmidt string of each Projector of `items` and the descending
    eigenvalues of each Hermitian matrix held as `_Entries`, in order.

    Items are taken in chunks of at most `_CHUNK` nonzero entries (or of
    one larger item), so `items` may be a generator that builds them.  A
    chunk is split into blocks by one `_blocks` call per kind, and each
    stack of blocks of one shape gets one Gram and one eigensolve.  Each
    item gets the result, checks and error it gets alone: a projector's
    eigenvalue sum against its own trace, and its own clamping floor.
    """
    found: list = []
    chunk: list = []
    size = 0
    for item in items:
        n = (item._entries if isinstance(item, Projector) else item).values.size
        if chunk and size + n > _CHUNK:
            found += _chunk(chunk, zero_threshold)
            chunk, size = [], 0
        chunk.append(item)
        size += n
    return found + _chunk(chunk, zero_threshold) if chunk else found


def _laid_out(kind: list, square: bool):
    """Rows, columns and values of the matrices of `kind`, (index, item,
    flat indices, values) each, laid one after another along the diagonal:
    the realigned A of projectors, or Hermitian matrices when `square`; and
    the shape, and the first row of each."""
    rows, cols, values, shapes = [], [], [], []
    for _, item, flat, v in kind:
        if square:
            r, c = np.divmod(flat, item.side)
            rows.append(r)
            cols.append(c)
            values.append(v)
            shapes.append((item.side, item.side))
            continue
        f = item.factorization
        # P[(i, k), (j, l)] is A[(i, j), (k, l)] times sqrt(dim V)
        i, k, j, l = np.unravel_index(flat, (f.d1, f.d2, f.d1, f.d2))
        rows.append(i * f.d1 + j)
        cols.append(k * f.d2 + l)
        values.append(v / math.sqrt(item.dim))
        shapes.append((f.d1**2, f.d2**2))
    if len(kind) == 1:
        return rows[0], cols[0], values[0], shapes[0], [0]
    counts = [v.size for v in values]
    ends = np.cumsum(shapes, axis=0)
    leads = ends - shapes
    rows = np.concatenate(rows) + leads[:, 0].repeat(counts)
    cols = np.concatenate(cols) + leads[:, 1].repeat(counts)
    return rows, cols, np.concatenate(values), tuple(ends[-1].tolist()), leads[:, 0]


def _chunk(items: list, zero_threshold: float) -> list:
    """`_spectra` of one chunk."""
    many = len(items) > 1
    # A of a projector with no zero entry is one block; the other projectors'
    # A and the Hermitian matrices are split, A first
    stacks: list[np.ndarray] = []
    owners: list[np.ndarray] = []
    kinds: dict[bool, list] = {False: [], True: []}
    for i, item in enumerate(items):
        projector = isinstance(item, Projector)
        side, flat, values = item._entries if projector else item
        if flat is None and projector:
            stacks.append(realign(item)[None])
            owners.append(np.array([i]))
            continue
        flat = np.arange(side * side) if flat is None else flat
        kinds[not projector].append((i, item, flat, values))
    for square, kind in kinds.items():
        if kind and not many:
            stacks += _blocks(*_laid_out(kind, square)[:4], square)
        elif kind:
            rows, cols, values, shape, leads = _laid_out(kind, square)
            # Alone, an item's labels get 2 bit_length(n) + 2 rounds, n its
            # vertices: its side, or at least 2 sqrt(m) for m entries of A.
            # Labels that settle within the fewest rounds any item gets
            # alone split each item as alone.
            n = min(e.side if square else 2 * math.isqrt(v.size) for _, e, _, v in kind)
            split = _blocks(rows, cols, values, shape, square, 2 * n.bit_length() + 2)
            if split is None:
                return [x for item in items for x in _chunk([item], zero_threshold)]
            blocks, first = split
            owner = np.array([i for i, *_ in kind])
            owner = owner[np.searchsorted(leads, first, side="right") - 1]
            stacks += blocks
            owners += np.split(owner, np.cumsum([len(b) for b in blocks])[:-1])
        if not square:
            grams = len(stacks)
    # each A stack's smaller Gram takes its place, so A is freed before the
    # solve
    stacks[:grams] = [
        b @ h if b.shape[1] <= b.shape[2] else h @ b
        for b, h in ((b, b.conj().transpose(0, 2, 1)) for b in stacks[:grams])
    ]
    w, ends = _spectrum(stacks, owners if many else None)
    runs = list(zip([0, *ends[:-1].tolist()], ends.tolist()))
    found: list = [w[a:b] for a, b in runs]
    at = [i for i, item in enumerate(items) if isinstance(item, Projector)]
    # The Gram matrices are positive semidefinite, so an eigenvalue below
    # the clamping floor means the eigensolver lost accuracy.
    for i in at:
        if found[i][-1] < -NEGATIVE_EIGENVALUE_FLOOR:
            raise NumericalError(
                f"eigenvalue {found[i][-1]:.3e} below the "
                f"{-NEGATIVE_EIGENVALUE_FLOOR:g} clamping floor"
            )
    strings = SchmidtString._floored(
        w,
        [runs[i] for i in at],
        [items[i].factorization.schmidt_length for i in at],
        zero_threshold,
    )
    for i, string in zip(at, strings):
        found[i] = string
    return found


def vector_schmidt(v, factorization: Factorization) -> np.ndarray:
    """Squared Schmidt coefficients of a unit vector in H1 (x) H2.

    The vector must be normalized to within 1e-8; it is renormalized exactly
    before decomposition, so the returned coefficients sum to 1 at machine
    precision.  Returned descending, length min(d1, d2).
    """
    vec = as_array(v, "vector").ravel()
    if vec.size != factorization.dim:
        raise InputError(
            f"vector length {vec.size} does not match composite dimension "
            f"{factorization.dim}"
        )
    if not np.all(np.isfinite(vec)):
        raise InputError("vector contains non-finite entries")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > VECTOR_NORM_TOL:
        raise InputError(
            f"vector norm {norm:.17g} deviates from 1 beyond {VECTOR_NORM_TOL:g}"
        )
    m = (vec / norm).reshape(factorization.d1, factorization.d2)
    s = np.linalg.svd(m, compute_uv=False)
    return s * s


def pure_subspace_string(
    coefficients,
    factorization: Factorization,
    zero_threshold: float = DEFAULT_ZERO_THRESHOLD,
) -> SchmidtString:
    """Schmidt string of the 1-D subspace spanned by a vector.

    Takes the vector's squared Schmidt coefficients (as from
    :func:`vector_schmidt`); the projector string is then all pairwise
    products, sorted descending and padded to min(d1^2, d2^2).
    """
    c = as_array(coefficients, "coefficients", np.float64).ravel()
    if c.size == 0:
        raise InputError("coefficient list must be non-empty")
    if c.size > min(factorization.d1, factorization.d2):
        raise InputError(
            f"{c.size} coefficients exceed min(d1, d2) = "
            f"{min(factorization.d1, factorization.d2)}"
        )
    if np.any(c < -NEGATIVE_EIGENVALUE_FLOOR):
        raise InputError(f"negative coefficient {c.min():.3e}")
    c = np.clip(c, 0.0, None)
    total = float(c.sum())
    if abs(total - 1.0) > VECTOR_NORM_TOL:
        raise InputError(
            f"coefficients sum to {total:.17g}, expected 1 within {VECTOR_NORM_TOL:g}"
        )
    c = c / total
    return SchmidtString.from_probs(
        np.outer(c, c),
        length=factorization.schmidt_length,
        zero_threshold=zero_threshold,
    )
