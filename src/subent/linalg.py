"""Dense complex linear algebra primitives.

Everything downstream works with plain ``numpy.ndarray`` objects of dtype
complex128.  The helpers here add the shape and accuracy checks the rest of
the package relies on; they do not try to be a general-purpose wrapper.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalError
from .tolerances import DROP_TOL, EIGENVALUE_SUM_TOL, HERMITICITY_TOL


class RankDeficiencyWarning(UserWarning):
    """Emitted when orthonormalization drops linearly dependent vectors."""


def as_array(a, name: str, dtype=np.complex128) -> np.ndarray:
    """`a` as an array of `dtype` (complex128 or float64); bools, strings
    and bytes, what numpy cannot convert, and what it would make real only
    by dropping imaginary parts are an InputError naming `name`."""
    kind = "complex" if dtype is np.complex128 else "real"
    try:
        m = np.asarray(a)
        if m.dtype.kind not in "bSU" and (kind == "complex" or m.dtype.kind != "c"):
            return m.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"{name} cannot be read as a {kind} array")


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex128 array with finite entries."""
    m = as_array(a, name)
    if m.ndim != 2:
        raise InputError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.size == 0:
        raise InputError(f"{name} must be non-empty")
    if not np.all(np.isfinite(m)):
        raise InputError(f"{name} contains non-finite entries")
    return m


def _component_labels(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray | None:
    """Connected components of the graph on n vertices with edges (rows, cols).

    Label propagation in both edge directions with one pointer jump per
    round (Shiloach & Vishkin, J. Algorithms 3, 57, 1982).  Labels only
    decrease and always name a vertex of their own component, so once the
    two ends of every edge share a label, each label is its component's
    least vertex.  Returns None when that has not happened within
    2 * bit_length(n) + 2 rounds.
    """
    lab = np.arange(n)
    for _ in range(2 * n.bit_length() + 2):
        lab = lab.copy()
        np.minimum.at(lab, rows, lab[cols])
        np.minimum.at(lab, cols, lab[rows])
        lab = lab[lab]
        if (lab[rows] == lab[cols]).all():
            return lab
    return None


class _Entries(NamedTuple):
    """The nonzero entries of a square complex matrix of side `side`: sorted
    flat indices, None when every entry is nonzero, and their values."""

    side: int
    nonzero: np.ndarray | None
    values: np.ndarray

    def dense(self) -> np.ndarray:
        """The matrix, read-only; a view of `values` when they are all of it."""
        m = self.values
        if self.nonzero is not None:
            m = np.zeros(self.side * self.side, dtype=np.complex128)
            m[self.nonzero] = self.values
        m = m.reshape(self.side, self.side)
        m.setflags(write=False)
        return m


def _entries_of(m: np.ndarray) -> _Entries:
    """The nonzero entries of the square complex matrix `m`."""
    nonzero = np.flatnonzero(m)
    if nonzero.size == m.size:
        return _Entries(m.shape[0], None, m.ravel())
    return _Entries(m.shape[0], nonzero, m.ravel()[nonzero])


def _numbered(index: np.ndarray, extent: int) -> tuple[np.ndarray, int]:
    """`index` (in [0, `extent`)) renumbered 0, 1, ... in increasing order,
    and how many values it holds.  Here and in `_blocks` integers are sorted
    in the narrowest type that holds them: numpy radix sorts up to 16 bits."""
    order = np.argsort(index.astype(np.min_scalar_type(extent)), kind="stable")
    s = index[order]
    new = np.empty(index.size, dtype=np.intp)
    new[order] = np.cumsum(np.concatenate(([0], s[1:] != s[:-1])))
    return new, int(new[order[-1]]) + 1


def _blocks(rows, cols, values, shape, square: bool) -> list[np.ndarray]:
    """The blocks of the matrix of `shape` with nonzero entries `values` at
    (`rows`, `cols`), one per connected component of their pattern, stacked
    as one (count, r, c) array per block shape, by r and then c, a stack's
    blocks by their least vertex; entries between blocks are zero.

    A `square` matrix has row k and column k as one vertex, so its blocks are
    diagonal and cover every index.  Otherwise rows and columns are separate
    vertices, and only those with a nonzero are in a block.  Blocks keep the
    order of their rows and columns.  Unsettled labels make one block.
    """
    n = n_r = shape[0]
    if not square:
        (rows, n_r), (cols, n_c) = _numbered(rows, shape[0]), _numbered(cols, shape[1])
        n = n_r + n_c
        cols = cols + n_r
    lab = _component_labels(rows, cols, n)
    lab = np.zeros(n, dtype=np.intp) if lab is None else lab
    # rows and columns per label; each block has a row, and the blocks are
    # ranked by shape, then by label
    r = np.bincount(lab[:n_r], minlength=n)
    c = r if square else np.bincount(lab[n_r:], minlength=n)
    labels = np.flatnonzero(r)
    labels = labels[np.lexsort((c[labels], r[labels]))]
    rank = np.empty(n, dtype=np.intp)
    rank[labels] = np.arange(labels.size)
    r, c, q = r[labels], c[labels], rank[lab]
    # each vertex's place among the rows (columns) of its block
    within = np.empty(n, dtype=np.intp)
    for lo, hi, size in [(0, n_r, r)] if square else [(0, n_r, r), (n_r, n, c)]:
        keys = q[lo:hi].astype(np.min_scalar_type(labels.size))
        order = np.argsort(keys, kind="stable") + lo
        within[order] = np.arange(hi - lo) - (np.cumsum(size) - size)[q[order]]
    # the blocks one after another in one buffer, cut into stacks by shape
    start = np.concatenate(([0], np.cumsum(r * c)))
    row_start = start[q[:n_r]] + within[:n_r] * c[q[:n_r]]
    buf = np.zeros(start[-1], dtype=np.complex128)
    buf[row_start[rows] + within[cols]] = values
    cuts = np.flatnonzero(np.diff(r) | np.diff(c)) + 1
    stacks = np.split(buf, start[cuts])
    return [s.reshape(-1, r[a], c[a]) for s, a in zip(stacks, [0, *cuts])]


def _spectrum(blocks: list[np.ndarray]) -> np.ndarray:
    """Descending eigenvalues of the Hermitian matrix with diagonal `blocks`,
    stacked as `_blocks` stacks them.  A Hermiticity defect over
    `HERMITICITY_TOL` is an InputError, each stack is symmetrized (the only
    place that does) and solved by one ``eigvalsh``, and an eigenvalue sum
    off the trace by a relative `EIGENVALUE_SUM_TOL` is a NumericalError."""
    adjoints = [b.conj().transpose(0, 2, 1) for b in blocks]
    defect = math.hypot(*(np.linalg.norm(b - a) for b, a in zip(blocks, adjoints)))
    if defect > HERMITICITY_TOL:
        raise InputError(
            f"matrix is not Hermitian: defect {defect:.3e} "
            f"exceeds tol {HERMITICITY_TOL:.3e}"
        )
    w = [np.linalg.eigvalsh((b + a) / 2.0).ravel() for b, a in zip(blocks, adjoints)]
    w = np.sort(np.concatenate(w))[::-1]
    trace = float(sum(np.trace(b, axis1=1, axis2=2).real.sum() for b in blocks))
    if abs(float(w.sum()) - trace) > EIGENVALUE_SUM_TOL * max(1.0, abs(trace)):
        raise NumericalError(
            f"eigenvalue sum {w.sum():.17g} disagrees with trace {trace:.17g}"
        )
    return np.ascontiguousarray(w)


def hermitian_eigenvalues(h) -> np.ndarray:
    """Real eigenvalues of the Hermitian matrix `h`, sorted descending.

    A matrix that is not square, or whose Hermiticity defect
    ``||h - h^dagger||_F`` exceeds `HERMITICITY_TOL`, is an InputError.  The
    eigenvalues are solved per block size of the connected blocks of `h`; an
    eigenvalue sum off the trace by more than a relative 1e-10, which would
    mean the decomposition itself went wrong, is a NumericalError.
    """
    h = as_matrix(h, "h")
    if h.shape[0] != h.shape[1]:
        raise InputError(f"matrix must be square, got shape {h.shape}")
    side, nonzero, values = _entries_of(h)
    if nonzero is None:
        return _spectrum([h[None]])
    return _spectrum(_blocks(*np.divmod(nonzero, side), values, h.shape, True))


def gram_schmidt(vectors) -> np.ndarray:
    """Orthonormalize a spanning set with classical Gram-Schmidt, run twice.

    Each vector is projected off all kept vectors at once, as two
    matrix-vector products, and the sweep is repeated once; two sweeps keep
    the result orthonormal to near machine precision even for nearly
    dependent inputs ("twice is enough": Giraud, Langou and Rozloznik,
    Comput. Math. Appl. 50, 2005).  A vector v whose residual norm falls
    below ``DROP_TOL * max(1, ||v||)`` is dropped, so that an exact
    dependency is dropped at any scale, and the rank reduction is reported
    through a ``RankDeficiencyWarning``.

    Parameters
    ----------
    vectors : iterable of array_like
        Non-empty collection of equal-length 1-D complex vectors.

    Returns
    -------
    numpy.ndarray
        Array of shape (k, dim) whose rows are orthonormal.
    """
    rows = [as_array(v, "vectors") for v in vectors]
    if not rows:
        raise InputError("gram_schmidt requires at least one vector")
    dim = rows[0].shape
    for v in rows:
        if v.ndim != 1:
            raise InputError("gram_schmidt expects 1-D vectors")
        if v.shape != dim:
            raise InputError(f"inconsistent vector lengths: {v.shape} vs {dim}")
        if not np.all(np.isfinite(v)):
            raise InputError("vector contains non-finite entries")

    q = np.empty((len(rows), dim[0]), dtype=np.complex128)
    kept = dropped = 0
    for v in rows:
        w = v.copy()
        for _ in range(2):
            block = q[:kept]
            w -= block.T @ (block.conj() @ w)
        norm = float(np.linalg.norm(w))
        if norm < DROP_TOL * max(1.0, float(np.linalg.norm(v))):
            dropped += 1
            continue
        q[kept] = w / norm
        kept += 1
    if not kept:
        raise InputError("no linearly independent vectors above the drop tolerance")
    if dropped:
        warnings.warn(
            f"gram_schmidt dropped {dropped} linearly dependent vector(s); "
            f"rank is {kept}",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    return q[:kept]
