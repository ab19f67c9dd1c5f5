"""Dense complex linear algebra primitives.

Everything downstream works with plain ``numpy.ndarray`` objects of dtype
complex128.  The helpers here add the shape and accuracy checks the rest of
the package relies on; they do not try to be a general-purpose wrapper.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalError
from .tolerances import DROP_TOL, EIGENVALUE_SUM_TOL, HERMITICITY_TOL


class RankDeficiencyWarning(UserWarning):
    """Emitted when orthonormalization drops linearly dependent vectors."""


def as_array(a, name: str, dtype=np.complex128) -> np.ndarray:
    """`a` as an array of `dtype` (complex128 or float64); what numpy
    cannot convert, or would make real only by dropping imaginary parts, is
    an InputError naming `name`."""
    kind = "complex" if dtype is np.complex128 else "real"
    try:
        m = np.asarray(a, dtype=dtype if kind == "complex" else None)
        if kind == "complex" or m.dtype.kind != "c":
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
    decrease and always name a vertex of their own component, so labels
    that survive a round unchanged are the component minima, and labels
    that are all 0 already show a single component.  Returns None when the
    labels have not settled within 2 * bit_length(n) + 2 rounds.
    """
    lab = np.arange(n)
    for _ in range(2 * n.bit_length() + 2):
        new = lab.copy()
        np.minimum.at(new, rows, new[cols])
        np.minimum.at(new, cols, new[rows])
        new = new[new]
        if new.max() == 0 or np.array_equal(new, lab):
            return new
        lab = new
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


def _blocks(p: _Entries) -> list[np.ndarray]:
    """Diagonal blocks of the matrix whose nonzero entries are `p`, on the
    connected components of its pattern, scattered from the entries and
    stacked as one (count, size, size) array per block size; entries between
    blocks are zero.  The whole matrix is one (1, side, side) stack when the
    pattern is full, forms a single block, or its labels have not settled.
    """
    side, nonzero, values = p
    if nonzero is not None:
        rows, cols = np.divmod(nonzero, side)
        lab = _component_labels(rows, cols, side)
    if nonzero is None or lab is None or lab.max() == 0:
        return [p.dense()[None]]
    # the vertices by block size, then by block, each block labelled by its
    # least vertex; a block's own vertices stay in order
    size = np.bincount(lab)[lab]
    at = np.empty(side, dtype=np.intp)
    at[np.lexsort((lab, size))] = np.arange(side)
    blocks = []
    for s in np.unique(size):
        on = size[rows] == s
        start = np.count_nonzero(size < s)
        b = np.zeros((np.count_nonzero(size == s), s), dtype=np.complex128)
        b[at[rows[on]] - start, (at[cols[on]] - start) % s] = values[on]
        blocks.append(b.reshape(-1, s, s))
    return blocks


def hermitian_eigenvalues(h) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending.

    Parameters
    ----------
    h : array_like
        Square matrix with ``||h - h^dagger||_F`` at most `HERMITICITY_TOL`.

    Returns
    -------
    numpy.ndarray
        Real eigenvalues in non-increasing order.

    Raises
    ------
    InputError
        If `h` is not square or the Hermiticity defect exceeds the tolerance.
    NumericalError
        If the eigenvalue sum disagrees with the trace beyond a relative
        1e-10, which would mean the decomposition itself went wrong.
    """
    h = as_matrix(h, "h")
    if h.shape[0] != h.shape[1]:
        raise InputError(f"matrix must be square, got shape {h.shape}")
    defect = float(np.linalg.norm(h - h.conj().T))
    if defect > HERMITICITY_TOL:
        raise InputError(
            f"matrix is not Hermitian: defect {defect:.3e} "
            f"exceeds tol {HERMITICITY_TOL:.3e}"
        )
    # Symmetrize first so the solver sees an exactly Hermitian matrix.
    hs = (h + h.conj().T) / 2.0
    # one stacked solve per block size; entries between blocks are zero
    blocks = _blocks(_entries_of(hs))
    w = np.sort(np.concatenate([np.linalg.eigvalsh(b).ravel() for b in blocks]))[::-1]
    trace = float(np.trace(h).real)
    if abs(float(w.sum()) - trace) > EIGENVALUE_SUM_TOL * max(1.0, abs(trace)):
        raise NumericalError(
            f"eigenvalue sum {w.sum():.17g} disagrees with trace {trace:.17g}"
        )
    return np.ascontiguousarray(w)


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
