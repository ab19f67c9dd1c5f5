"""Dense complex linear algebra primitives.

Everything downstream works with plain ``numpy.ndarray`` objects of dtype
complex128.  The helpers here add the shape and accuracy checks the rest of
the package relies on; they do not try to be a general-purpose wrapper.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import InputError, NumericalError
from .tolerances import DROP_TOL, EIGENVALUE_SUM_TOL, HERMITICITY_TOL


class RankDeficiencyWarning(UserWarning):
    """Emitted when orthonormalization drops linearly dependent vectors."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex128 array with finite entries."""
    try:
        m = np.asarray(a, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name} cannot be read as a complex array") from None
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


def _blocks(m: np.ndarray) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """Flat indices of the nonzero entries of the square matrix `m`, and its
    diagonal blocks on the connected components of that pattern, stacked as
    one (count, size, size) array per block size; entries between blocks
    are zero.  The blocks are None when the pattern is full, forms a single
    block, or its labels have not settled: the caller then takes `m` whole.
    """
    nonzero = np.flatnonzero(m != 0)
    if nonzero.size == m.size:
        return nonzero, None
    lab = _component_labels(*np.divmod(nonzero, m.shape[0]), m.shape[0])
    if lab is None or lab.max() == 0:
        return nonzero, None
    order = np.argsort(lab, kind="stable")
    sizes = np.bincount(lab)
    sizes = sizes[sizes > 0]
    starts = np.cumsum(sizes) - sizes
    blocks = []
    for size in np.flatnonzero(np.bincount(sizes)):
        idx = order[starts[sizes == size, None] + np.arange(size)]
        blocks.append(m[idx[:, :, None], idx[:, None, :]])
    return nonzero, blocks


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
    _, blocks = _blocks(hs)
    if blocks is None:
        w = np.linalg.eigvalsh(hs)[::-1]
    else:
        # one stacked solve per block size; entries between blocks are zero
        w = np.concatenate([np.linalg.eigvalsh(b).ravel() for b in blocks])
        w = np.sort(w)[::-1]
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
    try:
        rows = [np.asarray(v, dtype=np.complex128) for v in vectors]
    except (TypeError, ValueError, OverflowError):
        raise InputError("vectors cannot be read as complex vectors") from None
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
