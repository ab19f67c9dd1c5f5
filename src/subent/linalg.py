"""Dense complex linear algebra primitives.

Everything downstream works with plain ``numpy.ndarray`` objects of dtype
complex128.  The helpers here add the shape and accuracy checks the rest of
the package relies on; they do not try to be a general-purpose wrapper.
"""

from __future__ import annotations

import warnings
from itertools import pairwise

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
    if not np.isfinite(m).all():
        raise InputError(f"{name} contains non-finite entries")
    return m


def _component_labels(
    rows: np.ndarray, cols: np.ndarray, n: int, rounds: int | None = None
) -> np.ndarray | None:
    """Connected components of the graph on n vertices with edges (rows, cols).

    Label propagation in both edge directions with one pointer jump per
    round (Shiloach & Vishkin, J. Algorithms 3, 57, 1982).  Labels only
    decrease and always name a vertex of their own component, so once the
    two ends of every edge share a label, each label is its component's
    least vertex.  Returns None when that has not happened within `rounds`
    rounds, by default 2 * bit_length(n) + 2.  A round acts on each
    component alone and only by comparing its vertices, so a component
    settles in the same round, to its least vertex, beside any others.
    """
    lab = np.arange(n)
    for _ in range(2 * n.bit_length() + 2 if rounds is None else rounds):
        np.minimum.at(lab, rows, lab[cols])
        np.minimum.at(lab, cols, lab[rows])
        lab = lab[lab]
        if (lab[rows] == lab[cols]).all():
            return lab
    return None


def _numbered(index: np.ndarray, extent: int, masked: bool) -> tuple[np.ndarray, int]:
    """`index` (in [0, `extent`)) renumbered 0, 1, ... in increasing order,
    and how many values it holds; by a mask over the extent when `masked`.
    Here and in `_blocks` integers are sorted in the narrowest type that
    holds them: numpy radix sorts up to 16 bits."""
    if masked:
        number = np.zeros(extent, dtype=np.intp)
        number[index] = 1
        number = number.cumsum() - 1
        return number[index], int(number[-1]) + 1
    order = index.astype(np.min_scalar_type(extent)).argsort(kind="stable")
    s = index[order]
    new = np.empty(index.size, dtype=np.intp)
    new[order] = np.concatenate(([0], s[1:] != s[:-1])).cumsum()
    return new, int(new[order[-1]]) + 1


def _blocks(rows, cols, values, shape, square: bool, rounds: int | None = None):
    """The blocks of the matrix of `shape` with nonzero entries `values` at
    (`rows`, `cols`), one per connected component of their pattern, stacked
    as one (count, r, c) array per block shape, by r and then c, a stack's
    blocks by their least vertex; entries between blocks are zero.

    A `square` matrix has row k and column k as one vertex, so its blocks are
    diagonal and cover every index.  Otherwise rows and columns are separate
    vertices, and only those with a nonzero are in a block; a side no longer
    than the other (d1 d2 at most for a realigned A) is numbered by a mask.
    Blocks keep the order of their rows and columns.  Unsettled labels make
    one block.

    With `rounds`, for matrices laid one after another along the diagonal:
    the labels must settle within `rounds` rounds, or None is returned, and
    the stacks come with each block's least row, one array in stack order.
    """
    n = n_r = shape[0]
    if not square:
        first = rows
        rows, n_r = _numbered(rows, shape[0], shape[0] <= shape[1])
        cols, n_c = _numbered(cols, shape[1], shape[1] <= shape[0])
        n = n_r + n_c
        cols = cols + n_r
    lab = _component_labels(rows, cols, n, rounds)
    if lab is None:
        if rounds is not None:
            return None
        lab = np.zeros(n, dtype=np.intp)
    # rows and columns per label; each block has a row, and the blocks are
    # ranked by shape, then by label
    r = np.bincount(lab[:n_r], minlength=n)
    c = r if square else np.bincount(lab[n_r:], minlength=n)
    labels = r.nonzero()[0]
    labels = labels[np.lexsort((c[labels], r[labels]))]
    rank = np.empty(n, dtype=np.intp)
    rank[labels] = np.arange(labels.size)
    r, c, q = r[labels], c[labels], rank[lab]
    # each vertex's place in its block, from one stable sort by block: its
    # rows, then its columns, each in order
    size = r if square else r + c
    within = np.empty(n, dtype=np.intp)
    within[q.astype(np.min_scalar_type(labels.size)).argsort(kind="stable")] = (
        np.arange(n) - (size.cumsum() - size).repeat(size)
    )
    within[n_r:] -= r[q[n_r:]]
    # the blocks one after another in one buffer, sliced into stacks by shape
    start = np.concatenate(([0], (r * c).cumsum()))
    buf = np.zeros(start[-1], dtype=np.complex128)
    row_start = start[q[:n_r]] + within[:n_r] * c[q[:n_r]]
    buf[row_start[rows] + within[cols]] = values
    cuts = ((r[1:] != r[:-1]) | (c[1:] != c[:-1])).nonzero()[0] + 1
    ends = [0, *cuts.tolist(), r.size]
    stacks = [
        buf[start[a] : start[b]].reshape(-1, r[a], c[a]) for a, b in pairwise(ends)
    ]
    if rounds is None:
        return stacks
    if not square:  # a label is its block's least row, numbered
        least = np.empty(n_r, dtype=np.intp)
        least[rows] = first
        labels = least[labels]
    return stacks, labels


def _spectrum(blocks: list[np.ndarray], owners: list[np.ndarray] | None = None):
    """The descending eigenvalues of Hermitian matrices with diagonal
    `blocks`, stacked as `_blocks` stacks them: of one matrix, or of the
    matrices 0, 1, ... that `owners` names, one array per stack, each
    nondecreasing.  Returns them one matrix after another, and where each
    matrix's end.  Each stack is symmetrized (the only place that does) and
    solved by one ``eigvalsh``.  A matrix whose eigenvalue sum is off its
    trace by a relative `EIGENVALUE_SUM_TOL` is a NumericalError, the first
    such in order.  Each matrix's eigenvalues and traces are summed in the
    order they have alone, and `np.add.reduceat` adds a run the same
    wherever it lies, so a matrix gets the same verdict beside others as
    alone.
    """
    w = [np.linalg.eigvalsh((b + b.conj().swapaxes(1, 2)) / 2) for b in blocks]
    traces = [b.trace(axis1=1, axis2=2).real for b in blocks]
    if owners is None:
        w = np.ascontiguousarray(np.sort(np.concatenate([x.ravel() for x in w]))[::-1])
        ends = np.array([w.size])
        sums = np.add.reduceat(w, [0])
        trace = [float(sum(np.add.reduceat(t, [0])[0] for t in traces))]
    else:
        own = np.concatenate([o.repeat(x.shape[1]) for o, x in zip(owners, w)])
        w = np.concatenate([x.ravel() for x in w])
        # by owner, then descending
        w = w[np.lexsort((-w, own))]
        ends = np.bincount(own).cumsum()
        sums = np.add.reduceat(w, np.concatenate(([0], ends[:-1])))
        trace = np.zeros(ends.size)
        for o, t in zip(owners, traces):
            # a stack holds each owner's blocks in one run
            runs = np.concatenate(([0], (o[1:] != o[:-1]).nonzero()[0] + 1))
            trace[o[runs]] += np.add.reduceat(t, runs)
        trace = trace.tolist()
    for total, t in zip(sums.tolist(), trace):
        if abs(total - t) > EIGENVALUE_SUM_TOL * max(1.0, abs(t)):
            raise NumericalError(
                f"eigenvalue sum {total:.17g} disagrees with trace {t:.17g}"
            )
    return w, ends


def hermitian_eigenvalues(h) -> np.ndarray:
    """Real eigenvalues of the Hermitian matrix `h`, sorted descending.

    A matrix that is not square, or whose Hermiticity defect
    ``||h - h^dagger||_F`` exceeds `HERMITICITY_TOL`, is an InputError.  An
    eigenvalue sum off the trace by more than a relative 1e-10, which would
    mean the decomposition itself went wrong, is a NumericalError.
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
    return _spectrum([h[None]])[0]


# rows per panel of `gram_schmidt`
_PANEL = 32


def _project_off(w: np.ndarray, q: np.ndarray) -> None:
    """Subtract from the rows of `w`, in place, their components along the
    orthonormal rows of `q`: w -= (w q^dagger) q, with two matrix products.
    The conjugate is taken of `w`, so `q` is read where it lies."""
    w -= (w.conj() @ q.T).conj() @ q


def gram_schmidt(vectors) -> np.ndarray:
    """Orthonormalize a spanning set with reorthogonalized block classical
    Gram-Schmidt (BCGS2: Barlow and Smoktunowicz, Numer. Math. 123, 395,
    2013).

    The vectors are taken in panels of 32.  A panel is projected off every
    vector kept from earlier panels twice, each time by two matrix-matrix
    products.  Each of its vectors is then projected off the vectors kept so
    far in the panel, twice, as in classical Gram-Schmidt run twice ("twice
    is enough": Giraud, Langou and Rozloznik, Comput. Math. Appl. 50, 2005).
    When those sweeps cancel more than half of the vector's norm, which
    magnifies what the panel projections left along earlier panels, it is
    projected off the earlier panels once more.  A vector v whose
    residual, now against every vector kept so far, has norm below
    ``DROP_TOL * max(1, ||v||)`` is dropped, so that an exact dependency is
    dropped at any scale, and the rank reduction is reported through a
    ``RankDeficiencyWarning``.  Every kept vector is orthonormal to those
    kept before it to near machine precision, even for nearly dependent
    inputs.

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

    # kept vectors are written over rows already read, in order
    q = np.array(rows)
    kept = dropped = 0
    for start in range(0, len(rows), _PANEL):
        first, panel = kept, q[start : start + _PANEL]
        if first:
            for _ in range(2):
                _project_off(panel, q[:first])
        before = np.linalg.norm(panel, axis=1)
        for i in range(start, start + len(panel)):
            w = q[i : i + 1]
            for _ in range(2):
                _project_off(w, q[first:kept])
            norm = float(np.linalg.norm(w))
            least = DROP_TOL * max(1.0, float(np.linalg.norm(rows[i])))
            # cancellation in the panel magnifies what the panel projections
            # left along earlier panels; a projection only shrinks w, so one
            # already below `least` is dropped without it
            if least <= norm < before[i - start] / 2:
                _project_off(w, q[:first])
                norm = float(np.linalg.norm(w))
            if norm < least:
                dropped += 1
                continue
            q[kept] = w[0] / norm
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
