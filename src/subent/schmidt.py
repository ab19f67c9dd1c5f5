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
        if np.any(p < 0):
            raise InputError(f"probs contains negative entries (min {p.min():.3e})")
        if np.any(np.diff(p) > 0):
            raise InputError("probs must be sorted in non-increasing order")
        total = float(p.sum())
        if not abs(total - 1.0) <= STRING_SUM_TOL:  # also rejects NaN
            raise InputError(
                f"probs sum to {total:.17g}, expected 1 within {STRING_SUM_TOL:g}"
            )
        p = np.ascontiguousarray(p)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "k", p.nonzero()[0].size)

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
        if not (math.isfinite(zero_threshold) and zero_threshold >= 0):
            raise InputError(
                f"zero_threshold must be finite and >= 0, got {zero_threshold!r}"
            )
        p = as_array(values, "probs", np.float64).ravel()
        if p.size == 0:
            raise InputError("probability string must be non-empty")
        if np.any(p < -NEGATIVE_EIGENVALUE_FLOOR):
            raise InputError(f"negative probability {p.min():.3e}")
        p = np.clip(p, 0.0, None)
        below = p < zero_threshold
        floored = float(p[below].sum())
        p[below] = 0.0
        p = np.sort(p)[::-1]
        if length is not None:
            length = as_count(length, "length")
            if length < p.size:
                raise InputError(f"length {length} shorter than {p.size} values")
            padded = np.zeros(length, dtype=np.float64)
            padded[: p.size] = p
            p = padded
        try:
            return cls(probs=p)
        except InputError as exc:
            if floored > 0:
                raise InputError(
                    f"zero_threshold {zero_threshold:g} floored weight "
                    f"{floored:.3e}: {exc}"
                ) from None
            raise


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


def measures(s: SchmidtString) -> Measures:
    """Evaluate all three measures on a Schmidt string."""
    if not isinstance(s, SchmidtString):
        raise InputError(f"measures needs a SchmidtString, got {type(s).__name__}")
    p = s.probs
    p1 = float(p[0])
    # p1 may exceed 1 by up to the string sum tolerance; clamp the radicand.
    e_d = math.sqrt(max(0.0, 2.0 * (1.0 - math.sqrt(p1))))
    nz = p[p > 0]
    e_i = float(-(nz * np.log2(nz)).sum()) + 0.0
    e_t = float(1.0 - (p * p).sum()) + 0.0
    return Measures(e_d=e_d, e_i=e_i, e_t=max(e_t, 0.0))


def realign(p: Projector) -> np.ndarray:
    """Realigned matrix A of P / sqrt(dim V), shape (d1^2, d2^2).

    Row (i, j) and column (k, l) of A hold the entry of P at row i*d2+k,
    column j*d2+l, scaled by 1/sqrt(dim V).  Realignment only permutes
    entries, so A is a unit vector because P / sqrt(dim V) is, which
    projector validation checks.
    """
    d1, d2 = p.factorization.d1, p.factorization.d2
    a = p.matrix.reshape(d1, d2, d1, d2)
    return a.transpose(0, 2, 1, 3).reshape(d1 * d1, d2 * d2) / math.sqrt(p.dim)


def schmidt_string(
    p: Projector, zero_threshold: float = DEFAULT_ZERO_THRESHOLD
) -> SchmidtString:
    """Schmidt string of a subspace projector.

    Eigenvalues are taken from the smaller Gram matrix of each block of the
    realigned matrix; entries below `zero_threshold` are floored to exact
    zeros before the Schmidt rank is counted.
    """
    f = p.factorization
    _, nonzero, values = p._entries
    if nonzero is None:
        blocks = [realign(p)[None]]
    else:
        # P[(i, k), (j, l)] is A[(i, j), (k, l)] times sqrt(dim V)
        (i, k), (j, l) = (np.divmod(x, f.d2) for x in np.divmod(nonzero, f.dim))
        entries = (i * f.d1 + j, k * f.d2 + l, values / math.sqrt(p.dim))
        blocks = _blocks(*entries, (f.d1**2, f.d2**2), False)
    # each stack's smaller Gram takes its place, so A is freed before the solve
    blocks = [(b, b.conj().transpose(0, 2, 1)) for b in blocks]
    blocks = [b @ h if b.shape[1] <= b.shape[2] else h @ b for b, h in blocks]
    w = _spectrum(blocks)
    # The Gram matrices are positive semidefinite, so an eigenvalue below
    # the clamping floor means the eigensolver lost accuracy.
    if w[-1] < -NEGATIVE_EIGENVALUE_FLOOR:
        raise NumericalError(
            f"eigenvalue {w[-1]:.3e} below the "
            f"{-NEGATIVE_EIGENVALUE_FLOOR:g} clamping floor"
        )
    return SchmidtString.from_probs(
        w, length=f.schmidt_length, zero_threshold=zero_threshold
    )


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
