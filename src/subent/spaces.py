"""Bipartite factorizations, subspace bases and projectors.

The composite space H1 (x) H2 is flattened row-major with the H1 index slow:
the product basis vector e_i (x) e_k lives at composite index ``i * d2 + k``.
Every matrix in this module is expressed in that product basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .linalg import _blocks, as_matrix
from .tolerances import (
    ORTHONORMALITY_TOL,
    PROJECTOR_HERMITICITY_TOL,
    PROJECTOR_IDEMPOTENCY_TOL,
    PROJECTOR_TRACE_TOL,
    REALIGN_NORM_TOL,
)


def as_count(value, name: str, least: int = 1) -> int:
    """`value` as an int when it is a Python or numpy integer of at least
    `least`; bools are not integers here."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or value < least
    ):
        raise InputError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


class _Fresh(np.ndarray):
    """A complex128 C-ordered matrix that a builder made for one Projector
    and keeps no other reference to: the Projector adopts it, not a copy."""


def _freeze(a: np.ndarray) -> np.ndarray:
    if type(a) is _Fresh:
        out = a.view(np.ndarray)
    else:
        # a private copy: the caller's array stays writable, and writing to
        # it cannot change what was validated
        out = np.array(a, dtype=np.complex128, order="C", copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Factorization:
    """Tensor factorization of a composite space into d1 (x) d2."""

    d1: int
    d2: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "d1", as_count(self.d1, "d1"))
        object.__setattr__(self, "d2", as_count(self.d2, "d2"))

    @property
    def dim(self) -> int:
        """Dimension of the composite space."""
        return self.d1 * self.d2

    @property
    def schmidt_length(self) -> int:
        """Length of Schmidt strings over this factorization: min(d1^2, d2^2)."""
        return min(self.d1 ** 2, self.d2 ** 2)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a subspace, stored as rows of `vectors`.

    Construction validates orthonormality: the Gram matrix must equal the
    identity entrywise to within 1e-10.  Raw spanning sets should go through
    :func:`subent.linalg.gram_schmidt` first.
    """

    factorization: Factorization
    vectors: np.ndarray

    def __post_init__(self) -> None:
        v = as_matrix(self.vectors, "vectors")
        if v.shape[1] != self.factorization.dim:
            raise InputError(
                f"vectors have length {v.shape[1]}, expected "
                f"{self.factorization.dim} for factorization "
                f"{self.factorization.d1}x{self.factorization.d2}"
            )
        if not 1 <= v.shape[0] <= self.factorization.dim:
            raise InputError(
                f"basis size {v.shape[0]} out of range [1, {self.factorization.dim}]"
            )
        gram = v @ v.conj().T
        defect = float(np.max(np.abs(gram - np.eye(v.shape[0]))))
        if defect > ORTHONORMALITY_TOL:
            raise InputError(
                f"basis is not orthonormal (Gram defect {defect:.3e}); "
                "orthonormalize with gram_schmidt first"
            )
        object.__setattr__(self, "vectors", _freeze(v))

    @property
    def dim(self) -> int:
        """Dimension of the spanned subspace."""
        return self.vectors.shape[0]


@dataclass(frozen=True)
class ProjectorReport:
    """Measured defects of a candidate projector matrix.

    `hermiticity` and `idempotency` are max-abs entrywise defects of
    ``P - P^dagger`` and ``P @ P - P``; `trace` is ``|Tr(P) - dim|``;
    `norm` is ``| ||P||_F / sqrt(dim) - 1 |``, the distance of P / sqrt(dim)
    from a unit vector in operator space.
    """

    hermiticity: float
    idempotency: float
    trace: float
    dim: int
    passes: bool
    norm: float
    # the nonzero pattern validation found, which realignment reads
    _nonzero: np.ndarray | None = field(default=None, repr=False, compare=False)


def validate_projector(p, dim: int | None = None) -> ProjectorReport:
    """Check a square matrix against the orthogonal projector contract.

    A given `dim` must be an integer >= 0; when it is omitted it is
    inferred as the rounded real trace.  The report passes when Hermiticity
    and idempotency defects are at most 1e-10 entrywise, the trace is within
    1e-8 of `dim`, P / sqrt(dim) has norm within 1e-10 of 1, and `dim` is at
    least 1.  A :class:`Projector` was validated when it was built; its
    :meth:`Projector.report` holds the result.

    The defects are measured on the nonzero entries: the norm over them,
    Hermiticity over the pairs (P[r, c], P[c, r]) with either entry nonzero,
    idempotency on the connected blocks of the nonzero pattern.  The values
    are those of the dense ``P - P^dagger`` and ``P @ P - P``.
    """
    matrix = as_matrix(p, "projector")
    if matrix.shape[0] != matrix.shape[1]:
        raise InputError(f"projector must be square, got shape {matrix.shape}")
    if dim is None:
        dim = int(round(float(np.trace(matrix).real)))
    else:
        dim = as_count(dim, "dim", least=0)
    nonzero, blocks = _blocks(matrix)
    if blocks is None:
        values = matrix.ravel()
        hermiticity = float(np.max(np.abs(matrix - matrix.conj().T)))
        idempotency = float(np.max(np.abs(matrix @ matrix - matrix)))
    else:
        rows, cols = np.divmod(nonzero, matrix.shape[0])
        values = matrix[rows, cols]
        hermiticity = float(
            np.max(np.abs(values - matrix[cols, rows].conj()), initial=0.0)
        )
        # an entry of P @ P between two blocks is a sum of exact zeros, as
        # is the entry of P
        idempotency = max(float(np.max(np.abs(b @ b - b))) for b in blocks)
    trace = float(abs(complex(np.trace(matrix)) - dim))
    norm = math.inf
    if dim >= 1:
        norm = abs(float(np.linalg.norm(values)) / math.sqrt(dim) - 1.0)
    passes = (
        hermiticity <= PROJECTOR_HERMITICITY_TOL
        and idempotency <= PROJECTOR_IDEMPOTENCY_TOL
        and trace <= PROJECTOR_TRACE_TOL
        and norm <= REALIGN_NORM_TOL
        and dim >= 1
    )
    return ProjectorReport(hermiticity, idempotency, trace, dim, passes, norm, nonzero)


@dataclass(frozen=True)
class Projector:
    """Validated orthogonal projector onto a `dim`-dimensional subspace.

    Construction runs :func:`validate_projector` once on the frozen matrix
    and refuses matrices that fail it, so holding a `Projector` is proof of
    validity.  The measured defects are kept and returned by :meth:`report`.
    """

    factorization: Factorization
    matrix: np.ndarray
    dim: int
    _report: ProjectorReport = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dim = as_count(self.dim, "dim")
        m = _freeze(self.matrix)
        expected = self.factorization.dim
        if m.shape != (expected, expected):
            raise InputError(
                f"projector shape {m.shape} does not match factorization "
                f"{self.factorization.d1}x{self.factorization.d2}"
            )
        report = validate_projector(m, dim=dim)
        if not report.passes:
            raise InputError(
                "matrix fails projector validation: "
                f"hermiticity={report.hermiticity:.3e}, "
                f"idempotency={report.idempotency:.3e}, "
                f"trace defect={report.trace:.3e}, "
                f"norm defect={report.norm:.3e}, dim={report.dim}"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_report", report)

    @classmethod
    def from_matrix(
        cls, factorization: Factorization, matrix, dim: int | None = None
    ) -> "Projector":
        """Build a projector from a raw matrix, inferring `dim` from the trace.

        The constructor's validation is the one finiteness pass; a matrix
        that is not numeric, 2-D, non-empty and finite still gets the
        message `as_matrix` gives it, whichever check tripped first.
        """
        try:
            m = np.asarray(matrix, dtype=np.complex128)
            if dim is None:
                dim = int(round(float(np.trace(m).real)))
                if dim < 1:
                    raise InputError(f"projector trace rounds to {dim}, expected >= 1")
            return cls(factorization=factorization, matrix=m, dim=dim)
        except (InputError, TypeError, ValueError, OverflowError):
            as_matrix(matrix, "matrix")
            raise

    def report(self) -> ProjectorReport:
        """Defects measured when the projector was validated."""
        return self._report


def projector_from_basis(basis: SubspaceBasis) -> Projector:
    """Orthogonal projector P = sum_a |v_a><v_a| onto the span of `basis`."""
    v = basis.vectors
    matrix = (v.T @ v.conj()).view(_Fresh)
    return Projector(factorization=basis.factorization, matrix=matrix, dim=basis.dim)


def embed(basis: SubspaceBasis, d1: int, d2: int) -> SubspaceBasis:
    """Embed a subspace into a larger factorization d1 (x) d2.

    Each basis vector keeps its amplitudes on the original product basis
    vectors; the new directions get exact zeros.  Pairwise inner products are
    preserved exactly, so the result is again orthonormal.
    """
    f = basis.factorization
    target = Factorization(d1, d2)
    if target.d1 < f.d1 or target.d2 < f.d2:
        raise InputError(
            f"cannot embed {f.d1}x{f.d2} into {d1}x{d2}: "
            "target factors must not shrink"
        )
    old = basis.vectors.reshape(basis.dim, f.d1, f.d2)
    new = np.zeros((basis.dim, d1, d2), dtype=np.complex128)
    new[:, : f.d1, : f.d2] = old
    return SubspaceBasis(factorization=target, vectors=new.reshape(basis.dim, -1))
