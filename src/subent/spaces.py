"""Bipartite factorizations, subspace bases and projectors.

The composite space H1 (x) H2 is flattened row-major with the H1 index slow:
the product basis vector e_i (x) e_k lives at composite index ``i * d2 + k``.
Every matrix in this module is expressed in that product basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .linalg import _blocks, as_array, as_matrix
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


def _freeze(a, name: str) -> np.ndarray:
    # a private copy: the caller's array stays writable, and writing to it
    # cannot change what was validated
    out = np.array(as_array(a, name), order="C", copy=True)
    out.setflags(write=False)
    return out


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


def _entries_of(side: int, values: np.ndarray, flat=None) -> _Entries:
    """The nonzero entries of the square matrix of side `side` that holds
    `values` at the flat indices `flat`, in any order, or that is `values`
    in row-major order when `flat` is None."""
    if flat is None:
        nonzero = values.nonzero()[0]
        if nonzero.size == values.size:
            return _Entries(side, None, values)
        return _Entries(side, nonzero, values[nonzero])
    order = flat.argsort()
    order = order[values[order] != 0]
    return _Entries(side, flat[order], values[order])


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


@dataclass(frozen=True, eq=False)
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
        defect = float(abs(gram - np.eye(v.shape[0])).max())
        if defect > ORTHONORMALITY_TOL:
            raise InputError(
                f"basis is not orthonormal (Gram defect {defect:.3e}); "
                "orthonormalize with gram_schmidt first"
            )
        object.__setattr__(self, "vectors", _freeze(v, "vectors"))

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


def validate_projector(p, dim: int | None = None) -> ProjectorReport:
    """Check a square matrix against the orthogonal projector contract.

    A given `dim` must be an integer >= 0; when it is omitted it is
    inferred as the rounded real trace, and a trace that overflows is an
    InputError.  The report passes when Hermiticity and idempotency defects
    are at most 1e-10 entrywise, the trace is within 1e-8 of `dim`,
    P / sqrt(dim) has norm within 1e-10 of 1, and `dim` is at least 1.  A
    :class:`Projector` was validated when it was built; its
    :meth:`Projector.report` holds the result.

    The defects are measured on the nonzero entries: the norm over them,
    Hermiticity and idempotency on the connected blocks of their pattern.
    The values are those of the dense ``P - P^dagger`` and ``P @ P - P``.
    The catalog builders hand over only the nonzero entries, and no dense
    matrix is made for them.
    """
    if not isinstance(p, _Entries):
        matrix = as_matrix(p, "projector")
        if matrix.shape[0] != matrix.shape[1]:
            raise InputError(f"projector must be square, got shape {matrix.shape}")
        p = _entries_of(matrix.shape[0], matrix.ravel())
    side, nonzero, values = p
    if not np.isfinite(values).all():
        raise InputError("projector contains non-finite entries")
    # an entry of P - P^dagger or of P @ P between two blocks is a sum of
    # exact zeros, as is the entry of P
    if nonzero is None:
        diagonal = values[:: side + 1]
        blocks = [p.dense()[None]]
    else:
        rows, cols = np.divmod(nonzero, side)
        on = rows == cols
        diagonal = np.zeros(side, dtype=np.complex128)
        diagonal[rows[on]] = values[on]
        blocks = _blocks(rows, cols, values, (side, side), True)
    # finite entries can overflow the trace, the products and the norm; a
    # defect of inf, or of nan from inf - inf, fails the report
    with np.errstate(over="ignore", invalid="ignore"):
        total = complex(diagonal.sum())
        if dim is None:
            if math.isinf(total.real):
                raise InputError(f"projector trace overflows to {total.real}")
            dim = round(total.real)
        else:
            dim = as_count(dim, "dim", least=0)
        trace = float(abs(total - dim))
        defects = [
            (abs(b - b.conj().transpose(0, 2, 1)).max(), abs(b @ b - b).max())
            for b in blocks
        ]
        hermiticity, idempotency = (float(max(d)) for d in zip(*defects))
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
    return ProjectorReport(hermiticity, idempotency, trace, dim, passes, norm)


@dataclass(frozen=True, eq=False)
class Projector:
    """Validated orthogonal projector onto a `dim`-dimensional subspace.

    Construction runs :func:`validate_projector` once on the nonzero
    entries of a frozen copy of `matrix` and refuses matrices that fail it,
    so holding a `Projector` is proof of validity.  When `dim` is omitted it
    is the rounded trace, which must be at least 1.  The measured defects
    are kept and returned by :meth:`report`.  The catalog builders hand over
    only the nonzero entries; `matrix` is then built, read-only, when it is
    first read.
    """

    factorization: Factorization
    matrix: np.ndarray = field(repr=False)
    dim: int | None = None
    _report: ProjectorReport = field(init=False, repr=False)
    _entries: _Entries = field(init=False, repr=False)

    def __post_init__(self, entries: _Entries | None = None) -> None:
        dim = None if self.dim is None else as_count(self.dim, "dim")
        if entries is None:
            m = _freeze(self.matrix, "projector")
            expected = self.factorization.dim
            if m.shape != (expected, expected):
                raise InputError(
                    f"projector shape {m.shape} does not match factorization "
                    f"{self.factorization.d1}x{self.factorization.d2}"
                )
            entries = _entries_of(expected, m.ravel())
            object.__setattr__(self, "matrix", m)
        report = validate_projector(entries, dim=dim)
        if report.dim < 1:  # a given dim is at least 1
            raise InputError(f"projector trace rounds to {report.dim}, expected >= 1")
        if not report.passes:
            raise InputError(
                "matrix fails projector validation: "
                f"hermiticity={report.hermiticity:.3e}, "
                f"idempotency={report.idempotency:.3e}, "
                f"trace defect={report.trace:.3e}, "
                f"norm defect={report.norm:.3e}, dim={report.dim}"
            )
        object.__setattr__(self, "dim", report.dim)
        object.__setattr__(self, "_report", report)
        object.__setattr__(self, "_entries", entries)

    @classmethod
    def _adopt(cls, factorization, dim: int, flat, values) -> "Projector":
        """The projector with `values` at the flat indices `flat` of its
        matrix (in any order; None when `values` is the whole matrix,
        row-major), made by a builder for it alone: held in row-major order
        without its exact zeros, validated once and not copied.  `matrix`
        is built when first read."""
        p = object.__new__(cls)
        p.__dict__.update(factorization=factorization, dim=dim)
        p.__post_init__(_entries_of(factorization.dim, values, flat))
        return p

    def __getattr__(self, name: str):
        # only a projector adopted from its entries lacks `matrix`
        if name != "matrix" or "_entries" not in vars(self):
            raise AttributeError(name)
        self.__dict__["matrix"] = m = self._entries.dense()
        return m

    def report(self) -> ProjectorReport:
        """Defects measured when the projector was validated."""
        return self._report


def projector_from_basis(basis: SubspaceBasis) -> Projector:
    """Orthogonal projector P = sum_a |v_a><v_a| onto the span of `basis`."""
    v = basis.vectors
    p = (v.T @ v.conj()).ravel()
    return Projector._adopt(basis.factorization, basis.dim, None, p)


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
