"""Catalog of exactly solvable subspace families.

Three families with closed-form Schmidt strings are provided, both as
constructive subspaces (bases or projectors the numerical pipeline can chew
on) and as the closed-form strings and measures themselves:

* antisymmetric and symmetric subspaces of C^n (x) C^n;
* the two total angular momentum eigenspaces j = l +- 1/2 of an orbital
  angular momentum l coupled to a spin 1/2, realized inside
  C^(2l+1) (x) C^2;
* the hydrogen-like bound level at principal quantum number n, whose fine
  structure splits it into 2n - 1 such eigenspaces.

Closed-form strings over the spin factorization always have length 4, the
Schmidt length of any (2j+1) x 2 factorization.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .schmidt import Measures, SchmidtString
from .linalg import _Entries
from .spaces import Factorization, Projector, SubspaceBasis, as_count

SPIN_STRING_LENGTH = 4

FAMILIES = ("antisym", "sym", "spin_plus", "spin_minus")


# --- antisymmetric and symmetric subspaces ---------------------------------
# Both are eigenspaces of the factor swap e_k e_l -> e_l e_k: sign -1 gives
# the antisymmetric subspace, sign +1 the symmetric one.


def _exchange_subspace(n, sign: int) -> SubspaceBasis:
    """Rows e_k e_k (sign +1 only), then (e_k e_l + sign e_l e_k) / sqrt(2)
    for k < l in row-major order."""
    n = as_count(n, "n", least=1 if sign > 0 else 2)
    # allocated first, so that a size which cannot fit fails at once
    try:
        vectors = np.zeros((n * (n + sign) // 2, n * n), dtype=np.complex128)
    except ValueError:  # a shape numpy cannot describe
        raise InputError(f"n={n} is too large for an array") from None
    if sign > 0:
        vectors[np.arange(n), np.arange(0, n * n, n + 1)] = 1.0
    k, l = np.triu_indices(n, 1)
    rows = np.arange(vectors.shape[0] - k.size, vectors.shape[0])
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    vectors[rows, k * n + l] = inv_sqrt2
    vectors[rows, l * n + k] = sign * inv_sqrt2
    return SubspaceBasis(factorization=Factorization(n, n), vectors=vectors)


def antisymmetric_subspace(n: int) -> SubspaceBasis:
    """Orthonormal basis of the antisymmetric subspace of C^n (x) C^n.

    Spanned by (e_k e_l - e_l e_k) / sqrt(2) for k < l; dimension n(n-1)/2.
    Requires n >= 2.
    """
    return _exchange_subspace(n, -1)


def symmetric_subspace(n: int) -> SubspaceBasis:
    """Orthonormal basis of the symmetric subspace of C^n (x) C^n.

    Spanned by e_k e_k together with (e_k e_l + e_l e_k) / sqrt(2) for k < l;
    dimension n(n+1)/2.  Requires n >= 1.
    """
    return _exchange_subspace(n, 1)


def _exchange_string(n, sign: int) -> SchmidtString:
    n = as_count(n, "n", least=1 if sign > 0 else 2)
    denom = 2.0 * n * (n + sign)
    values = np.full(n * n, 1.0 / denom)
    values[0] = (n + sign) ** 2 / denom
    return SchmidtString.from_probs(values, length=n * n)


def antisym_string_closed(n: int) -> SchmidtString:
    """Closed-form string of the antisymmetric subspace.

    One entry (n-1)^2 / (2n(n-1)) followed by n^2 - 1 entries of
    1 / (2n(n-1)); length n^2.
    """
    return _exchange_string(n, -1)


def sym_string_closed(n: int) -> SchmidtString:
    """Closed-form string of the symmetric subspace.

    One entry (n+1)^2 / (2n(n+1)) followed by n^2 - 1 entries of
    1 / (2n(n+1)); length n^2.
    """
    return _exchange_string(n, 1)


# --- spin-orbit coupling ----------------------------------------------------


@dataclass(frozen=True)
class SpinLabel:
    """Half-integer angular momentum j stored as the integer 2j >= 1."""

    two_j: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "two_j", as_count(self.two_j, "two_j"))

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    @property
    def dim(self) -> int:
        """Dimension 2j + 1 of the spin-j space."""
        return self.two_j + 1


class Branch(enum.Enum):
    """Total angular momentum branch: j + 1/2 (plus) or j - 1/2 (minus)."""

    PLUS = "plus"
    MINUS = "minus"


def _label(s) -> SpinLabel:
    return s if isinstance(s, SpinLabel) else SpinLabel(s)


def spin_operators(s: SpinLabel | int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ladder and z operators (J+, J-, J3) for spin j in the basis m = j..-j.

    J+ has superdiagonal entries sqrt(k (2j + 1 - k)) for k = 1..2j; J- is
    its adjoint; J3 is diagonal with entries j, j-1, ..., -j.
    """
    s = _label(s)
    dim = s.dim
    jp = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(1, s.two_j + 1):
        jp[k - 1, k] = math.sqrt(k * (s.two_j + 1 - k))
    j3 = np.diag([(s.two_j - 2 * a) / 2.0 for a in range(dim)]).astype(np.complex128)
    return jp, jp.conj().T, j3


_S_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
_S_MINUS = _S_PLUS.conj().T
_S3 = np.diag([0.5, -0.5]).astype(np.complex128)


def spin_x_operator(s: SpinLabel | int) -> np.ndarray:
    """The coupling operator X = J+ S- + J- S+ + 2 J3 S3 on C^(2j+1) (x) C^2.

    Equal to 2 J.S; its spectrum is j with multiplicity 2j + 2 and -(j + 1)
    with multiplicity 2j, one eigenvalue per total angular momentum branch.
    """
    s = _label(s)
    jp, jm, j3 = spin_operators(s)
    return (
        np.kron(jp, _S_MINUS) + np.kron(jm, _S_PLUS) + 2.0 * np.kron(j3, _S3)
    )


def spin_projector(s: SpinLabel | int, branch: Branch) -> Projector:
    """Projector onto the total angular momentum j +- 1/2 eigenspace.

    Built from the coupling operator: the plus branch is
    (X + (j + 1) I) / (2j + 1) with rank 2j + 2, the minus branch
    (j I - X) / (2j + 1) with rank 2j.  X conserves total m, so it is
    tridiagonal in the product basis: 2 J3 S3 puts +-m_a at (2a, 2a) and
    (2a + 1, 2a + 1), and J+ S- + J- S+ couples the Clebsch-Gordan pair
    (2k - 1, 2k) with sqrt(k (2j + 1 - k)).  Only those entries are made,
    and the projector holds them without a dense matrix.
    """
    s = _label(s)
    if not isinstance(branch, Branch):
        raise InputError(f"branch must be a Branch, got {branch!r}")
    m = (s.two_j - 2.0 * np.arange(s.dim)) / 2.0
    diag = np.stack([m, -m], axis=1).ravel()
    k = np.arange(1, s.dim)
    off = np.sqrt(k * (s.two_j + 1 - k))
    if branch is Branch.PLUS:
        diag, dim = diag + (s.j + 1.0), s.two_j + 2
    else:
        diag, off, dim = s.j - diag, -off, s.two_j
    side = diag.size
    flat = np.concatenate([
        np.arange(side) * (side + 1),
        (2 * k - 1) * side + 2 * k,
        2 * k * side + 2 * k - 1,
    ])
    # complex / float like the dense (X +- c I) / (2j + 1); dividing in
    # float64 differs in the last bit
    values = np.concatenate([diag, off, off]).astype(np.complex128) / float(s.dim)
    # row-major order, without the exact zeros of the minus branch's
    # stretched states
    order = np.argsort(flat)
    order = order[values[order] != 0]
    entries = _Entries(side, flat[order], values[order])
    return Projector._adopt(Factorization(s.dim, 2), dim, entries)


def spin_string_closed(s: SpinLabel | int, branch: Branch) -> SchmidtString:
    """Closed-form Schmidt string of a total angular momentum eigenspace.

    Plus branch: (j + 1, j/3, j/3, j/3) / (2j + 1).
    Minus branch: ((j + 1)/3 three times, j) / (2j + 1), sorted descending.
    """
    s = _label(s)
    if not isinstance(branch, Branch):
        raise InputError(f"branch must be a Branch, got {branch!r}")
    j = s.j
    denom = 2.0 * j + 1.0
    if branch is Branch.PLUS:
        values = [(j + 1.0) / denom] + [j / (3.0 * denom)] * 3
    else:
        values = [j / denom] + [(j + 1.0) / (3.0 * denom)] * 3
    return SchmidtString.from_probs(values, length=SPIN_STRING_LENGTH)


def limiting_string() -> SchmidtString:
    """Common j -> infinity limit of both branch strings: (1/2, 1/6, 1/6, 1/6)."""
    return SchmidtString.from_probs(
        [0.5, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0], length=SPIN_STRING_LENGTH
    )


# --- closed-form measures ---------------------------------------------------


def closed_measures(family: str, parameter: int) -> Measures:
    """Closed-form measure values for a catalog family.

    `family` is one of antisym, sym (parameter n) or spin_plus, spin_minus
    (parameter 2j).  Out-of-domain parameters raise InputError.
    """
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}, expected one of {FAMILIES}")
    p = as_count(parameter, "parameter", least=2 if family == "antisym" else 1)
    if family == "antisym":
        n = p
        e_d = math.sqrt(2.0 * (1.0 - math.sqrt((n - 1) / (2.0 * n))))
        e_i = math.log2(2.0 * n * (n - 1) ** (1.0 / n))
        e_t = (n + 1) * (3 * n - 4) / (4.0 * n * (n - 1))
        return Measures(e_d=e_d, e_i=e_i, e_t=e_t)
    if family == "sym":
        n = p
        e_d = math.sqrt(2.0 * (1.0 - math.sqrt((n + 1) / (2.0 * n))))
        e_i = math.log2(2.0 * n / (n + 1) ** (1.0 / n))
        e_t = (n - 1) * (3 * n + 4) / (4.0 * n * (n + 1))
        return Measures(e_d=e_d, e_i=e_i, e_t=e_t)
    j = p / 2.0
    denom = 2.0 * j + 1.0
    if family == "spin_plus":
        e_d = math.sqrt(2.0 * (1.0 - math.sqrt((j + 1.0) / denom)))
        e_i = -math.log2(
            (j / 3.0) ** (j / denom) * (j + 1.0) ** ((j + 1.0) / denom) / denom
        )
        e_t = 2.0 * j * (4.0 * j + 3.0) / (3.0 * denom * denom)
        return Measures(e_d=e_d, e_i=e_i, e_t=e_t)
    e_d = math.sqrt(2.0 * (1.0 - math.sqrt(j / denom)))
    e_i = -math.log2(
        ((j + 1.0) / 3.0) ** ((j + 1.0) / denom) * j ** (j / denom) / denom
    )
    e_t = 2.0 * (j + 1.0) * (4.0 * j + 1.0) / (3.0 * denom * denom)
    return Measures(e_d=e_d, e_i=e_i, e_t=e_t)


# --- hydrogen-like levels ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class HydrogenEntry:
    """One fine structure eigenspace of a hydrogen-like level.

    Plus-branch entries V_{l+1/2} have dimension 2l + 2; minus-branch
    entries Vt_{l-1/2} have dimension 2l.  The string lives over the
    (2l+1) x 2 orbital (x) spin factorization.
    """

    label: str
    l: int
    branch: Branch
    string: SchmidtString

    @property
    def dim(self) -> int:
        return 2 * self.l + 2 if self.branch is Branch.PLUS else 2 * self.l


@dataclass(frozen=True, eq=False)
class HydrogenLevel:
    """All 2n - 1 fine structure eigenspaces of the level with quantum number n."""

    n: int
    entries: tuple[HydrogenEntry, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != 2 * self.n - 1:
            raise InputError(
                f"level n={self.n} must have {2 * self.n - 1} entries, "
                f"got {len(self.entries)}"
            )
        total = sum(e.dim for e in self.entries)
        if total != 2 * self.n * self.n:
            raise InputError(
                f"entry dimensions sum to {total}, expected {2 * self.n * self.n}"
            )


def _half_label(prefix: str, two_k: int) -> str:
    return f"{prefix}_{two_k}/2"


def hydrogen_level(n: int) -> HydrogenLevel:
    """Fine structure decomposition of the n-th hydrogen-like level.

    For each orbital quantum number l = 0..n-1 the total angular momentum
    j = l + 1/2 eigenspace V_{l+1/2} appears, and for l >= 1 also the
    j = l - 1/2 eigenspace Vt_{l-1/2}.  Entries are grouped by l, plus
    branch first.  The l = 0 space is an unentangled doublet with string
    (1, 0, 0, 0).
    """
    n = as_count(n, "n")
    entries: list[HydrogenEntry] = []
    entries.append(
        HydrogenEntry(
            label=_half_label("V", 1),
            l=0,
            branch=Branch.PLUS,
            string=SchmidtString.from_probs([1.0], length=SPIN_STRING_LENGTH),
        )
    )
    for l in range(1, n):
        s = SpinLabel(2 * l)
        entries.append(
            HydrogenEntry(
                label=_half_label("V", 2 * l + 1),
                l=l,
                branch=Branch.PLUS,
                string=spin_string_closed(s, Branch.PLUS),
            )
        )
        entries.append(
            HydrogenEntry(
                label=_half_label("Vt", 2 * l - 1),
                l=l,
                branch=Branch.MINUS,
                string=spin_string_closed(s, Branch.MINUS),
            )
        )
    return HydrogenLevel(n=n, entries=tuple(entries))
