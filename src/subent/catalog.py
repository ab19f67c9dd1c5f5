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
from .spaces import Factorization, Projector, SubspaceBasis, as_count
from .tolerances import within_budget

SPIN_STRING_LENGTH = 4

FAMILIES = ("antisym", "sym", "spin_plus", "spin_minus")


# --- antisymmetric and symmetric subspaces ---------------------------------
# Both are eigenspaces of the factor swap e_k e_l -> e_l e_k: sign -1 gives
# the antisymmetric subspace, sign +1 the symmetric one.


def _exchange_subspace(n, sign: int) -> SubspaceBasis:
    """Rows e_k e_k (sign +1 only), then (e_k e_l + sign e_l e_k) / sqrt(2)
    for k < l in row-major order."""
    n = as_count(n, "n", least=1 if sign > 0 else 2)
    # the basis and its orthonormality check peak at 18.6-27.5 traced bytes
    # per n^4 (n = 8..40)
    within_budget(f"n={n}", 28 * n**4)
    vectors = np.zeros((n * (n + sign) // 2, n * n), dtype=np.complex128)
    if sign > 0:
        vectors[np.arange(n), np.arange(0, n * n, n + 1)] = 1.0
    k, l = np.triu_indices(n, 1)
    rows = np.arange(vectors.shape[0] - k.size, vectors.shape[0])
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    vectors[rows, k * n + l] = inv_sqrt2
    vectors[rows, l * n + k] = sign * inv_sqrt2
    return SubspaceBasis(factorization=Factorization(n, n), vectors=vectors)


def _exchange_projector(n, sign: int) -> Projector:
    """P = (I + sign SWAP) / 2 from its nonzero entries alone: e_k e_l on
    the diagonal, and the swap pair (e_k e_l, e_l e_k) for k != l."""
    n = as_count(n, "n", least=1 if sign > 0 else 2)
    # a `schmidt` op on this route, output rendered, peaks at 319-340 traced
    # bytes per index of the composite space (n = 64..512)
    within_budget(f"n={n}", 400 * n * n)
    side = n * n
    index = np.arange(side)
    k, l = np.divmod(index, n)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    half = inv_sqrt2 * inv_sqrt2  # as the basis product forms it, not 0.5
    flat = np.concatenate([index * (side + 1), index * side + l * n + k])
    values = np.concatenate([
        np.where(k == l, (1 + sign) / 2, half), np.where(k == l, 0.0, sign * half)
    ]).astype(np.complex128)
    return Projector._adopt(Factorization(n, n), n * (n + sign) // 2, flat, values)


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
    # whole `schmidt --preset spin` ops peak at 664-719 traced bytes per
    # (2j + 1) (2j = 10^3..3*10^5)
    within_budget(f"2j={s.two_j}", 720 * s.dim)
    m = (s.two_j - 2.0 * np.arange(s.dim)) / 2.0
    diag = np.empty(2 * s.dim)
    diag[0::2], diag[1::2] = m, -m
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
    # the minus branch's stretched states are exact zeros
    return Projector._adopt(Factorization(s.dim, 2), dim, flat, values)


def _spin_rows(two_j: np.ndarray, plus: np.ndarray) -> np.ndarray:
    """Closed-form strings, one row per 2j: plus branch where `plus` holds."""
    j = two_j / 2.0
    denom = 2.0 * j + 1.0
    first, rest = np.where(plus, j + 1.0, j), np.where(plus, j, j + 1.0)
    return np.stack([first / denom] + [rest / (3.0 * denom)] * 3, axis=1)


def spin_string_closed(s: SpinLabel | int, branch: Branch) -> SchmidtString:
    """Closed-form Schmidt string of a total angular momentum eigenspace.

    Plus branch: (j + 1, j/3, j/3, j/3) / (2j + 1).
    Minus branch: (j, (j + 1)/3 three times) / (2j + 1), descending.
    """
    s = _label(s)
    if not isinstance(branch, Branch):
        raise InputError(f"branch must be a Branch, got {branch!r}")
    rows = _spin_rows(np.array([s.two_j]), branch is Branch.PLUS)
    return SchmidtString._rows(rows)[0]


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


def hydrogen_level(n: int) -> HydrogenLevel:
    """Fine structure decomposition of the n-th hydrogen-like level.

    For each orbital quantum number l = 0..n-1 the total angular momentum
    j = l + 1/2 eigenspace V_{l+1/2} appears, and for l >= 1 also the
    j = l - 1/2 eigenspace Vt_{l-1/2}.  Entries are grouped by l, plus
    branch first.  The l = 0 space is an unentangled doublet with string
    (1, 0, 0, 0).
    """
    n = as_count(n, "n")
    # a `hydrogen` op peaks at 12.0, 3.3, 3.08 and 3.03 traced bytes per (2n)^2
    # at n = 100, 800, 3200 and 7905, the last n admitted: 1.32 times under
    within_budget(f"n={n}", 4 * (2 * n) ** 2)
    # V_1/2, then V_{l+1/2} and Vt_{l-1/2} for l = 1..n-1; j = 0 gives (1, 0, 0, 0)
    row = np.arange(2 * n - 1)
    ls, plus = (row + 1) // 2, (row % 2 == 1) | (row == 0)
    strings = SchmidtString._rows(_spin_rows(2 * ls, plus))
    entries = tuple(
        HydrogenEntry(f"V_{2 * l + 1}/2", l, Branch.PLUS, string)
        if p
        else HydrogenEntry(f"Vt_{2 * l - 1}/2", l, Branch.MINUS, string)
        for l, p, string in zip(ls.tolist(), plus.tolist(), strings)
    )
    return HydrogenLevel(n=n, entries=entries)
