"""Cross checks of the numerical pipeline against closed forms.

Each family function sweeps a parameter range, recomputes every catalog
string through the full projector pipeline, and reports the worst deviation
per check.  These reports back the command line `verify` subcommand and the
acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import (
    Branch,
    SpinLabel,
    antisym_string_closed,
    antisymmetric_subspace,
    closed_measures,
    hydrogen_level,
    limiting_string,
    spin_projector,
    spin_string_closed,
    spin_x_operator,
    sym_string_closed,
    symmetric_subspace,
)
from .linalg import hermitian_eigenvalues
from .majorization import sort_chain
from .schmidt import Measures, SchmidtString, measures, realign, schmidt_string
from .spaces import Factorization, SubspaceBasis, as_count, projector_from_basis
from .tolerances import COMPLETENESS_TOL, MEASURE_TOL, Q_MATRIX_TOL, STRING_TOL


@dataclass(frozen=True)
class Check:
    """A single named deviation against its tolerance."""

    name: str
    deviation: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.deviation <= self.tolerance


@dataclass(frozen=True)
class FamilyReport:
    """All checks run for one catalog family."""

    family: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def worst(self) -> Check:
        return max(self.checks, key=lambda c: c.deviation)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.ok)


def _measure_deviation(a: Measures, b: Measures) -> float:
    return max(abs(a.e_d - b.e_d), abs(a.e_i - b.e_i), abs(a.e_t - b.e_t))


def _string_deviation(a: SchmidtString, b: SchmidtString) -> float:
    n = max(len(a), len(b))
    pa, pb = (np.pad(s.probs, (0, n - len(s))) for s in (a, b))
    return float(np.max(np.abs(pa - pb)))


def _verify_exchange(family: str, max_n: int) -> FamilyReport:
    """Pipeline vs closed form for antisym (n = 2..max_n) or sym (n = 1..max_n)."""
    if family == "antisym":
        least, build, closed_string = 2, antisymmetric_subspace, antisym_string_closed
    else:
        least, build, closed_string = 1, symmetric_subspace, sym_string_closed
    max_n = as_count(max_n, "max_n", least)
    checks: list[Check] = []
    for n in range(least, max_n + 1):
        numeric = schmidt_string(projector_from_basis(build(n)))
        dev = _string_deviation(numeric, closed_string(n))
        checks.append(Check(f"{family} n={n} string", dev, STRING_TOL))
        dev = _measure_deviation(measures(numeric), closed_measures(family, n))
        checks.append(Check(f"{family} n={n} measures", dev, MEASURE_TOL))
    return FamilyReport(family=family, checks=tuple(checks))


def verify_antisym(max_n: int = 12) -> FamilyReport:
    """Pipeline vs closed form for antisymmetric subspaces, n = 2..max_n."""
    return _verify_exchange("antisym", max_n)


def verify_sym(max_n: int = 12) -> FamilyReport:
    """Pipeline vs closed form for symmetric subspaces, n = 1..max_n."""
    return _verify_exchange("sym", max_n)


def _expected_q_matrix(two_j: int) -> np.ndarray:
    """Reduced spin-side matrix of the plus-branch projector, closed form.

    A^dagger A for A = :func:`subent.schmidt.realign` of the projector, in the
    row-major pair basis of the spin-1/2 factor, ordered (++, +-, -+, --).
    """
    j = two_j / 2.0
    denom = 2.0 * j + 1.0
    q_diag = (4.0 * j + 3.0) / (6.0 * denom)
    q_mid = j / (3.0 * denom)
    q_corner = (2.0 * j + 3.0) / (6.0 * denom)
    m = np.zeros((4, 4), dtype=np.complex128)
    m[0, 0] = m[3, 3] = q_diag
    m[1, 1] = m[2, 2] = q_mid
    m[0, 3] = m[3, 0] = q_corner
    return m


def verify_spin(max_two_j: int = 20) -> FamilyReport:
    """Pipeline vs closed form for both coupling branches, 2j = 1..max_two_j.

    Besides the strings this checks the spin-side reduced matrix of the plus
    projector entrywise, the spectrum of the coupling operator X, and the
    completeness relation P(plus) + P(minus) = identity.
    """
    max_two_j = as_count(max_two_j, "max_two_j")
    checks: list[Check] = []
    for two_j in range(1, max_two_j + 1):
        s = SpinLabel(two_j)
        plus = spin_projector(s, Branch.PLUS)
        minus = spin_projector(s, Branch.MINUS)
        for branch, proj in (("plus", plus), ("minus", minus)):
            numeric = schmidt_string(proj)
            closed = spin_string_closed(s, Branch(branch))
            checks.append(
                Check(
                    f"spin 2j={two_j} {branch} string",
                    _string_deviation(numeric, closed),
                    STRING_TOL,
                )
            )
            dev = _measure_deviation(
                measures(numeric), closed_measures(f"spin_{branch}", two_j)
            )
            checks.append(Check(f"spin 2j={two_j} {branch} measures", dev, MEASURE_TOL))

        a = realign(plus)
        q_dev = float(np.max(np.abs(a.conj().T @ a - _expected_q_matrix(two_j))))
        checks.append(Check(f"spin 2j={two_j} Q matrix", q_dev, Q_MATRIX_TOL))

        x = spin_x_operator(s)
        spectrum = hermitian_eigenvalues(x)
        expected = np.concatenate(
            [np.full(two_j + 2, s.j), np.full(two_j, -(s.j + 1.0))]
        )
        x_dev = float(np.max(np.abs(spectrum - expected)))
        checks.append(Check(f"spin 2j={two_j} X spectrum", x_dev, STRING_TOL))

        eye = np.eye(2 * s.dim)
        comp_dev = float(np.max(np.abs(plus.matrix + minus.matrix - eye)))
        checks.append(
            Check(f"spin 2j={two_j} completeness", comp_dev, COMPLETENESS_TOL)
        )
    return FamilyReport(family="spin", checks=tuple(checks))


def hydrogen_chain_expected(n: int) -> tuple[str, ...]:
    """Total entanglement order of level n plus the limiting string S_0.

    Least entangled first: the plus branches V_1/2 .. V_{n-1/2} in
    increasing j, then S_0, then the minus branches Vt_{n-3/2} .. Vt_1/2 in
    decreasing j.
    """
    n = as_count(n, "n")
    plus = [f"V_{2 * l + 1}/2" for l in range(n)]
    minus = [f"Vt_{2 * l - 1}/2" for l in range(n - 1, 0, -1)]
    return tuple(plus + ["S_0"] + minus)


def verify_hydrogen(max_n: int = 8) -> FamilyReport:
    """Pipeline strings and chain order for hydrogen-like levels, n = 1..max_n."""
    max_n = as_count(max_n, "max_n")
    checks: list[Check] = []
    for n in range(1, max_n + 1):
        level = hydrogen_level(n)
        for entry in level.entries:
            if entry.l == 0:
                # l = 0 is the whole 1 (x) 2 space; run it through the
                # pipeline as an explicit basis.
                basis = SubspaceBasis(
                    factorization=Factorization(1, 2),
                    vectors=np.eye(2, dtype=np.complex128),
                )
                numeric = schmidt_string(projector_from_basis(basis))
            else:
                numeric = schmidt_string(
                    spin_projector(SpinLabel(2 * entry.l), entry.branch)
                )
            checks.append(
                Check(
                    f"hydrogen n={n} {entry.label} string",
                    _string_deviation(numeric, entry.string),
                    STRING_TOL,
                )
            )
        chain = sort_chain(
            [(e.label, e.string) for e in level.entries]
            + [("S_0", limiting_string())]
        )
        order_ok = chain.ordered and chain.labels == hydrogen_chain_expected(n)
        checks.append(
            Check(f"hydrogen n={n} chain order", 0.0 if order_ok else 1.0, 0.0)
        )
    return FamilyReport(family="hydrogen", checks=tuple(checks))


# Each family of the `verify` command: its sweep and the range keyword it reads.
FAMILY_SWEEPS = {
    "antisym": (verify_antisym, "max_n"),
    "sym": (verify_sym, "max_n"),
    "spin": (verify_spin, "max_two_j"),
    "hydrogen": (verify_hydrogen, "max_n"),
}
