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
    _spin_rows,
    antisym_string_closed,
    antisymmetric_subspace,
    closed_measures,
    hydrogen_level,
    limiting_string,
    spin_projector,
    spin_x_operator,
    sym_string_closed,
    symmetric_subspace,
)
from .majorization import sort_chain
from .schmidt import Measures, SchmidtString, _measures_of, _spectra, realign
from .spaces import (
    Factorization,
    Projector,
    SubspaceBasis,
    _entries_of,
    as_count,
    projector_from_basis,
)
from .tolerances import COMPLETENESS_TOL, MEASURE_TOL, Q_MATRIX_TOL, STRING_TOL
from .tolerances import within_budget


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


def _report(
    family: str,
    rows: list[Check | str],
    numeric: list[SchmidtString],
    closed: list[SchmidtString],
    closed_m: list[Measures] | None = None,
) -> FamilyReport:
    """The report of a sweep's `rows`: a Check stays, and the i-th name
    becomes the check of numeric[i] against closed[i], then, with `closed_m`,
    of its measures against closed_m[i].  The string deviations are taken
    as one zero-padded stack, and the measures stacked by `_measures_of`."""
    pairs = np.zeros((2, len(numeric), max(map(len, numeric + closed))))
    for side, strings in zip(pairs, (numeric, closed)):
        for row, s in zip(side, strings):
            row[: len(s)] = s.probs
    deviations = iter(abs(pairs[0] - pairs[1]).max(axis=1).tolist())
    found = iter(zip(_measures_of(numeric), closed_m) if closed_m else ())
    checks: list[Check] = []
    for row in rows:
        if isinstance(row, Check):
            checks.append(row)
            continue
        checks.append(Check(f"{row} string", next(deviations), STRING_TOL))
        if closed_m:
            (e_d, e_i, e_t), b = next(found)
            dev = max(abs(e_d - b.e_d), abs(e_i - b.e_i), abs(e_t - b.e_t))
            checks.append(Check(f"{row} measures", dev, MEASURE_TOL))
    return FamilyReport(family=family, checks=tuple(checks))


def _verify_exchange(family: str, max_n: int) -> FamilyReport:
    """Pipeline vs closed form for antisym (n = 2..max_n) or sym (n = 1..max_n)."""
    if family == "antisym":
        least, build, closed_string = 2, antisymmetric_subspace, antisym_string_closed
    else:
        least, build, closed_string = 1, symmetric_subspace, sym_string_closed
    max_n = as_count(max_n, "max_n", least)
    # before n = least: whole `verify --family antisym|sym` ops peak at
    # 31.7-33.0 traced bytes per max_n^4 (24..40), from the largest basis's
    # dense projector beside the basis and its conjugate copy
    within_budget(f"max_n={max_n}", 33 * max_n**4)
    ns = range(least, max_n + 1)
    return _report(
        family,
        [f"{family} n={n}" for n in ns],
        _spectra(projector_from_basis(build(n)) for n in ns),
        [closed_string(n) for n in ns],
        [closed_measures(family, n) for n in ns],
    )


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


def _completeness(plus: Projector, minus: Projector) -> float:
    """max |P+ + P- - I| entrywise, read from the projectors' entries: off
    their nonzeros and the diagonal the sum is exactly 0 + 0 - 0."""
    (side, flat_p, plus_v), (_, flat_m, minus_v) = plus._entries, minus._entries
    flat = np.union1d(np.union1d(flat_p, flat_m), np.arange(side) * (side + 1))
    total = np.zeros((2, flat.size), dtype=np.complex128)
    total[0, np.searchsorted(flat, flat_p)] = plus_v
    total[1, np.searchsorted(flat, flat_m)] = minus_v
    eye = (flat % (side + 1) == 0).astype(np.float64)
    return float(np.max(np.abs(total[0] + total[1] - eye)))


def verify_spin(max_two_j: int = 20) -> FamilyReport:
    """Pipeline vs closed form for both coupling branches, 2j = 1..max_two_j.

    Besides the strings this checks the spin-side reduced matrix of the plus
    projector entrywise, the spectrum of the coupling operator X (and its
    distance from Hermitian, since the spectrum is taken of its Hermitian
    part), and the completeness relation P(plus) + P(minus) = identity.
    """
    max_two_j = as_count(max_two_j, "max_two_j")
    # whole `verify --family spin` ops peak at 95-104 traced bytes per
    # (2 max_two_j + 2)^2 (max_two_j = 80..400), from the dense X and
    # realigned P of the largest 2j; the op's fixed part makes it 172 at 40
    within_budget(f"max_two_j={max_two_j}", 150 * (2 * max_two_j + 2) ** 2)
    sweep = range(1, max_two_j + 1)
    dense_checks: list[tuple[float, float, float]] = []

    def items():
        # both projectors and X's nonzero entries per 2j; the checks that
        # read them densely are taken here, one 2j at a time
        for two_j in sweep:
            s = SpinLabel(two_j)
            plus = spin_projector(s, Branch.PLUS)
            minus = spin_projector(s, Branch.MINUS)
            a = realign(plus)
            q_dev = float(np.max(np.abs(a.conj().T @ a - _expected_q_matrix(two_j))))
            x = spin_x_operator(s)
            hermiticity = float(np.max(np.abs(x - x.conj().T)))
            dense_checks.append((q_dev, hermiticity, _completeness(plus, minus)))
            yield plus
            yield minus
            yield _entries_of(x.shape[0], x.ravel())

    found = _spectra(items())
    checks: list[Check | str] = []
    closed_m: list[Measures] = []
    for two_j, spectrum, (q_dev, hermiticity, comp_dev) in zip(
        sweep, found[2::3], dense_checks
    ):
        for branch in ("plus", "minus"):
            checks.append(f"spin 2j={two_j} {branch}")
            closed_m.append(closed_measures(f"spin_{branch}", two_j))
        checks.append(Check(f"spin 2j={two_j} Q matrix", q_dev, Q_MATRIX_TOL))
        j = two_j / 2.0
        expected = np.concatenate([np.full(two_j + 2, j), np.full(two_j, -(j + 1.0))])
        x_dev = max(float(np.max(np.abs(spectrum - expected))), hermiticity)
        checks.append(Check(f"spin 2j={two_j} X spectrum", x_dev, STRING_TOL))
        checks.append(
            Check(f"spin 2j={two_j} completeness", comp_dev, COMPLETENESS_TOL)
        )
    numeric = [s for i, s in enumerate(found) if i % 3 != 2]
    # the closed strings as one stack, plus rows first
    two_js = np.repeat(np.arange(1, max_two_j + 1), 2)
    closed = SchmidtString._rows(_spin_rows(two_js, np.arange(two_js.size) % 2 == 0))
    return _report("spin", checks, numeric, closed, closed_m)


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
    # whole `verify --family hydrogen` ops peak at 55.4-62.4 traced bytes per
    # (2 max_n)^2 (max_n = 100..800), from the check rows; refused from that
    # before anything runs
    within_budget(f"max_n={max_n}", 65 * (2 * max_n) ** 2)
    # each eigenspace (l, branch) recurs in every later level, and the
    # pipeline is deterministic, so each runs once, before level 1.  l = 0
    # is the whole 1 (x) 2 space, run through the pipeline as an explicit basis
    doublet = SubspaceBasis(Factorization(1, 2), np.eye(2, dtype=np.complex128))
    spaces = [(l, b) for l in range(max_n) for b in Branch if l or b is Branch.PLUS]
    strings = _spectra(
        spin_projector(SpinLabel(2 * l), b) if l else projector_from_basis(doublet)
        for l, b in spaces
    )
    found = dict(zip(spaces, strings))
    checks: list[Check] = []
    for n in range(1, max_n + 1):
        entries = hydrogen_level(n).entries
        chain = sort_chain(
            [(e.label, e.string) for e in entries] + [("S_0", limiting_string())]
        )
        order_ok = chain.ordered and chain.labels == hydrogen_chain_expected(n)
        checks += _report(
            "hydrogen",
            [f"hydrogen n={n} {e.label}" for e in entries]
            + [Check(f"hydrogen n={n} chain order", 0.0 if order_ok else 1.0, 0.0)],
            [found[e.l, e.branch] for e in entries],
            [e.string for e in entries],
        ).checks
    return FamilyReport("hydrogen", tuple(checks))


# Each family of the `verify` command: its sweep and the range keyword it reads.
FAMILY_SWEEPS = {
    "antisym": (verify_antisym, "max_n"),
    "sym": (verify_sym, "max_n"),
    "spin": (verify_spin, "max_two_j"),
    "hydrogen": (verify_hydrogen, "max_n"),
}
