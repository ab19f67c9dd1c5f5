"""Acceptance gate: nine end-to-end criteria, one printed line each.

Every test computes its own pass/fail verdict, prints a single live summary
line (bypassing capture so the line shows up in normal pytest runs), and then
asserts.  Detail strings carry the measured worst deviations so a green run
still documents how much numerical headroom each criterion has.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from subent import (
    Branch,
    Factorization,
    SpinLabel,
    SubspaceBasis,
    Verdict,
    antisym_string_closed,
    antisymmetric_subspace,
    closed_measures,
    compare,
    embed,
    hermitian_eigenvalues,
    hydrogen_chain_expected,
    hydrogen_level,
    limiting_string,
    measure_consistency,
    measures,
    projector_from_basis,
    pure_subspace_string,
    schmidt_string,
    sort_chain,
    spin_projector,
    spin_string_closed,
    sym_string_closed,
    symmetric_subspace,
    vector_schmidt,
    verify_antisym,
    verify_spin,
    verify_sym,
)
from subent.schmidt import SchmidtString

from .helpers import (
    full_realignment_gram,
    random_basis,
    random_distribution,
    t_transform,
)

LIMIT_D = math.sqrt(2.0 * (1.0 - math.sqrt(0.5)))
LIMIT_T = 0.75


@pytest.fixture
def announce(capsys):
    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line)

    return _announce


def _random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _padded_deviation(a, b) -> float:
    pa = np.asarray(getattr(a, "probs", a), dtype=np.float64)
    pb = np.asarray(getattr(b, "probs", b), dtype=np.float64)
    n = max(pa.size, pb.size)
    return float(
        np.max(np.abs(np.pad(pa, (0, n - pa.size)) - np.pad(pb, (0, n - pb.size))))
    )


def test_criterion_1_antisymmetric_oracle(announce):
    report = verify_antisym(max_n=12)
    spot = closed_measures("antisym", 3).e_t
    ok = report.passed and abs(spot - 5.0 / 6.0) < 1e-15
    detail = (
        f"n=2..12, {len(report.checks)} checks, "
        f"max deviation {report.worst.deviation:.3e}"
    )
    announce(f"[criterion 1] antisymmetric family oracle: "
             f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, report.failures()


def test_criterion_2_symmetric_oracle(announce):
    report = verify_sym(max_n=12)
    ok = report.passed
    detail = (
        f"n=1..12, {len(report.checks)} checks, "
        f"max deviation {report.worst.deviation:.3e}"
    )
    announce(f"[criterion 2] symmetric family oracle: "
             f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, report.failures()


def test_criterion_3_benchmark_pair(announce):
    anti = schmidt_string(projector_from_basis(antisymmetric_subspace(3)))
    anti_dev = _padded_deviation(anti, [4 / 12] + [1 / 12] * 8)

    embedded = embed(symmetric_subspace(2), 3, 3)
    sym = schmidt_string(projector_from_basis(embedded))
    sym_dev = _padded_deviation(sym, [9 / 12] + [1 / 12] * 3 + [0.0] * 5)

    verdict = compare(anti, sym)
    ok = (
        anti_dev < 1e-9
        and sym_dev < 1e-9
        and verdict is Verdict.MORE_ENTANGLED
    )
    detail = (
        f"antisym n=3 dev {anti_dev:.3e}, embedded sym n=2 dev {sym_dev:.3e}, "
        f"verdict {verdict.value}"
    )
    announce(f"[criterion 3] benchmark pair reproduction: "
             f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_4_spin_oracle(announce):
    report = verify_spin(max_two_j=20)
    ok = report.passed
    detail = (
        f"2j=1..20, {len(report.checks)} checks "
        f"(strings, measures, reduced spin-side matrix, coupling spectrum, "
        f"completeness), max deviation {report.worst.deviation:.3e}"
    )
    announce(f"[criterion 4] spin coupling oracle: "
             f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, report.failures()


def test_criterion_5_hydrogen_chain(announce):
    worst_elapsed = 0.0
    ok = True
    problems = []
    for n in range(1, 9):
        start = time.perf_counter()
        level = hydrogen_level(n)
        chain = sort_chain(
            [(e.label, e.string) for e in level.entries]
            + [("S_0", limiting_string())]
        )
        elapsed = time.perf_counter() - start
        worst_elapsed = max(worst_elapsed, elapsed)
        expected = hydrogen_chain_expected(n)
        strict = chain.ordered and not chain.ties
        if not (strict and chain.labels == expected):
            ok = False
            problems.append(f"n={n} order {chain.labels}")
        else:
            # the free-floating limit sits strictly between the branch tails
            pos = chain.labels.index("S_0")
            if chain.labels[pos - 1] != f"V_{2 * n - 1}/2":
                ok = False
                problems.append(f"n={n} S_0 not after V_{2 * n - 1}/2")
            if n > 1 and chain.labels[pos + 1] != f"Vt_{2 * n - 3}/2":
                ok = False
                problems.append(f"n={n} S_0 not before Vt_{2 * n - 3}/2")
        if elapsed >= 1.0:
            ok = False
            problems.append(f"n={n} took {elapsed:.2f}s")
    detail = f"n=1..8 strict total order, worst level time {worst_elapsed * 1e3:.1f}ms"
    announce(f"[criterion 5] hydrogen chain order: "
             f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, problems


def test_criterion_6_property_suite(announce):
    rng = np.random.default_rng(20260822)
    small = Factorization(3, 3)

    emb_dev = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 9))
        basis = random_basis(rng, small, dim)
        s_small = schmidt_string(projector_from_basis(basis))
        s_big = schmidt_string(projector_from_basis(embed(basis, 5, 4)))
        emb_dev = max(emb_dev, _padded_deviation(s_small, s_big))

    prod_dev = 0.0
    unentangled = np.zeros(9)
    unentangled[0] = 1.0
    for _ in range(200):
        k1 = int(rng.integers(1, 4))
        k2 = int(rng.integers(1, 4))
        u = random_basis(rng, Factorization(3, 1), k1).vectors
        w = random_basis(rng, Factorization(1, 3), k2).vectors
        vectors = np.einsum("ai,bk->abik", u, w).reshape(k1 * k2, 9)
        basis = SubspaceBasis(factorization=small, vectors=vectors)
        s = schmidt_string(projector_from_basis(basis))
        prod_dev = max(prod_dev, _padded_deviation(s, unentangled))

    factor2_dev = 0.0
    pure_dev = 0.0
    for _ in range(200):
        v = _random_unit_vector(rng, 9)
        coeffs = vector_schmidt(v, small)
        nz = coeffs[coeffs > 1e-15]
        vec_entropy = float(-(nz * np.log2(nz)).sum())
        pure = pure_subspace_string(coeffs, small)
        factor2_dev = max(
            factor2_dev, abs(measures(pure).e_i - 2.0 * vec_entropy)
        )
        span = SubspaceBasis(factorization=small, vectors=v.reshape(1, 9))
        pipeline = schmidt_string(projector_from_basis(span))
        pure_dev = max(pure_dev, _padded_deviation(pure, pipeline))

    ok = max(emb_dev, prod_dev, factor2_dev, pure_dev) < 1e-9
    detail = (
        f"200 samples each: embedding dev {emb_dev:.3e}, "
        f"product-subspace dev {prod_dev:.3e}, "
        f"entropy factor-2 dev {factor2_dev:.3e}, "
        f"pure-vs-pipeline dev {pure_dev:.3e}"
    )
    announce(f"[criterion 6] structural property suite: "
             f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _catalog_strings() -> list[tuple[str, SchmidtString]]:
    items: list[tuple[str, SchmidtString]] = [
        ("bench antisym n=3", antisym_string_closed(3)),
        ("bench sym n=2", sym_string_closed(2)),
        ("S_0", limiting_string()),
    ]
    for two_j in range(1, 21):
        for branch in (Branch.PLUS, Branch.MINUS):
            items.append(
                (f"spin 2j={two_j} {branch.value}",
                 spin_string_closed(two_j, branch))
            )
    for n in range(1, 9):
        for e in hydrogen_level(n).entries:
            items.append((f"hydrogen n={n} {e.label}", e.string))
    return items


def test_criterion_7_measure_monotonicity(announce):
    corpus = _catalog_strings()
    checked = 0
    violations = 0
    for i in range(len(corpus)):
        for j in range(len(corpus)):
            if i == j:
                continue
            verdict = compare(corpus[i][1], corpus[j][1])
            if verdict in (Verdict.MORE_ENTANGLED, Verdict.EQUAL):
                checked += 1
                if not measure_consistency(corpus[i][1], corpus[j][1]).ok:
                    violations += 1

    rng = np.random.default_rng(7)
    for _ in range(1000):
        base = random_distribution(rng, int(rng.integers(2, 17)))
        flat = base
        for _ in range(int(rng.integers(1, 5))):
            flat = t_transform(rng, flat)
        checked += 1
        report = measure_consistency(
            SchmidtString.from_probs(flat), SchmidtString.from_probs(base)
        )
        if not report.ok:
            violations += 1

    ok = violations == 0 and checked > 1000
    detail = f"{checked} comparable ordered pairs, {violations} violations"
    announce(f"[criterion 7] measure monotonicity: "
             f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_8_normalization_and_spectral_symmetry(announce):
    rng = np.random.default_rng(41)
    projectors = []
    for n in range(2, 13):
        projectors.append(projector_from_basis(antisymmetric_subspace(n)))
    for n in range(1, 13):
        projectors.append(projector_from_basis(symmetric_subspace(n)))
    for two_j in range(1, 21):
        projectors.append(spin_projector(SpinLabel(two_j), Branch.PLUS))
        projectors.append(spin_projector(SpinLabel(two_j), Branch.MINUS))
    for f in (Factorization(2, 2), Factorization(3, 2), Factorization(3, 3),
              Factorization(4, 3)):
        for _ in range(15):
            dim = int(rng.integers(1, f.dim + 1))
            projectors.append(projector_from_basis(random_basis(rng, f, dim)))

    sum_dev = 0.0
    spectra_dev = 0.0
    for p in projectors:
        s = schmidt_string(p)
        sum_dev = max(sum_dev, abs(float(s.probs.sum()) - 1.0))
        w1 = hermitian_eigenvalues(full_realignment_gram(p, 1))
        w2 = hermitian_eigenvalues(full_realignment_gram(p, 2))
        length = max(w1.size, w2.size)
        w1 = np.pad(w1, (0, length - w1.size))
        w2 = np.pad(w2, (0, length - w2.size))
        spectra_dev = max(spectra_dev, float(np.max(np.abs(w1 - w2))))
    for _, s in _catalog_strings():
        sum_dev = max(sum_dev, abs(float(s.probs.sum()) - 1.0))

    ok = sum_dev <= 1e-9 and spectra_dev <= 1e-10
    detail = (
        f"{len(projectors)} projectors + catalog strings: "
        f"max |sum-1| {sum_dev:.3e}, max side-1/side-2 spectral gap "
        f"{spectra_dev:.3e}"
    )
    announce(f"[criterion 8] normalization and spectral symmetry: "
             f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_9_asymptotics(announce):
    n = 256
    m = measures(antisym_string_closed(n))
    identity_dev = abs(m.e_i - math.log2(2.0 * n * (n - 1) ** (1.0 / n)))

    d_dev = abs(m.e_d - LIMIT_D)
    t_dev = abs(m.e_t - LIMIT_T)
    # the finite-size gap of the linear-entropy measure is exactly
    # (n-2)/(2n(n-1)), about 1.9e-3 at n=256, so the limits are checked at
    # 2.5e-3 together with the exact gap law and the 1/n decay rate
    exact_gap = (n - 2) / (2.0 * n * (n - 1))
    law_dev = abs(t_dev - exact_gap)

    m_big = measures(antisym_string_closed(1024))
    t_dev_big = abs(m_big.e_t - LIMIT_T)
    rate = t_dev_big / t_dev

    ok = (
        identity_dev < 1e-9
        and d_dev < 2.5e-3
        and t_dev < 2.5e-3
        and law_dev < 1e-12
        and abs(rate - 256.0 / 1024.0) < 0.05
    )
    detail = (
        f"n=256: entropy identity dev {identity_dev:.3e}, "
        f"distance gap {d_dev:.3e}, linear-entropy gap {t_dev:.3e} "
        f"(exact law dev {law_dev:.3e}), n=1024 gap ratio {rate:.4f}"
    )
    announce(f"[criterion 9] large-n asymptotics: "
             f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail
