import math
import tracemalloc

import numpy as np
import pytest

from subent import (
    FAMILIES,
    SPIN_STRING_LENGTH,
    Branch,
    HydrogenLevel,
    InputError,
    SpinLabel,
    Verdict,
    antisym_string_closed,
    antisymmetric_subspace,
    closed_measures,
    compare,
    hydrogen_level,
    limiting_string,
    measures,
    projector_from_basis,
    schmidt_string,
    spin_operators,
    spin_projector,
    spin_string_closed,
    spin_x_operator,
    sym_string_closed,
    symmetric_subspace,
    validate_projector,
)
from subent.catalog import _exchange_projector
from subent.tolerances import BYTE_BUDGET

from .helpers import exchange_subspace_reference, string_deviation

SINGLET = np.zeros(4, dtype=np.complex128)
SINGLET[1] = 1.0 / math.sqrt(2.0)
SINGLET[2] = -1.0 / math.sqrt(2.0)


class TestAntisymmetricSubspace:
    def test_n2_is_singlet(self):
        basis = antisymmetric_subspace(2)
        assert basis.vectors.shape == (1, 4)
        v = basis.vectors[0]
        # single vector (e1 e2 - e2 e1)/sqrt(2), up to sign
        overlap = abs(np.vdot(SINGLET, v))
        assert overlap == pytest.approx(1.0, abs=1e-15)

    def test_n3_vectors(self):
        basis = antisymmetric_subspace(3)
        assert basis.vectors.shape == (3, 9)
        inv = 1.0 / math.sqrt(2.0)
        # rows are (e_k e_l - e_l e_k)/sqrt(2) for (k,l) = (0,1), (0,2), (1,2)
        expected = np.zeros((3, 9), dtype=np.complex128)
        expected[0, 0 * 3 + 1] = inv
        expected[0, 1 * 3 + 0] = -inv
        expected[1, 0 * 3 + 2] = inv
        expected[1, 2 * 3 + 0] = -inv
        expected[2, 1 * 3 + 2] = inv
        expected[2, 2 * 3 + 1] = -inv
        assert np.allclose(basis.vectors, expected, atol=1e-15)

    def test_n5_projector_valid(self):
        basis = antisymmetric_subspace(5)
        assert basis.vectors.shape == (10, 25)
        report = projector_from_basis(basis).report()
        assert report.passes and report.dim == 10

    def test_swap_eigenvalue(self):
        # every basis vector picks up a -1 under factor exchange
        basis = antisymmetric_subspace(3)
        swap = np.zeros((9, 9))
        for i in range(3):
            for k in range(3):
                swap[k * 3 + i, i * 3 + k] = 1.0
        assert np.allclose(basis.vectors @ swap.T, -basis.vectors, atol=1e-15)

    @pytest.mark.parametrize("bad", [1, 0, -2, 2.5, True])
    def test_domain(self, bad):
        with pytest.raises(InputError):
            antisymmetric_subspace(bad)


class TestSymmetricSubspace:
    def test_n1_product_vector(self):
        basis = symmetric_subspace(1)
        assert basis.vectors.shape == (1, 1)
        assert basis.vectors[0, 0] == pytest.approx(1.0)
        s = schmidt_string(projector_from_basis(basis))
        assert s.probs[0] == pytest.approx(1.0, abs=1e-12)
        assert s.k == 1

    def test_n2_spans_triplet(self):
        # same projector as the hand-listed triplet basis, which uses the
        # rotated pair ((e1 e1 +- e2 e2)/sqrt(2)) instead of the diagonal one
        basis = symmetric_subspace(2)
        inv = 1.0 / math.sqrt(2.0)
        other = np.zeros((3, 4), dtype=np.complex128)
        other[0, 0] = inv
        other[0, 3] = inv
        other[1, 0] = inv
        other[1, 3] = -inv
        other[2, 1] = inv
        other[2, 2] = inv
        p_mine = projector_from_basis(basis).matrix
        p_other = other.T @ other.conj()
        assert np.allclose(p_mine, p_other, atol=1e-15)

    def test_n4_trace(self):
        p = projector_from_basis(symmetric_subspace(4))
        assert p.dim == 10
        assert np.trace(p.matrix).real == pytest.approx(10.0, abs=1e-12)

    def test_swap_invariance(self):
        basis = symmetric_subspace(3)
        swap = np.zeros((9, 9))
        for i in range(3):
            for k in range(3):
                swap[k * 3 + i, i * 3 + k] = 1.0
        assert np.allclose(basis.vectors @ swap.T, basis.vectors, atol=1e-15)

    def test_domain(self):
        with pytest.raises(InputError):
            symmetric_subspace(0)


@pytest.mark.parametrize("n", range(1, 25))
def test_exchange_bases_match_pair_loop(n):
    # the vectorized fill gives the old per-pair loop's vectors bit for bit
    for build, sign in ((antisymmetric_subspace, -1), (symmetric_subspace, 1)):
        if n == 1 and sign < 0:
            continue
        want = exchange_subspace_reference(n, sign)
        assert build(n).vectors.tobytes() == want.tobytes()


def float_bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


EXCHANGE_FAMILIES = ((antisymmetric_subspace, -1), (symmetric_subspace, 1))


class TestExchangeProjector:
    """The presets' P = (I +- SWAP) / 2, built from its entries alone."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_bits_match_basis_route(self, n):
        for build, sign in EXCHANGE_FAMILIES:
            if n == 1 and sign < 0:
                continue
            p = _exchange_projector(n, sign)
            want = projector_from_basis(build(n))
            if n >= 2:
                # sym n = 1 is one nonzero entry, which the basis route
                # stores as a full pattern
                assert np.array_equal(p._entries.nonzero, want._entries.nonzero)
                assert np.array_equal(
                    float_bits(p._entries.values.view(np.float64)),
                    float_bits(want._entries.values.view(np.float64)),
                )
            got, ref = p.report(), want.report()
            assert (got.dim, got.passes) == (ref.dim, ref.passes)
            for name in ("hermiticity", "idempotency", "trace", "norm"):
                assert float_bits(getattr(got, name)) == float_bits(getattr(ref, name))
            assert np.array_equal(
                float_bits(schmidt_string(p).probs),
                float_bits(schmidt_string(want).probs),
            )
            assert "matrix" not in vars(p)

    @pytest.mark.parametrize("n", [2, 3, 24])
    def test_nonzeros_are_the_swap_pairs_and_diagonal(self, n):
        for sign, count in ((-1, 2 * n * n - 2 * n), (1, 2 * n * n - n)):
            p = _exchange_projector(n, sign)
            assert p._entries.nonzero.size == count
            swap = np.eye(n * n)[[l * n + k for k in range(n) for l in range(n)]]
            assert np.allclose(p.matrix, (np.eye(n * n) + sign * swap) / 2, atol=1e-15)

    def test_domain_and_budget(self):
        with pytest.raises(InputError, match=r"^n must be an integer >= 2, got 1$"):
            _exchange_projector(1, -1)
        with pytest.raises(InputError, match=r"^n must be an integer >= 1, got 0$"):
            _exchange_projector(0, 1)
        # 400 n^2 estimated bytes: n = 1581 is within BYTE_BUDGET, 1582 not
        assert 400 * 1581**2 <= BYTE_BUDGET < 400 * 1582**2
        for n in (1582, 3000, 4_000_000_000, 10**40):
            with pytest.raises(InputError, match=f"^n={n} needs about "):
                _exchange_projector(n, 1)


def traced_refusal(build, n) -> tuple[str, int]:
    """The InputError message `build(n)` raises and the traced peak."""
    tracemalloc.start()
    try:
        with pytest.raises(InputError) as info:
            build(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return str(info.value), peak


class TestExchangeSubspaceBudget:
    """The library bases are refused over the byte budget, not allocated."""

    def test_budget_edge(self):
        # 28 n^4 estimated bytes: n = 77 is within BYTE_BUDGET, 78 not
        assert 28 * 77**4 <= BYTE_BUDGET < 28 * 78**4

    @pytest.mark.parametrize("build", [antisymmetric_subspace, symmetric_subspace])
    @pytest.mark.parametrize("n", [78, 3000, 10**40])
    def test_refused_before_allocating(self, build, n):
        message, peak = traced_refusal(build, n)
        assert message == f"n={n} needs about {28 * n**4:,} bytes, budget 1,000,000,000"
        assert peak < 1_000_000


class TestClosedStrings:
    def test_antisym_n2_uniform(self):
        s = antisym_string_closed(2)
        assert np.allclose(s.probs, [0.25] * 4, atol=1e-15)
        assert s.k == 4

    def test_antisym_n3(self):
        s = antisym_string_closed(3)
        expected = [4.0 / 12.0] + [1.0 / 12.0] * 8
        assert np.allclose(s.probs, expected, atol=1e-15)

    def test_sym_n1(self):
        s = sym_string_closed(1)
        assert s.probs.tolist() == [1.0]

    def test_sym_n2(self):
        s = sym_string_closed(2)
        expected = [9.0 / 12.0] + [1.0 / 12.0] * 3
        assert np.allclose(s.probs, expected, atol=1e-15)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_antisym_matches_pipeline(self, n):
        p = projector_from_basis(antisymmetric_subspace(n))
        dev = string_deviation(schmidt_string(p), antisym_string_closed(n))
        assert dev < 1e-9

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sym_matches_pipeline(self, n):
        p = projector_from_basis(symmetric_subspace(n))
        dev = string_deviation(schmidt_string(p), sym_string_closed(n))
        assert dev < 1e-9

    def test_domains(self):
        with pytest.raises(InputError):
            antisym_string_closed(1)
        with pytest.raises(InputError):
            sym_string_closed(0)


class TestSpinOperators:
    def test_half_matches_pauli(self):
        jp, jm, j3 = spin_operators(1)
        assert np.allclose(jp, [[0, 1], [0, 0]], atol=1e-15)
        assert np.allclose(jm, [[0, 0], [1, 0]], atol=1e-15)
        assert np.allclose(j3, np.diag([0.5, -0.5]), atol=1e-15)

    def test_one_superdiagonal(self):
        jp, _, j3 = spin_operators(SpinLabel(2))
        root2 = math.sqrt(2.0)
        assert np.allclose(jp, [[0, root2, 0], [0, 0, root2], [0, 0, 0]], atol=1e-15)
        assert np.allclose(j3, np.diag([1.0, 0.0, -1.0]), atol=1e-15)

    @pytest.mark.parametrize("two_j", range(1, 21))
    def test_ladder_commutator(self, two_j):
        jp, jm, j3 = spin_operators(two_j)
        assert np.allclose(jp @ jm - jm @ jp, 2.0 * j3, atol=1e-12)
        assert np.allclose(j3 @ jp - jp @ j3, jp, atol=1e-12)

    @pytest.mark.parametrize("two_j", [1, 2, 5, 20])
    def test_casimir(self, two_j):
        jp, jm, j3 = spin_operators(two_j)
        j = two_j / 2.0
        casimir = 0.5 * (jp @ jm + jm @ jp) + j3 @ j3
        assert np.allclose(
            casimir, j * (j + 1.0) * np.eye(two_j + 1), atol=1e-12
        )

    def test_label_validation(self):
        with pytest.raises(InputError):
            SpinLabel(0)
        with pytest.raises(InputError):
            SpinLabel(1.5)
        assert SpinLabel(3).j == 1.5
        assert SpinLabel(3).dim == 4


class TestSpinCoupling:
    def test_x_spectrum_half(self):
        vals = np.linalg.eigvalsh(spin_x_operator(1))
        assert np.allclose(sorted(vals), [-1.5, 0.5, 0.5, 0.5], atol=1e-13)

    def test_x_spectrum_one(self):
        vals = np.linalg.eigvalsh(spin_x_operator(2))
        assert np.allclose(sorted(vals), [-2, -2, 1, 1, 1, 1], atol=1e-13)

    @pytest.mark.parametrize("two_j", range(1, 11))
    def test_x_hermitian(self, two_j):
        x = spin_x_operator(two_j)
        assert np.allclose(x, x.conj().T, atol=1e-14)

    @pytest.mark.parametrize("two_j", range(1, 11))
    def test_projectors_complete(self, two_j):
        plus = spin_projector(two_j, Branch.PLUS)
        minus = spin_projector(two_j, Branch.MINUS)
        total = plus.matrix + minus.matrix
        assert np.allclose(total, np.eye(2 * (two_j + 1)), atol=1e-12)
        assert plus.dim == two_j + 2
        assert minus.dim == two_j

    @pytest.mark.parametrize("two_j", [*range(1, 41), 1000])
    def test_projector_matches_coupling_operator(self, two_j):
        # bitwise: the entries the builder hands over are the nonzeros of
        # (X +- c I) / (2j + 1), and give the report of that dense matrix
        x = spin_x_operator(two_j)
        eye = np.eye(x.shape[0], dtype=np.complex128)
        j = two_j / 2.0
        denom = float(two_j + 1)
        plus = (x + (j + 1.0) * eye) / denom
        minus = (j * eye - x) / denom
        for branch, dense in ((Branch.PLUS, plus), (Branch.MINUS, minus)):
            p = spin_projector(two_j, branch)
            assert p.report() == validate_projector(dense)
            assert p.report().trace == abs(complex(np.trace(dense)) - p.dim)
            assert np.array_equal(p._entries.nonzero, np.flatnonzero(dense))
            assert np.array_equal(p.matrix, dense)

    def test_large_string_makes_no_dense_projector(self):
        # the dense 2002 x 2002 projector alone would take 64 MB
        import tracemalloc

        tracemalloc.start()
        try:
            schmidt_string(spin_projector(1000, Branch.PLUS))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_half_minus_is_singlet(self):
        p = spin_projector(1, Branch.MINUS)
        assert np.allclose(p.matrix, np.outer(SINGLET, SINGLET.conj()), atol=1e-14)
        s = schmidt_string(p)
        assert np.allclose(s.probs, [0.25] * 4, atol=1e-12)

    def test_half_plus_is_triplet(self):
        p = spin_projector(1, Branch.PLUS)
        expected = np.eye(4) - np.outer(SINGLET, SINGLET.conj())
        assert np.allclose(p.matrix, expected, atol=1e-14)

    def test_refused_over_the_byte_budget(self):
        # 720 (2j + 1) estimated bytes: 2j = 1,388,887 is within
        # BYTE_BUDGET, 1,388,888 not
        assert 720 * 1_388_888 <= BYTE_BUDGET < 720 * 1_388_889
        for two_j in (1_388_888, 10**15, 10**40):
            for branch in Branch:
                message, peak = traced_refusal(lambda t: spin_projector(t, branch), two_j)
                need = 720 * (two_j + 1)
                assert message == f"2j={two_j} needs about {need:,} bytes, budget 1,000,000,000"
                assert peak < 1_000_000

    def test_branch_type_checked(self):
        message = "^branch must be a Branch, got 'plus'$"
        for build in (spin_projector, spin_string_closed):
            with pytest.raises(InputError, match=message):
                build(1, "plus")


class TestSpinStrings:
    def test_plus_half(self):
        s = spin_string_closed(1, Branch.PLUS)
        assert np.allclose(s.probs, [0.75] + [1.0 / 12.0] * 3, atol=1e-15)

    def test_plus_one(self):
        s = spin_string_closed(SpinLabel(2), Branch.PLUS)
        assert np.allclose(s.probs, [2.0 / 3.0] + [1.0 / 9.0] * 3, atol=1e-15)

    def test_minus_half_uniform(self):
        s = spin_string_closed(1, Branch.MINUS)
        assert np.allclose(s.probs, [0.25] * 4, atol=1e-15)

    def test_minus_one(self):
        s = spin_string_closed(2, Branch.MINUS)
        assert np.allclose(s.probs, [1.0 / 3.0] + [2.0 / 9.0] * 3, atol=1e-15)

    @pytest.mark.parametrize("two_j", range(1, 21))
    @pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
    def test_matches_pipeline(self, two_j, branch):
        s = schmidt_string(spin_projector(two_j, branch))
        dev = string_deviation(s, spin_string_closed(two_j, branch))
        assert dev < 1e-9

    def test_length_constant(self):
        assert SPIN_STRING_LENGTH == 4
        assert len(spin_string_closed(7, Branch.PLUS)) == 4


class TestLimitingString:
    def test_value(self):
        s = limiting_string()
        assert np.allclose(s.probs, [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-15)

    def test_both_branches_converge(self):
        target = limiting_string()
        for branch in (Branch.PLUS, Branch.MINUS):
            dev = string_deviation(spin_string_closed(50, branch), target)
            assert dev < 1e-2

    def test_limit_sits_between_branches(self):
        target = limiting_string()
        for two_j in (1, 4, 20):
            plus = spin_string_closed(two_j, Branch.PLUS)
            minus = spin_string_closed(two_j, Branch.MINUS)
            assert compare(target, plus) is Verdict.MORE_ENTANGLED
            assert compare(target, minus) is Verdict.LESS_ENTANGLED


class TestClosedMeasures:
    def test_antisym_n3_tangle(self):
        assert closed_measures("antisym", 3).e_t == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_sym_n1_all_zero(self):
        m = closed_measures("sym", 1)
        assert m.e_d == pytest.approx(0.0, abs=1e-12)
        assert m.e_i == pytest.approx(0.0, abs=1e-12)
        assert m.e_t == pytest.approx(0.0, abs=1e-12)

    def test_spin_half_tangles(self):
        assert closed_measures("spin_plus", 1).e_t == pytest.approx(
            5.0 / 12.0, abs=1e-15
        )
        assert closed_measures("spin_minus", 1).e_t == pytest.approx(
            0.75, abs=1e-15
        )

    @pytest.mark.parametrize("n", range(2, 13))
    def test_antisym_matches_string(self, n):
        closed = closed_measures("antisym", n)
        direct = measures(antisym_string_closed(n))
        assert closed.e_d == pytest.approx(direct.e_d, abs=1e-12)
        assert closed.e_i == pytest.approx(direct.e_i, abs=1e-12)
        assert closed.e_t == pytest.approx(direct.e_t, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sym_matches_string(self, n):
        closed = closed_measures("sym", n)
        direct = measures(sym_string_closed(n))
        assert closed.e_d == pytest.approx(direct.e_d, abs=1e-12)
        assert closed.e_i == pytest.approx(direct.e_i, abs=1e-12)
        assert closed.e_t == pytest.approx(direct.e_t, abs=1e-12)

    @pytest.mark.parametrize("two_j", range(1, 21))
    def test_spin_matches_string(self, two_j):
        for family, branch in (
            ("spin_plus", Branch.PLUS),
            ("spin_minus", Branch.MINUS),
        ):
            closed = closed_measures(family, two_j)
            direct = measures(spin_string_closed(two_j, branch))
            assert closed.e_d == pytest.approx(direct.e_d, abs=1e-12)
            assert closed.e_i == pytest.approx(direct.e_i, abs=1e-12)
            assert closed.e_t == pytest.approx(direct.e_t, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(InputError, match="unknown family"):
            closed_measures("nope", 3)
        with pytest.raises(InputError):
            closed_measures("antisym", 1)
        with pytest.raises(InputError):
            closed_measures("sym", 0)
        with pytest.raises(InputError):
            closed_measures("spin_plus", 0)
        with pytest.raises(InputError):
            closed_measures("antisym", 3.0)

    def test_families_constant(self):
        assert FAMILIES == ("antisym", "sym", "spin_plus", "spin_minus")


class TestHydrogenLevel:
    def test_n1_single_doublet(self):
        level = hydrogen_level(1)
        assert level.n == 1
        assert len(level.entries) == 1
        entry = level.entries[0]
        assert entry.label == "V_1/2"
        assert entry.l == 0
        assert entry.dim == 2
        assert np.allclose(entry.string.probs, [1, 0, 0, 0], atol=1e-15)

    def test_n2_strings(self):
        level = hydrogen_level(2)
        by_label = {e.label: e for e in level.entries}
        assert set(by_label) == {"V_1/2", "V_3/2", "Vt_1/2"}
        assert np.allclose(
            by_label["V_3/2"].string.probs, [2 / 3] + [1 / 9] * 3, atol=1e-15
        )
        assert np.allclose(
            by_label["Vt_1/2"].string.probs, [1 / 3] + [2 / 9] * 3, atol=1e-15
        )
        assert by_label["V_3/2"].dim == 4
        assert by_label["Vt_1/2"].dim == 2

    def test_n3_structure(self):
        level = hydrogen_level(3)
        assert len(level.entries) == 5
        assert [e.label for e in level.entries] == [
            "V_1/2",
            "V_3/2",
            "Vt_1/2",
            "V_5/2",
            "Vt_3/2",
        ]
        assert sum(e.dim for e in level.entries) == 18

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dimension_sum(self, n):
        level = hydrogen_level(n)
        assert len(level.entries) == 2 * n - 1
        assert sum(e.dim for e in level.entries) == 2 * n * n

    def test_domain(self):
        with pytest.raises(InputError):
            hydrogen_level(0)

    @pytest.mark.parametrize("n", [7906, 10**20, 10**40])
    def test_refused_over_the_byte_budget(self, n):
        # 4 (2n)^2 estimated bytes: n = 7905 is within BYTE_BUDGET, 7906 not
        assert 4 * (2 * 7905) ** 2 <= BYTE_BUDGET < 4 * (2 * 7906) ** 2
        message, peak = traced_refusal(hydrogen_level, n)
        need = 4 * (2 * n) ** 2
        assert message == f"n={n} needs about {need:,} bytes, budget 1,000,000,000"
        assert peak < 1_000_000

    def test_rows_are_the_closed_strings_bit_for_bit(self):
        # the stacked level against spin_string_closed and the scalar formula
        level = hydrogen_level(400)
        assert len(level.entries) == 799
        assert float_bits(level.entries[0].string.probs).tolist() == float_bits(
            [1.0, 0.0, 0.0, 0.0]
        ).tolist()
        for e in level.entries[1:]:
            j = float(e.l)
            denom = 2.0 * j + 1.0
            big, small = (j + 1.0, j) if e.branch is Branch.PLUS else (j, j + 1.0)
            scalar = [big / denom] + [small / (3.0 * denom)] * 3
            closed = spin_string_closed(SpinLabel(2 * e.l), e.branch).probs
            assert float_bits(e.string.probs).tolist() == float_bits(closed).tolist()
            assert float_bits(e.string.probs).tolist() == float_bits(scalar).tolist()
            assert e.string.k == 4 and not e.string.probs.flags.writeable

    def test_level_invariants_enforced(self):
        good = hydrogen_level(2)
        with pytest.raises(InputError, match="entries"):
            HydrogenLevel(n=2, entries=good.entries[:2])
        # three entries, but V_3/2 twice: 2 + 4 + 4 dimensions
        twice = (good.entries[0], good.entries[1], good.entries[1])
        message = "^entry dimensions sum to 10, expected 8$"
        with pytest.raises(InputError, match=message):
            HydrogenLevel(n=2, entries=twice)
