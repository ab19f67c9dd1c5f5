import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subent import (
    Factorization,
    InputError,
    NumericalError,
    Projector,
    SchmidtString,
    SubspaceBasis,
    antisymmetric_subspace,
    embed,
    gram_schmidt,
    hermitian_eigenvalues,
    measures,
    projector_from_basis,
    pure_subspace_string,
    realign,
    schmidt_string,
    symmetric_subspace,
    validate_projector,
    vector_schmidt,
)
from subent import linalg, schmidt
from subent.tolerances import (
    PROJECTOR_HERMITICITY_TOL,
    PROJECTOR_IDEMPOTENCY_TOL,
    PROJECTOR_TRACE_TOL,
    REALIGN_NORM_TOL,
)

from .helpers import (
    full_realignment_gram,
    kept_whole,
    off_norm_projector,
    partial_trace_coefficients,
    permuted_block_basis,
    random_basis,
    random_hermitian,
    random_unitary,
    realigned_gram_eigenvalues_mp,
    string_deviation,
    tiles_upb,
)

SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)


def singlet_projector() -> Projector:
    basis = SubspaceBasis(Factorization(2, 2), SINGLET.reshape(1, 4))
    return projector_from_basis(basis)


class TestSchmidtStringType:
    def test_from_probs_pads_and_counts(self):
        s = SchmidtString.from_probs([0.5, 0.5], length=4)
        assert list(s.probs) == [0.5, 0.5, 0.0, 0.0]
        assert s.k == 2
        assert len(s) == 4

    def test_rejects_bad_sum(self):
        with pytest.raises(InputError, match="sum"):
            SchmidtString.from_probs([0.5, 0.4])

    def test_rank_is_derived_from_probs(self):
        s = SchmidtString(probs=np.array([0.75, 0.25, 0.0]))
        assert s.k == 2
        with pytest.raises(TypeError):
            SchmidtString(probs=np.array([1.0]), k=1)

    def test_rejects_increasing_order(self):
        with pytest.raises(InputError, match="non-increasing"):
            SchmidtString(probs=np.array([0.25, 0.75]))

    def test_rejects_negative(self):
        with pytest.raises(InputError, match="negative"):
            SchmidtString.from_probs([1.2, -0.2])

    def test_clamps_tiny_negative(self):
        s = SchmidtString.from_probs([1.0, -5e-11])
        assert s.k == 1
        assert s.probs[1] == 0.0

    def test_threshold_zeroes_small_entries(self):
        s = SchmidtString.from_probs(
            [1.0 - 1e-12, 1e-12], zero_threshold=1e-10
        )
        assert s.k == 1

    def test_probs_read_only(self):
        s = SchmidtString.from_probs([1.0])
        with pytest.raises(ValueError):
            s.probs[0] = 0.5


class TestRealign:
    def test_whole_space_is_rank_one(self):
        p = projector_from_basis(SubspaceBasis(Factorization(2, 2), np.eye(4)))
        a = realign(p)
        sv = np.linalg.svd(a, compute_uv=False)
        assert sv[0] == pytest.approx(1.0)
        assert np.max(sv[1:]) < 1e-14

    def test_singlet_singular_values(self):
        a = realign(singlet_projector())
        sv = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(sv, [0.5, 0.5, 0.5, 0.5])

    def test_index_convention(self):
        # A[(i*d1+j), (k*d2+l)] = P[(i*d2+k), (j*d2+l)] / sqrt(dim)
        rng = np.random.default_rng(17)
        p = projector_from_basis(random_basis(rng, Factorization(2, 3), 2))
        a = realign(p)
        d1, d2, d = 2, 3, 2
        for i in range(d1):
            for j in range(d1):
                for k in range(d2):
                    for l in range(d2):
                        assert a[i * d1 + j, k * d2 + l] == pytest.approx(
                            p.matrix[i * d2 + k, j * d2 + l] / math.sqrt(d)
                        )

    def test_unit_frobenius_norm(self):
        rng = np.random.default_rng(18)
        for _ in range(5):
            p = projector_from_basis(random_basis(rng, Factorization(3, 3), 4))
            assert abs(np.linalg.norm(realign(p)) - 1.0) < 1e-12


class TestReducedSuperop:
    # the reduced operator-space states of P / sqrt(dim V): the Gram matrices
    # A A^dagger (side 1) and A^dagger A (side 2) of the realigned matrix

    def test_shapes(self):
        rng = np.random.default_rng(19)
        p = projector_from_basis(random_basis(rng, Factorization(2, 3), 2))
        assert full_realignment_gram(p, 1).shape == (4, 4)
        assert full_realignment_gram(p, 2).shape == (9, 9)

    def test_unit_trace_and_psd(self):
        rng = np.random.default_rng(20)
        for side in (1, 2):
            g = full_realignment_gram(
                projector_from_basis(random_basis(rng, Factorization(3, 2), 3)), side
            )
            assert abs(np.trace(g).real - 1.0) < 1e-10
            assert np.min(np.linalg.eigvalsh(g)) > -1e-12

    def test_sides_share_nonzero_spectrum(self):
        rng = np.random.default_rng(23)
        p = projector_from_basis(random_basis(rng, Factorization(2, 4), 3))
        w1 = hermitian_eigenvalues(full_realignment_gram(p, 1))
        w2 = hermitian_eigenvalues(full_realignment_gram(p, 2))
        small = min(w1.size, w2.size)
        assert np.max(np.abs(w1[:small] - w2[:small])) < 1e-10
        assert np.max(np.abs(w2[small:])) < 1e-10

    def test_product_subspace_rank_one(self):
        # a subspace of product form leaves a pure reduced state
        basis = SubspaceBasis(
            Factorization(2, 2), np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        )
        g = full_realignment_gram(projector_from_basis(basis), 1)
        w = np.sort(np.linalg.eigvalsh(g))[::-1]
        assert w[0] == pytest.approx(1.0)
        assert np.max(np.abs(w[1:])) < 1e-12

    def test_spin_q_matrix_j1(self):
        # plus branch at j=1, spin side; pair basis ordered (++, +-, -+, --)
        from subent import Branch, SpinLabel, spin_projector

        q = full_realignment_gram(spin_projector(SpinLabel(2), Branch.PLUS), 2)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 7.0 / 18.0
        expected[1, 1] = expected[2, 2] = 1.0 / 9.0
        expected[0, 3] = expected[3, 0] = 5.0 / 18.0
        assert np.max(np.abs(q - expected)) < 1e-12


def catalog_projector(name: str, size: int) -> Projector:
    from subent import Branch, spin_projector

    if name == "antisym":
        return projector_from_basis(antisymmetric_subspace(size))
    if name == "sym":
        return projector_from_basis(symmetric_subspace(size))
    return spin_projector(size, Branch.PLUS if name == "plus" else Branch.MINUS)


CATALOG_CASES = [
    ("antisym", 2),
    ("antisym", 3),
    ("antisym", 6),
    ("sym", 2),
    ("sym", 3),
    ("sym", 6),
    ("plus", 1),
    ("plus", 2),
    ("plus", 7),
    ("plus", 20),
    ("minus", 2),
    ("minus", 7),
    ("minus", 20),
]


def realigned_split(p: Projector):
    """The arguments `schmidt_string` hands `linalg._blocks` for `p` and the
    blocks it gets back, or None when it splits nothing."""
    calls = []

    def spy(*args):
        calls.append((args, linalg._blocks(*args)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schmidt, "_blocks", spy)
        schmidt_string(p)
    assert len(calls) <= 1
    return calls[0] if calls else None


def solved_stacks(p: Projector, mp: pytest.MonkeyPatch) -> list[tuple[int, ...]]:
    """The shapes of the stacks the eigensolver sees in `schmidt_string(p)`."""
    shapes = []
    original = np.linalg.eigvalsh

    def recording(h):
        shapes.append(h.shape)
        return original(h)

    mp.setattr(np.linalg, "eigvalsh", recording)
    schmidt_string(p)
    return shapes


class TestCompressedRealignment:
    # a sparse P is mapped to the nonzero entries of A and split into the
    # connected blocks of their pattern; put back at their rows and columns
    # the blocks rebuild realign(p) exactly, and no two share a row or column

    @staticmethod
    def assert_blocks_rebuild_realignment(p: Projector):
        split = realigned_split(p)
        if split is None:
            assert p._entries.nonzero is None
            return
        (rows, cols, values, shape, square), blocks = split
        assert not square
        # the same split of probes that name their own row and column
        probes = linalg._blocks(rows, cols, (rows + 1) + 1j * (cols + 1), shape, False)
        a = realign(p)
        rebuilt = np.zeros_like(a)
        used_rows, used_cols = [], []
        for stack, probe in zip(blocks, probes, strict=True):
            assert stack.shape == probe.shape
            for b, q in zip(stack, probe):
                r = q.real.max(axis=1).astype(np.intp) - 1
                c = q.imag.max(axis=0).astype(np.intp) - 1
                # every row and column of a block holds a nonzero, in place
                assert np.all(r >= 0) and np.all(c >= 0)
                assert np.all((q == 0) | (q == (r + 1)[:, None] + 1j * (c + 1)))
                assert np.all(np.diff(r) > 0) and np.all(np.diff(c) > 0)
                rebuilt[np.ix_(r, c)] = b
                used_rows += list(r)
                used_cols += list(c)
        assert len(set(used_rows)) == len(used_rows)
        assert len(set(used_cols)) == len(used_cols)
        assert np.array_equal(rebuilt, a)

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.sampled_from([(1, 3), (2, 3), (2, 4), (3, 3), (4, 4), (3, 2), (4, 1)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_permuted_block_subspaces(self, shape, seed):
        rng = np.random.default_rng(seed)
        p = projector_from_basis(permuted_block_basis(rng, Factorization(*shape)))
        self.assert_blocks_rebuild_realignment(p)

    @pytest.mark.parametrize("name, size", CATALOG_CASES)
    def test_catalog_projectors(self, name, size):
        p = catalog_projector(name, size)
        assert np.any(p.matrix == 0)
        self.assert_blocks_rebuild_realignment(p)

    def test_full_pattern_keeps_the_full_realignment(self):
        rng = np.random.default_rng(29)
        p = projector_from_basis(random_basis(rng, Factorization(3, 4), 5))
        assert np.all(p.matrix != 0)
        # a dense projector keeps no index array and is not split
        assert p._entries.nonzero is None
        assert realigned_split(p) is None
        # one solve of the whole smaller Gram
        g = full_realignment_gram(p, 1)
        w = np.linalg.eigvalsh((g + g.conj().T) / 2.0)[::-1]
        expected = SchmidtString.from_probs(w, length=9, zero_threshold=1e-10)
        assert np.array_equal(schmidt_string(p).probs, expected.probs)

    @pytest.mark.parametrize("name, size", CATALOG_CASES)
    def test_pattern_is_the_one_validation_found(self, name, size):
        # the string is taken from the entries kept at validation; no dense
        # P is built for it
        p = catalog_projector(name, size)
        schmidt_string(p)
        assert "matrix" not in vars(p)
        assert np.array_equal(p._entries.nonzero, np.flatnonzero(p.matrix))

    def test_single_block_pattern_is_compressed(self):
        # one connected block, so validation takes P whole; the string side
        # still splits the 12 nonzeros validation kept
        m = np.array([[1, 0, 1, -1], [0, 1, 1, 1], [1, 1, 2, 0], [-1, 1, 0, 2]]) / 3
        p = Projector(Factorization(2, 2), m, dim=2)
        assert kept_whole(p.matrix)
        assert p._entries.nonzero.size == 12
        self.assert_blocks_rebuild_realignment(p)

    def test_large_pattern_is_not_scanned_again(self):
        # scanning all 4,008,004 entries of P allocates a 4 MB mask; the
        # 4,002 nonzeros kept by validation and the blocks of A need far less
        import tracemalloc

        from subent import Branch, SpinLabel, spin_projector

        p = spin_projector(SpinLabel(1000), Branch.PLUS)
        tracemalloc.start()
        try:
            schmidt_string(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_one_search_and_block_sized_solves(self, monkeypatch):
        # antisym n=24: A has 552 singletons (i, k) x (k, i) and one 24 x 24
        # block (i, i) x (k, k); one label search over its 576 + 576 nonzero
        # rows and columns finds them all
        p = catalog_projector("antisym", 24)
        searches = []
        original = linalg._component_labels

        def counting(*args):
            searches.append(args[2])
            return original(*args)

        monkeypatch.setattr(linalg, "_component_labels", counting)
        assert solved_stacks(p, monkeypatch) == [(552, 1, 1), (1, 24, 24)]
        assert searches == [576 + 576]

    def test_spin_stacks(self, monkeypatch):
        p = catalog_projector("plus", 1000)
        assert solved_stacks(p, monkeypatch) == [(2, 1, 1), (1, 2, 2)]

    def test_unsettled_labels_make_one_block(self, monkeypatch):
        # every nonzero row and column of A in one block: 3 + 6 of each
        p = catalog_projector("antisym", 3)
        expected = schmidt_string(p).probs
        monkeypatch.setattr(linalg, "_component_labels", lambda *args: None)
        assert solved_stacks(p, monkeypatch) == [(1, 9, 9)]
        assert np.max(np.abs(schmidt_string(p).probs - expected)) <= 1e-15


class TestDefinitionOracle:
    # A[(i, j), (k, l)] = P[(i, k), (j, l)] / sqrt(dim), built entry by entry
    # at 50 digits: the string is the spectrum of A A^dagger

    @settings(max_examples=40, deadline=None)
    @given(
        d1=st.integers(1, 3),
        d2=st.integers(1, 3),
        blocks=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_random_subspaces(self, d1, d2, blocks, seed, data):
        rng = np.random.default_rng(seed)
        f = Factorization(d1, d2)
        if blocks:
            basis = permuted_block_basis(rng, f)
        else:
            basis = random_basis(rng, f, data.draw(st.integers(1, f.dim)))
        p = projector_from_basis(basis)
        w = realigned_gram_eigenvalues_mp(p)
        assert string_deviation(schmidt_string(p), w) <= 1e-13

    @pytest.mark.parametrize(
        "name, size",
        [("antisym", 2), ("antisym", 3), ("sym", 2), ("sym", 3), ("plus", 2), ("minus", 2)],
    )
    def test_catalog_projectors(self, name, size):
        p = catalog_projector(name, size)
        w = realigned_gram_eigenvalues_mp(p)
        assert string_deviation(schmidt_string(p), w) <= 1e-13


class TestRealignmentCriterion:
    # Chen & Wu (quant-ph/0205017): a separable rho has ||R(rho)||_tr <= 1.
    # For rho = P / dim that norm is sum_i sqrt(p_i) / sqrt(dim).

    @staticmethod
    def root_sum(p: Projector) -> float:
        return float(np.sqrt(schmidt_string(p).probs).sum())

    @settings(max_examples=100, deadline=None)
    @given(
        d1=st.integers(1, 4),
        d2=st.integers(1, 4),
        rotated=st.sampled_from(["none", "second", "both"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_product_vector_spans_are_separable(self, d1, d2, rotated, seed, data):
        # u_a (x) v_ab over an orthonormal basis u of H1 and one orthonormal
        # basis v_a of H2 per a are orthonormal product vectors
        rng = np.random.default_rng(seed)
        f = Factorization(d1, d2)
        u = random_unitary(rng, d1) if rotated == "both" else np.eye(d1)
        rows = []
        for a in range(d1):
            v = np.eye(d2) if rotated == "none" else random_unitary(rng, d2)
            rows += [np.kron(u[:, a], v[:, b]) for b in range(d2)]
        picked = data.draw(
            st.lists(st.integers(0, f.dim - 1), min_size=1, max_size=f.dim, unique=True)
        )
        p = projector_from_basis(SubspaceBasis(f, np.array(rows)[picked]))
        assert self.root_sum(p) <= math.sqrt(p.dim) + 1e-12

    def test_tiles_upb_span_is_separable(self):
        p = projector_from_basis(SubspaceBasis(Factorization(3, 3), tiles_upb()))
        assert self.root_sum(p) / math.sqrt(5) == pytest.approx(0.8964, abs=1e-4)

    def test_tiles_upb_complement_is_detected(self):
        # the complement of an unextendible product basis is PPT yet
        # entangled (Bennett et al., PRL 82, 5385, 1999)
        f = Factorization(3, 3)
        upb = projector_from_basis(SubspaceBasis(f, tiles_upb()))
        p = Projector.from_matrix(f, np.eye(9) - upb.matrix)
        assert p.dim == 4
        norm = self.root_sum(p) / 2.0
        assert norm > 1.0
        assert norm == pytest.approx(1.087412, abs=1e-6)


class TestSchmidtStringPipeline:
    def test_antisym_n3(self):
        p = projector_from_basis(antisymmetric_subspace(3))
        s = schmidt_string(p)
        expected = np.array([4.0] + [1.0] * 8) / 12.0
        assert np.max(np.abs(s.probs - expected)) < 1e-12
        assert s.k == 9

    def test_sym_n2(self):
        p = projector_from_basis(symmetric_subspace(2))
        s = schmidt_string(p)
        expected = np.array([9.0, 1.0, 1.0, 1.0]) / 12.0
        assert np.max(np.abs(s.probs - expected)) < 1e-12

    def test_spin_half_plus(self):
        from subent import Branch, SpinLabel, spin_projector

        s = schmidt_string(spin_projector(SpinLabel(1), Branch.PLUS))
        expected = np.array([0.75, 1.0 / 12.0, 1.0 / 12.0, 1.0 / 12.0])
        assert np.max(np.abs(s.probs - expected)) < 1e-12

    def test_length_is_smaller_square(self):
        rng = np.random.default_rng(29)
        p = projector_from_basis(random_basis(rng, Factorization(2, 5), 3))
        assert len(schmidt_string(p)) == 4

    def test_zero_threshold_controls_rank(self):
        p = projector_from_basis(SubspaceBasis(Factorization(2, 2), np.eye(4)))
        assert schmidt_string(p).k == 1
        # with no thresholding, noise-level eigenvalues stay in the count
        raw = schmidt_string(p, zero_threshold=0.0)
        assert raw.k >= 1

    def test_negative_threshold_rejected(self):
        with pytest.raises(InputError):
            schmidt_string(singlet_projector(), zero_threshold=-1.0)


@st.composite
def perturbed_projectors(draw):
    """A random projector (d1, d2 <= 4) with perturbations that each reach up
    to 1.5x the projector tolerance they probe: a scale (1 + a) P against
    the norm, idempotency or trace tolerance, a complement shift b (I - P)
    against the trace tolerance, Hermitian noise against the idempotency
    tolerance and anti-Hermitian noise against the Hermiticity tolerance.
    """
    f = Factorization(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    dim = draw(st.integers(1, f.dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = projector_from_basis(random_basis(rng, f, dim)).matrix
    a, b, c, e = draw(st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4))
    a *= draw(
        st.sampled_from(
            [
                REALIGN_NORM_TOL,
                PROJECTOR_IDEMPOTENCY_TOL / np.max(np.abs(p)),
                PROJECTOR_TRACE_TOL / dim,
            ]
        )
    )
    b *= PROJECTOR_TRACE_TOL / max(f.dim - dim, 1)
    h, k = random_hermitian(rng, f.dim), 1j * random_hermitian(rng, f.dim)
    m = (1 + a) * p + b * (np.eye(f.dim) - p)
    m = m + c * PROJECTOR_IDEMPOTENCY_TOL * h / np.max(np.abs(h))
    m = m + e * PROJECTOR_HERMITICITY_TOL / 2 * k / np.max(np.abs(k))
    return f, m, dim


def fake_spectrum(monkeypatch, ascending):
    """Make the eigensolver return `ascending`, as eigvalsh orders it."""
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda h: np.array(ascending, dtype=np.float64)
    )


def product_projector() -> Projector:
    # |00><00| in 2x2: its reduced matrix has spectrum (1, 0, 0, 0)
    return projector_from_basis(SubspaceBasis(Factorization(2, 2), np.eye(4)[:1]))


class TestStringFromEigenvalues:
    # the spectrum gates between the eigensolver and SchmidtString, driven
    # through schmidt_string by a faulty eigensolver
    def test_too_negative_is_numerical_error(self, monkeypatch):
        # sums to the trace, so only the clamping floor can catch it
        fake_spectrum(monkeypatch, [-0.2, 0.0, 0.0, 1.2])
        with pytest.raises(NumericalError, match="clamping floor"):
            schmidt_string(singlet_projector())

    def test_sum_defect_is_numerical_error(self, monkeypatch):
        fake_spectrum(monkeypatch, [0.0, 0.0, 0.2, 0.7])
        with pytest.raises(NumericalError, match="eigenvalue sum"):
            schmidt_string(singlet_projector())

    def test_clamps_and_pads(self, monkeypatch):
        s = SchmidtString.from_probs([1.0, -5e-11], length=4, zero_threshold=1e-10)
        assert list(s.probs) == [1.0, 0.0, 0.0, 0.0]
        assert s.k == 1
        fake_spectrum(monkeypatch, [-5e-11, 0.0, 0.0, 1.0])
        s = schmidt_string(product_projector(), zero_threshold=0.0)
        assert list(s.probs) == [1.0, 0.0, 0.0, 0.0]
        assert s.k == 1


class TestGates:
    def test_norm_defect_fails_validation(self):
        # the singlet projector taken as 2-dimensional: P / sqrt(2) is not a
        # unit vector, and projector validation is the one gate that checks it
        report = validate_projector(singlet_projector().matrix, dim=2)
        assert report.norm == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-15)
        assert not report.passes

    def test_validated_projector_near_tolerance_gets_string(self):
        # passes validation with idempotency and trace defects just inside
        # their tolerances; ||A||_F^2 - 1 is about 2e-10
        f = Factorization(10, 10)
        p = Projector.from_matrix(f, (1 + 0.99e-10) * np.eye(100))
        assert p.report().passes
        s = schmidt_string(p)
        assert s.k == 1
        assert s.probs[0] == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(case=perturbed_projectors())
    @example(case=(Factorization(10, 10), off_norm_projector(), 1))
    def test_every_validated_matrix_gets_a_string(self, case):
        f, m, dim = case
        if validate_projector(m, dim).passes:
            s = schmidt_string(Projector(f, m, dim))
            assert len(s) == f.schmidt_length

    def test_flooring_real_weight_names_threshold(self):
        with pytest.raises(InputError, match="zero_threshold 0.2 floored weight"):
            SchmidtString.from_probs([0.5, 0.3, 0.1, 0.1], zero_threshold=0.2)
        with pytest.raises(InputError, match="zero_threshold 0.3 floored"):
            schmidt_string(singlet_projector(), zero_threshold=0.3)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1e-12])
    def test_bad_zero_threshold_rejected(self, threshold):
        with pytest.raises(InputError, match="zero_threshold must be finite"):
            SchmidtString.from_probs([1.0], zero_threshold=threshold)
        with pytest.raises(InputError, match="zero_threshold must be finite"):
            pure_subspace_string([1.0], Factorization(2, 2), threshold)

    def test_nan_probabilities_rejected(self):
        with pytest.raises(InputError, match="sum"):
            SchmidtString.from_probs([1.0, float("nan")])
        with pytest.raises(InputError, match="sum"):
            pure_subspace_string([float("nan")], Factorization(2, 2))


class TestMeasures:
    def test_unentangled_all_zero(self):
        m = measures(SchmidtString.from_probs([1.0], length=4))
        assert m.e_d == 0
        assert m.e_i == 0
        assert m.e_t == 0

    def test_antisym_n3_trace_measure(self):
        s = schmidt_string(projector_from_basis(antisymmetric_subspace(3)))
        assert measures(s).e_t == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_sym_n3_entropy(self):
        s = schmidt_string(projector_from_basis(symmetric_subspace(3)))
        # log2(6 / 4**(1/3)) = log2(6) - 2/3
        assert measures(s).e_i == pytest.approx(
            math.log2(6.0) - 2.0 / 3.0, abs=1e-12
        )

    def test_uniform_string(self):
        s = SchmidtString.from_probs([0.25] * 4)
        m = measures(s)
        assert m.e_i == pytest.approx(2.0)
        assert m.e_t == pytest.approx(0.75)
        assert m.e_d == pytest.approx(math.sqrt(2.0 * (1.0 - 0.5)))

    def test_bounds_on_random_projectors(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            d1, d2 = rng.integers(2, 5), rng.integers(2, 5)
            f = Factorization(int(d1), int(d2))
            size = int(rng.integers(1, f.dim + 1))
            s = schmidt_string(projector_from_basis(random_basis(rng, f, size)))
            m = measures(s)
            assert 0 <= m.e_d <= math.sqrt(2.0)
            assert 0 <= m.e_i <= math.log2(f.schmidt_length) + 1e-12
            assert 0 <= m.e_t < 1


class TestVectorSchmidt:
    def test_product_vector(self):
        v = np.zeros(4)
        v[0] = 1.0
        assert np.allclose(vector_schmidt(v, Factorization(2, 2)), [1.0, 0.0])

    def test_singlet(self):
        out = vector_schmidt(SINGLET, Factorization(2, 2))
        assert np.allclose(out, [0.5, 0.5])

    def test_partial_trace_oracle(self):
        rng = np.random.default_rng(37)
        for d1, d2 in ((2, 2), (3, 4), (4, 2)):
            f = Factorization(d1, d2)
            v = rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim)
            v = v / np.linalg.norm(v)
            out = vector_schmidt(v, f)
            oracle = partial_trace_coefficients(v, f)
            assert np.max(np.abs(out - oracle)) < 1e-10

    def test_norm_gate(self):
        v = np.zeros(4)
        v[0] = 1.0 + 1e-6
        with pytest.raises(InputError, match="norm"):
            vector_schmidt(v, Factorization(2, 2))

    def test_wrong_length(self):
        with pytest.raises(InputError, match="length"):
            vector_schmidt(np.ones(3), Factorization(2, 2))


class TestPureSubspaceString:
    def test_product_state(self):
        s = pure_subspace_string([1.0], Factorization(2, 2))
        assert list(s.probs) == [1.0, 0.0, 0.0, 0.0]

    def test_singlet_products(self):
        s = pure_subspace_string([0.5, 0.5], Factorization(2, 2))
        assert np.allclose(s.probs, [0.25] * 4)

    def test_matches_full_pipeline(self):
        rng = np.random.default_rng(41)
        for d1, d2 in ((2, 2), (3, 3), (3, 4)):
            f = Factorization(d1, d2)
            v = rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim)
            v = v / np.linalg.norm(v)
            direct = pure_subspace_string(vector_schmidt(v, f), f)
            basis = SubspaceBasis(f, v.reshape(1, -1))
            pipeline = schmidt_string(projector_from_basis(basis))
            assert np.max(np.abs(direct.probs - pipeline.probs)) < 1e-9

    def test_rejects_too_many_coefficients(self):
        with pytest.raises(InputError, match="exceed"):
            pure_subspace_string([0.5, 0.3, 0.2], Factorization(2, 4))

    def test_rejects_bad_sum(self):
        with pytest.raises(InputError, match="sum"):
            pure_subspace_string([0.5, 0.4], Factorization(2, 2))


class TestProperties:
    def test_embedding_stability(self):
        # Property 1: embedding appends zeros to the string
        rng = np.random.default_rng(43)
        f = Factorization(3, 3)
        for _ in range(10):
            size = int(rng.integers(1, 6))
            basis = random_basis(rng, f, size)
            s_small = schmidt_string(projector_from_basis(basis))
            s_big = schmidt_string(projector_from_basis(embed(basis, 5, 4)))
            small = np.pad(s_small.probs, (0, len(s_big) - len(s_small)))
            assert np.max(np.abs(s_big.probs - small)) < 1e-9

    def test_product_subspace_unentangled(self):
        # Property 2: V1 (x) V2 with factor subspaces is unentangled
        rng = np.random.default_rng(47)
        d1, d2 = 3, 4
        for _ in range(10):
            k1, k2 = int(rng.integers(1, d1 + 1)), int(rng.integers(1, d2 + 1))
            u = gram_schmidt(rng.standard_normal((k1, d1)) + 1j * rng.standard_normal((k1, d1)))
            w = gram_schmidt(rng.standard_normal((k2, d2)) + 1j * rng.standard_normal((k2, d2)))
            vectors = np.einsum("ai,bk->abik", u, w).reshape(k1 * k2, d1 * d2)
            p = projector_from_basis(SubspaceBasis(Factorization(d1, d2), vectors))
            s = schmidt_string(p)
            assert s.probs[0] == pytest.approx(1.0, abs=1e-9)
            assert np.max(s.probs[1:]) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(
        d1=st.integers(1, 4),
        d2=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_local_unitary_and_swap_invariance(self, d1, d2, seed, data):
        # the string of (U1 (x) U2) V, and of V with its factors swapped
        # (index i*d2+k -> k*d1+i over d2 x d1), is the string of V
        rng = np.random.default_rng(seed)
        f = Factorization(d1, d2)
        size = data.draw(st.integers(1, f.dim))
        v = random_basis(rng, f, size).vectors
        s = schmidt_string(projector_from_basis(SubspaceBasis(f, v)))
        u = np.kron(random_unitary(rng, d1), random_unitary(rng, d2))
        swapped = v.reshape(size, d1, d2).transpose(0, 2, 1).reshape(size, -1)
        for other in (
            SubspaceBasis(f, v @ u.T),
            SubspaceBasis(Factorization(d2, d1), swapped),
        ):
            t = schmidt_string(projector_from_basis(other))
            assert string_deviation(s, t) <= 1e-12

    def test_factor_two_entropy_law(self):
        # Property 3: subspace entropy doubles the vector entropy
        rng = np.random.default_rng(53)
        f = Factorization(3, 4)
        for _ in range(10):
            v = rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim)
            v = v / np.linalg.norm(v)
            coeffs = vector_schmidt(v, f)
            nz = coeffs[coeffs > 1e-14]
            vector_entropy = float(-(nz * np.log2(nz)).sum())
            s = schmidt_string(
                projector_from_basis(SubspaceBasis(f, v.reshape(1, -1)))
            )
            assert measures(s).e_i == pytest.approx(2.0 * vector_entropy, abs=1e-9)
