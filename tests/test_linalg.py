import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from subent import (
    Factorization,
    InputError,
    Projector,
    RankDeficiencyWarning,
    SchmidtString,
    SubspaceBasis,
    compare,
    gram_schmidt,
    hermitian_eigenvalues,
    linalg,
    partial_sums,
    pure_subspace_string,
    sort_chain,
    validate_projector,
    vector_schmidt,
)

from .helpers import (
    char_poly_eigenvalues,
    gram_schmidt_reference,
    kept_whole,
    random_hermitian,
    stride_path_hermitian,
)


def complex_matrices(rows, cols, scale=1.0):
    elems = st.floats(-scale, scale, allow_nan=False)
    shape = (rows, cols)
    return st.tuples(
        arrays(np.float64, shape, elements=elems),
        arrays(np.float64, shape, elements=elems),
    ).map(lambda ab: ab[0] + 1j * ab[1])


class TestHermitianEigenvalues:
    def test_identity(self):
        assert np.allclose(hermitian_eigenvalues(np.eye(3)), [1, 1, 1])

    def test_pauli(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.allclose(hermitian_eigenvalues(sx), [1, -1])

    def test_descending_order(self):
        w = hermitian_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(w, [3, 2, -1])

    def test_char_poly_oracle(self):
        # independent route: characteristic polynomial roots
        rng = np.random.default_rng(11)
        for d in (2, 3, 4, 5):
            h = random_hermitian(rng, d)
            w = hermitian_eigenvalues(h)
            expected = char_poly_eigenvalues(h)
            assert np.max(np.abs(w - expected)) < 1e-9

    def test_trace_matches_sum(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            h = random_hermitian(rng, 6)
            w = hermitian_eigenvalues(h)
            assert abs(w.sum() - np.trace(h).real) < 1e-10 * max(
                1.0, abs(np.trace(h).real)
            )

    def test_non_square_rejected(self):
        with pytest.raises(InputError, match="square"):
            hermitian_eigenvalues(np.ones((2, 3)))

    def test_non_hermitian_rejected(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(InputError, match="not Hermitian"):
            hermitian_eigenvalues(m)

    def test_tolerance_is_respected(self, monkeypatch):
        h = np.eye(2, dtype=complex)
        h[0, 1] = 1e-12
        # defect ~1.4e-12 passes the default gate, fails a tight one; the
        # gate reads the table constant when it runs
        assert np.allclose(hermitian_eigenvalues(h), [1, 1])
        monkeypatch.setattr("subent.linalg.HERMITICITY_TOL", 1e-13)
        with pytest.raises(InputError, match="exceeds tol 1.000e-13"):
            hermitian_eigenvalues(h)


class TestBlockwiseSpectrum:
    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 6), min_size=2, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_permuted_blocks_match_dense(self, sizes, seed):
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        h = np.zeros((n, n), dtype=np.complex128)
        start = 0
        for size in sizes:
            h[start : start + size, start : start + size] = random_hermitian(rng, size)
            start += size
        perm = rng.permutation(n)
        h = h[np.ix_(perm, perm)] / np.linalg.norm(h, 2)
        assert not kept_whole(h)
        w = hermitian_eigenvalues(h)
        assert np.max(np.abs(w - np.linalg.eigvalsh(h)[::-1])) <= 1e-14

    @pytest.mark.parametrize("pattern", ["stride path", "full", "single block"])
    def test_whole_matrix_patterns_take_dense_solve(self, pattern):
        rng = np.random.default_rng(41)
        if pattern == "stride path":
            h = stride_path_hermitian(rng)
            rows, cols = np.nonzero(h)
            assert linalg._component_labels(rows, cols, h.shape[0]) is None
        elif pattern == "full":
            h = random_hermitian(rng, 12)
            assert np.all(h != 0)
        else:
            h = np.diag(rng.standard_normal(12)).astype(np.complex128)
            h += np.diag(np.ones(11), 1) + np.diag(np.ones(11), -1)
        assert kept_whole(h)
        assert np.array_equal(hermitian_eigenvalues(h), np.linalg.eigvalsh(h)[::-1])


class TestGramSchmidt:
    def test_rescales(self):
        out = gram_schmidt([np.array([1, 0]), np.array([0, 2])])
        assert np.allclose(out, np.eye(2))

    def test_orthogonalizes(self):
        out = gram_schmidt([np.array([1.0, 1.0, 0]), np.array([1.0, 0, 0])])
        assert out.shape == (2, 3)
        gram = out @ out.conj().T
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12

    def test_drops_dependent_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        with pytest.warns(RankDeficiencyWarning, match="dropped 1"):
            out = gram_schmidt([v, 2 * v, np.array([0, 1.0, 0])])
        assert out.shape == (2, 3)

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e6, 1e8])
    def test_exact_dependency_dropped_at_any_scale(self, scale):
        rng = np.random.default_rng(24)
        vecs = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        vecs[4] = vecs[0] + vecs[1]
        with pytest.warns(RankDeficiencyWarning, match="dropped 1 .* rank is 4"):
            out = gram_schmidt(scale * vecs)
        assert out.shape == (4, 8)

    def test_empty_input_rejected(self):
        with pytest.raises(InputError, match="at least one"):
            gram_schmidt([])

    def test_all_zero_rejected(self):
        with pytest.raises(InputError, match="no linearly independent"):
            gram_schmidt([np.zeros(3)])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError, match="inconsistent"):
            gram_schmidt([np.ones(2), np.ones(3)])

    def test_nearly_dependent_stays_orthonormal(self):
        rng = np.random.default_rng(21)
        base = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        vecs = [base, base + 1e-7 * (rng.standard_normal(6) + 0j), rng.standard_normal(6) + 0j]
        out = gram_schmidt(vecs)
        gram = out @ out.conj().T
        assert np.max(np.abs(gram - np.eye(out.shape[0]))) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(m=complex_matrices(4, 6, scale=2.0))
    def test_property_orthonormal_output(self, m):
        import warnings

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RankDeficiencyWarning)
                out = gram_schmidt(list(m))
        except InputError:
            return  # all rows below drop tolerance
        gram = out @ out.conj().T
        assert np.max(np.abs(gram - np.eye(out.shape[0]))) < 1e-12

    def test_span_preserved(self):
        rng = np.random.default_rng(22)
        vecs = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        out = gram_schmidt(list(vecs))
        # every input vector must be reproduced by its projection on the output
        for v in vecs:
            proj = sum(np.vdot(u, v) * u for u in out)
            assert np.linalg.norm(proj - v) < 1e-10 * np.linalg.norm(v)


@st.composite
def planted_dependencies(draw):
    """Random complex vectors, some replaced by combinations of earlier ones
    (exact dependencies) or by zero vectors."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 12))
    m = draw(st.integers(1, 16))
    vecs = rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))
    # the drop rule is relative to max(1, ||v||), so an exact dependency's
    # rounding residual lies far below it at every scale
    scale = draw(st.sampled_from([1e-6, 1.0, 1e2, 1e6, 1e8]))
    for i in draw(st.lists(st.integers(1, max(1, m - 1)), max_size=m)):
        if i < m:
            coef = rng.standard_normal(i) + 1j * rng.standard_normal(i)
            vecs[i] = coef @ vecs[:i] if draw(st.booleans()) else 0.0
    return scale * vecs


class TestGramSchmidtReference:
    """Two whole-block sweeps against the per-vector modified loop."""

    @settings(max_examples=200, deadline=None)
    @given(vecs=planted_dependencies())
    def test_matches_modified_gram_schmidt(self, vecs):
        import warnings

        outcomes = []
        for orthonormalize in (gram_schmidt, gram_schmidt_reference):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    out = orthonormalize(vecs)
                except InputError as exc:
                    out = str(exc)
            outcomes.append((out, [str(w.message) for w in caught]))
        (got, got_warnings), (want, want_warnings) = outcomes
        assert got_warnings == want_warnings
        if isinstance(want, str):
            assert got == want
            return
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13
        gram = got @ got.conj().T
        assert np.max(np.abs(gram - np.eye(got.shape[0]))) <= 1e-12

    def test_deficient_rank_and_warning(self):
        rng = np.random.default_rng(23)
        free = rng.standard_normal((40, 60)) + 1j * rng.standard_normal((40, 60))
        coef = rng.standard_normal((10, 40)) + 1j * rng.standard_normal((10, 40))
        vecs = np.concatenate([free, coef @ free])[rng.permutation(50)]
        with pytest.warns(RankDeficiencyWarning, match="dropped 10 .* rank is 40"):
            out = gram_schmidt(vecs)
        with pytest.warns(RankDeficiencyWarning):
            want = gram_schmidt_reference(vecs)
        assert out.shape == (40, 60)
        assert np.max(np.abs(out - want)) <= 1e-13



# Inputs numpy cannot convert to complex128, and the message naming the
# argument that each call raises instead of numpy's TypeError or ValueError.
UNCONVERTIBLE = {
    "eigenvalues of a string": (
        lambda: hermitian_eigenvalues("abc"),
        "h cannot be read as a complex array",
    ),
    "ragged basis": (
        lambda: SubspaceBasis(Factorization(1, 2), [[1], [1, 0]]),
        "vectors cannot be read as a complex array",
    ),
    "validate an object": (
        lambda: validate_projector(object()),
        "projector cannot be read as a complex array",
    ),
    "validate a Projector": (
        lambda: validate_projector(Projector(Factorization(1, 1), np.eye(1), 1)),
        "projector cannot be read as a complex array",
    ),
    "Projector of a string": (
        lambda: Projector(Factorization(1, 1), "abc", 1),
        "projector cannot be read as a complex array",
    ),
    "from_matrix of a string": (
        lambda: Projector.from_matrix(Factorization(1, 1), "abc"),
        "matrix cannot be read as a complex array",
    ),
    "gram_schmidt of a string": (
        lambda: gram_schmidt(["ab"]),
        "vectors cannot be read as a complex array",
    ),
    "gram_schmidt past the float range": (
        lambda: gram_schmidt([[1.0], [10**400]]),
        "vectors cannot be read as a complex array",
    ),
}


@pytest.mark.parametrize("case", UNCONVERTIBLE)
def test_unconvertible_input_names_the_argument(case):
    call, message = UNCONVERTIBLE[case]
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


# The string and vector entry points go through the same coercion.
UNCONVERTIBLE_STRINGS = {
    "vector_schmidt": (
        lambda: vector_schmidt("abc", Factorization(1, 3)),
        "vector cannot be read as a complex array",
    ),
    "pure_subspace_string": (
        lambda: pure_subspace_string(["a"], Factorization(2, 2)),
        "coefficients cannot be read as a real array",
    ),
    "SchmidtString": (
        lambda: SchmidtString("abc"),
        "probs cannot be read as a real array",
    ),
    "from_probs": (
        lambda: SchmidtString.from_probs(["x"]),
        "probs cannot be read as a real array",
    ),
    # numpy would drop the imaginary part with only a warning
    "complex probs": (
        lambda: SchmidtString(np.array([0.5 + 0.5j, 0.5])),
        "probs cannot be read as a real array",
    ),
    "compare": (
        lambda: compare("abc", [1.0]),
        "probability string cannot be read as a real array",
    ),
    "partial_sums": (
        lambda: partial_sums([[1.0], "abc"]),
        "probability string cannot be read as a real array",
    ),
    "sort_chain": (
        lambda: sort_chain([("a", [1.0]), ("b", "abc")]),
        "probability string cannot be read as a real array",
    ),
}


@pytest.mark.parametrize("case", UNCONVERTIBLE_STRINGS)
def test_unconvertible_string_names_the_argument(case):
    call, message = UNCONVERTIBLE_STRINGS[case]
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


# Numeric strings, bools and bytes are not numbers, whichever entry point
# reads them (numpy would convert all three).
NOT_NUMBERS = {
    "numeric strings as probs": (
        lambda: SchmidtString(["0.5", "0.5"]),
        "probs cannot be read as a real array",
    ),
    "bools as probs": (
        lambda: SchmidtString([True, False]),
        "probs cannot be read as a real array",
    ),
    "bytes as probs": (
        lambda: SchmidtString.from_probs([b"1"]),
        "probs cannot be read as a real array",
    ),
    "numeric strings to compare": (
        lambda: compare(["0.6", "0.4"], [1.0]),
        "probability string cannot be read as a real array",
    ),
    "numeric strings to gram_schmidt": (
        lambda: gram_schmidt([["1", "0"], ["0", "1"]]),
        "vectors cannot be read as a complex array",
    ),
    "numeric strings to vector_schmidt": (
        lambda: vector_schmidt(["1", "0", "0", "0"], Factorization(2, 2)),
        "vector cannot be read as a complex array",
    ),
    "numeric strings to hermitian_eigenvalues": (
        lambda: hermitian_eigenvalues([["1", "0"], ["0", "2"]]),
        "h cannot be read as a complex array",
    ),
    "bool projector": (
        lambda: Projector(Factorization(1, 1), np.array([[True]]), 1),
        "projector cannot be read as a complex array",
    ),
    "bool projector from_matrix": (
        lambda: Projector.from_matrix(Factorization(2, 1), np.eye(2, dtype=bool)),
        "matrix cannot be read as a complex array",
    ),
    "bool basis": (
        lambda: SubspaceBasis(Factorization(1, 2), [[True, False]]),
        "vectors cannot be read as a complex array",
    ),
}


@pytest.mark.parametrize("case", NOT_NUMBERS)
def test_strings_bools_and_bytes_are_not_numbers(case):
    call, message = NOT_NUMBERS[case]
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "values",
    [
        [1, 2, 3],
        [0.1, 1e-300, -2.5],
        [1 + 2j, 0.5, 3],
        [2**60 + 1, 7],
        np.array([0.1, 0.2], dtype=np.float32),
        np.array([[1.5, -0.25j], [3, 4]]),
    ],
)
def test_numbers_keep_their_bits(values):
    for dtype in (np.complex128, np.float64):
        if dtype is np.float64 and np.iscomplexobj(np.asarray(values)):
            continue
        want = np.asarray(values, dtype=dtype)
        got = linalg.as_array(values, "values", dtype)
        assert got.dtype == dtype
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
