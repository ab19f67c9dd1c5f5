import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    spaces,
    validate_projector,
    vector_schmidt,
)
from subent.tolerances import DROP_TOL

from .helpers import (
    blocks_reference,
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

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: hermitian_eigenvalues(np.zeros(3)),
                "h must be 2-dimensional, got ndim=1",
            ),
            (lambda: hermitian_eigenvalues(np.zeros((0, 0))), "h must be non-empty"),
            (
                lambda: SubspaceBasis(Factorization(1, 2), [[np.nan, 0.0]]),
                "vectors contains non-finite entries",
            ),
        ],
    )
    def test_matrix_shape_and_finiteness_refused(self, build, message):
        with pytest.raises(InputError) as info:
            build()
        assert str(info.value) == message

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

    def test_block_diagonal_input_is_one_dense_solve(self, monkeypatch):
        def split(*args):
            raise AssertionError("hermitian_eigenvalues split its input")

        solves = []

        def eigvalsh(a, original=np.linalg.eigvalsh):
            solves.append(a.shape)
            return original(a)

        monkeypatch.setattr(linalg, "_blocks", split)
        monkeypatch.setattr(spaces, "_entries_of", split)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        w = hermitian_eigenvalues(np.diag([3.0, -1.0, 2.0]))
        assert list(w) == [3.0, 2.0, -1.0]
        assert solves == [(1, 3, 3)]

    def test_spectrum_helper_checks_no_hermiticity(self):
        # its stacks are Gram matrices, Hermitian by construction; it
        # symmetrizes whatever it is given: (0, 1; 0, 0) as (0, 1/2; 1/2, 0)
        h = np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
        w, ends = linalg._spectrum([h])
        assert list(w) == [0.5, -0.5]
        assert list(ends) == [2]


class TestBlockwiseSpectrum:
    """Block-diagonal input, permuted or not, gets the dense spectrum."""

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


@st.composite
def block_patterns(draw, square):
    """(rows, cols, values, shape) of a sparse pattern in random entry order:
    a random pattern, or a permuted block-diagonal one whose blocks repeat
    shapes, or one block, or all singletons."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "blocks", "one block", "singletons"]))
    if kind == "blocks":
        shapes = st.sampled_from([(1, 1), (2, 1), (1, 3), (2, 2), (3, 2)])
        sizes = draw(st.lists(shapes, min_size=1, max_size=10))
        if square:
            sizes = [(r, r) for r, _ in sizes]
        side_r, side_c = sum(r for r, _ in sizes), sum(c for _, c in sizes)
        row_perm = rng.permutation(side_r)
        col_perm = row_perm if square else rng.permutation(side_c)
        m = np.zeros((side_r, side_c), dtype=bool)
        r0 = c0 = 0
        for r, c in sizes:
            m[np.ix_(row_perm[r0 : r0 + r], col_perm[c0 : c0 + c])] = True
            r0, c0 = r0 + r, c0 + c
    else:
        side = draw(st.integers(1, 14))
        shape = (side, side) if square else (side, draw(st.integers(1, 14)))
        if kind == "random":
            m = rng.random(shape) < draw(st.sampled_from([0.05, 0.15, 0.4]))
        elif kind == "one block":
            m = np.ones(shape, dtype=bool)
        else:
            m = np.zeros(shape, dtype=bool)
            k = min(shape)
            m[rng.permutation(shape[0])[:k], rng.permutation(shape[1])[:k]] = True
    # a rectangular extent larger than the pattern, as A's is
    if not square and draw(st.booleans()):
        m = np.pad(m, ((0, draw(st.integers(0, 4))), (0, draw(st.integers(0, 4)))))
    rows, cols = np.nonzero(m)
    if not square and rows.size == 0:
        rows, cols = np.array([0]), np.array([0])
    order = rng.permutation(rows.size)
    rows, cols = rows[order], cols[order]
    values = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
    return rows, cols, values, m.shape


class TestBlocksReference:
    """`_blocks` bit for bit against a breadth-first search."""

    @staticmethod
    def assert_matches(pattern, square, settled):
        got = linalg._blocks(*pattern, square)
        want = blocks_reference(*pattern, square, settled)
        assert [b.shape for b in got] == [b.shape for b in want]
        for g, w in zip(got, want):
            assert g.dtype == np.complex128
            assert np.array_equal(g, w)
            assert np.array_equal(np.signbit(g.real), np.signbit(w.real))
            assert np.array_equal(np.signbit(g.imag), np.signbit(w.imag))

    @settings(max_examples=300, deadline=None)
    @given(pattern=block_patterns(square=True))
    def test_square(self, pattern):
        self.assert_matches(pattern, True, True)

    @settings(max_examples=300, deadline=None)
    @given(pattern=block_patterns(square=False))
    def test_rectangular(self, pattern):
        self.assert_matches(pattern, False, True)

    def test_labels_unsettled_within_rounds_give_none(self):
        # a path through the even vertices, then the odd ones: one round of
        # label propagation leaves its 64 vertices unsettled, the default
        # rounds settle them as one block
        path = np.r_[0:64:2, 1:64:2]
        pattern = (path[:-1], path[1:], np.ones(63, dtype=np.complex128), (64, 64))
        assert linalg._blocks(*pattern, True, rounds=1) is None
        assert [b.shape for b in linalg._blocks(*pattern, True)] == [(1, 64, 64)]

    @settings(max_examples=100, deadline=None)
    @given(square=st.booleans(), data=st.data())
    def test_unsettled_labels_make_one_block(self, square, data):
        pattern = data.draw(block_patterns(square=square))
        original = linalg._component_labels
        linalg._component_labels = lambda *args: None
        try:
            self.assert_matches(pattern, square, False)
        finally:
            linalg._component_labels = original


class TestGramSchmidt:
    def test_rescales(self):
        out = gram_schmidt([np.array([1, 0]), np.array([0, 2])])
        assert np.allclose(out, np.eye(2))

    def test_orthogonalizes(self):
        out = gram_schmidt([np.array([1.0, 1.0, 0]), np.array([1.0, 0, 0])])
        assert out.shape == (2, 3)
        gram = out @ out.conj().T
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12

    @pytest.mark.parametrize(
        "vectors, message",
        [
            ([], "^gram_schmidt requires at least one vector$"),
            ([np.eye(2)], "^gram_schmidt expects 1-D vectors$"),
            ([[1.0, 0.0], [0.0, np.inf]], "^vector contains non-finite entries$"),
        ],
    )
    def test_rejects_malformed_vectors(self, vectors, message):
        with pytest.raises(InputError, match=message):
            gram_schmidt(vectors)

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

    @pytest.mark.parametrize("offset", [1e-7, 3e-10])
    @pytest.mark.parametrize("rows", [range(8), range(32, 40)])
    def test_nearly_dependent_on_a_panel_stays_orthonormal(self, rows, offset):
        # unit rows 40..47 lie `offset` off rows 0..7 (an earlier panel) or
        # off rows 32..39 (their own panel).  Normalizing such a small
        # residual magnifies every rounding error left in it, so a panel
        # projected off the earlier panels only once, one sweep inside the
        # panel, or a row not projected off the earlier panels again after
        # cancelling inside its panel leaves the rows over 1e-12 off
        # orthonormal
        rng = np.random.default_rng(25)
        vecs = rng.standard_normal((48, 60)) + 1j * rng.standard_normal((48, 60))
        noise = rng.standard_normal((8, 60)) + 1j * rng.standard_normal((8, 60))
        vecs[40:] = vecs[list(rows)] / np.linalg.norm(vecs[list(rows)], axis=1)[:, None]
        vecs[40:] += offset * noise / np.linalg.norm(noise, axis=1)[:, None]
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        out = gram_schmidt(vecs)
        assert out.shape == (48, 60)
        gram = out @ out.conj().T
        assert np.max(np.abs(gram - np.eye(48))) < 1e-12

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


def plant(seed: int, dim: int, m: int, scale: float, steps) -> tuple[np.ndarray, bool]:
    """m random complex vectors of length dim, times `scale`; each step (i,
    combine) replaces vector i < m by a random combination of the vectors
    before it, or by zero.  Also whether every planted dependency is exact:
    no vector a combination was formed from was replaced after it.

    Steps in index order always leave exact dependencies.  In any other
    order an earlier vector can be replaced after a later one was formed
    from it, which leaves that later vector nearly, not exactly, dependent;
    two correct orthonormalizations then agree only to about 1e-16 times
    the condition number of the kept vectors.
    """
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))
    written, formed = [-1] * m, {}
    for step, (i, combine) in enumerate(steps):
        if i < m:
            coef = rng.standard_normal(i) + 1j * rng.standard_normal(i)
            vecs[i] = coef @ vecs[:i] if combine else 0.0
            written[i] = step
            formed.pop(i, None)
            if combine:
                formed[i] = step
    exact = all(max(written[:i]) < step for i, step in formed.items())
    return scale * vecs, exact


@st.composite
def planted_dependencies(draw, max_m=100, max_dim=72, in_order=True):
    """`plant`'s vectors and exactness, up to 100 vectors by default, so
    that they span several of `gram_schmidt`'s panels of 32; with
    `in_order`, the steps run in index order."""
    seed = draw(st.integers(0, 2**32 - 1))
    dim = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_m))
    # the drop rule is relative to max(1, ||v||), so an exact dependency's
    # rounding residual lies far below it at every scale
    scale = draw(st.sampled_from([1e-6, 1.0, 1e2, 1e6, 1e8]))
    steps = draw(st.lists(st.tuples(st.integers(1, max(1, m - 1)), st.booleans())))
    return plant(seed, dim, m, scale, sorted(steps) if in_order else steps)


def both_outcomes(vecs):
    """(rows or error message, warning messages) of `gram_schmidt`, then of
    `gram_schmidt_reference`, on `vecs`."""
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
    return outcomes


def assert_matches_reference(vecs, exact=True):
    """`gram_schmidt` gives the reference's warnings and error, or its rows,
    and those rows are orthonormal within 1e-12.  The rows match within
    1e-13 when every planted dependency is exact; otherwise within 10 eps
    times the condition number of the input rows the reference keeps, or
    1e-13 if that is larger."""
    (got, got_warnings), (want, want_warnings) = both_outcomes(vecs)
    assert got_warnings == want_warnings
    if isinstance(want, str):
        assert got == want
        return
    assert got.shape == want.shape
    bound = 1e-13
    if not exact:
        kept: list[int] = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficiencyWarning)
            gram_schmidt_reference(vecs, kept)
        cond = np.linalg.cond(np.asarray(vecs)[kept])
        bound = max(bound, 10 * np.finfo(np.float64).eps * cond)
    assert np.max(np.abs(got - want)) <= bound
    gram = got @ got.conj().T
    assert np.max(np.abs(gram - np.eye(got.shape[0]))) <= 1e-12


def assert_agrees_with_reference(vecs):
    """`gram_schmidt` gives the reference's warnings and error, hence its
    rank, and rows orthonormal within 1e-12 whose span holds every input
    vector v within the drop tolerance, DROP_TOL * max(1, ||v||).

    For nearly dependent inputs two correct orthonormalizations differ by
    far more than rounding, so the rows are not compared one by one."""
    (got, got_warnings), (want, want_warnings) = both_outcomes(vecs)
    assert got_warnings == want_warnings
    if isinstance(want, str):
        assert got == want
        return
    assert got.shape == want.shape
    gram = got @ got.conj().T
    assert np.max(np.abs(gram - np.eye(got.shape[0]))) <= 1e-12
    vecs = np.asarray(vecs)
    residual = np.linalg.norm(vecs - (vecs @ got.conj().T) @ got, axis=1)
    allowed = DROP_TOL * np.maximum(1.0, np.linalg.norm(vecs, axis=1))
    assert np.all(residual <= allowed)


def random_vectors(seed: int, m: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))


def combination(vecs: np.ndarray, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = vecs.shape[0]
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) @ vecs


def earlier_panel_dependency() -> np.ndarray:
    vecs = random_vectors(30, 40, 50)
    vecs[35] = combination(vecs[[3, 10, 31]], 31)
    return vecs


def same_panel_dependency() -> np.ndarray:
    vecs = random_vectors(32, 60, 70)
    vecs[50] = combination(vecs[[33, 40, 49]], 33)
    return vecs


def zero_opens_panel() -> np.ndarray:
    vecs = random_vectors(34, 70, 72)
    vecs[32] = vecs[64] = 0.0
    return vecs


def dependent_panel() -> np.ndarray:
    # rows 32..63 are combinations of rows 0..31
    vecs = random_vectors(35, 96, 80)
    rng = np.random.default_rng(36)
    coef = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    vecs[32:64] = coef @ vecs[:32]
    return vecs


PANEL_CASES = {
    "dependency on an earlier panel": (earlier_panel_dependency, 39),
    "dependency within a panel": (same_panel_dependency, 59),
    "zero vector opening a panel": (zero_opens_panel, 68),
    "panel of dependent vectors": (dependent_panel, 64),
    **{f"m={m}": (lambda m=m: random_vectors(37 + m, m, 70), m) for m in (31, 32, 33, 65)},
}


def near_dependency(near, off):
    """64 rows of small complex integers in C^40, where row `near` is row
    `off` plus 2**-bits times another such row n, exactly in floating point.
    The 24 rows past the first 40 are dependent, and each has a component of
    order one along the direction that row `near` adds."""

    def build(bits):
        rng = np.random.default_rng(41 + near + off)
        vecs = rng.integers(-8, 9, (65, 40)) + 1j * rng.integers(-8, 9, (65, 40))
        vecs[near] = vecs[off] + 2.0**-bits * vecs[64]
        return vecs[:64]

    return build


def near_chain(seed: int, m: int, dim: int, bits: int) -> np.ndarray:
    """m rows of small complex integers in C^dim, each the row before it
    plus 2**-bits times another such row, exactly in floating point.  Each
    row lies within a relative 2**-bits of the span of the rows before it,
    and one sweep per row leaves errors of order eps * 4**bits behind: the
    square of the condition, not the condition that two sweeps reach."""
    rng = np.random.default_rng(seed)
    steps = rng.integers(-8, 9, (m, dim)) + 1j * rng.integers(-8, 9, (m, dim))
    steps[1:] *= 2.0**-bits
    return steps.cumsum(axis=0)


# A row normalized from a residual of relative size 2**-bits carries the
# rounding left in it magnified by 2**bits.  Before the cancellation check a
# later row in the same panel took that error on and was kept with a
# residual of about 1e-16 * 2**bits, above the drop tolerance, although it
# was dependent.
NEAR_CASES = {
    "near an earlier panel": near_dependency(39, 0),
    "near its own panel": near_dependency(39, 33),
    "near an earlier panel, opening a panel": near_dependency(32, 5),
}


class TestGramSchmidtReference:
    """Panels of whole-block sweeps against the per-vector modified loop."""

    # at most 16 vectors, one panel, planted in any order; the first
    # example's rows differ by 2.6e-13, with kept input rows of condition
    # 3.9e4.  The second is nearly dependent throughout (condition 2.0e6):
    # its rows differ by 1.2e-11 against a bound of 4.5e-9, and by 2.2e-5
    # when each row is swept once, so the row match alone catches that.
    @settings(max_examples=200, deadline=None)
    @given(planted=planted_dependencies(max_m=16, max_dim=12, in_order=False))
    @example(
        planted=plant(
            2504906583,
            11,
            16,
            1e-6,
            zip(
                [7, 12, 6, 2, 13, 11, 10, 2, 10, 9, 4, 13, 2, 1],
                [1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1],
            ),
        )
    )
    @example(planted=(near_chain(6, 12, 12, 16), False))
    def test_matches_modified_gram_schmidt(self, planted):
        assert_matches_reference(*planted)

    @settings(max_examples=200, deadline=None)
    @given(planted=planted_dependencies())
    def test_matches_modified_gram_schmidt_across_panels(self, planted):
        vecs, exact = planted
        assert exact
        assert_matches_reference(vecs)

    @settings(max_examples=200, deadline=None)
    @given(planted=planted_dependencies(in_order=False))
    def test_agrees_with_modified_gram_schmidt_across_panels(self, planted):
        assert_agrees_with_reference(planted[0])

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e2, 1e6, 1e8])
    @pytest.mark.parametrize("case", PANEL_CASES)
    def test_across_panel_boundaries(self, case, scale):
        build, rank = PANEL_CASES[case]
        vecs = scale * build()
        assert_matches_reference(vecs)
        if rank < len(vecs):
            message = f"dropped {len(vecs) - rank} .* rank is {rank}$"
            with pytest.warns(RankDeficiencyWarning, match=message):
                gram_schmidt(vecs)
        assert np.linalg.matrix_rank(vecs) == rank

    # scales by powers of two keep the dependencies exact, and at these the
    # drop tolerance lies far below every offset
    @pytest.mark.parametrize("scale", [1.0, 2.0**10, 2.0**27])
    @pytest.mark.parametrize("bits", [24, 27, 30])
    @pytest.mark.parametrize("case", NEAR_CASES)
    def test_nearly_dependent_across_panels(self, case, bits, scale):
        vecs = scale * NEAR_CASES[case](bits)
        assert_agrees_with_reference(vecs)
        message = r"dropped 24 linearly dependent vector\(s\); rank is 40$"
        with pytest.warns(RankDeficiencyWarning, match=message):
            gram_schmidt(vecs)

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
    "Projector of a string, dim inferred": (
        lambda: Projector(Factorization(1, 1), "abc"),
        "projector cannot be read as a complex array",
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
    "bool projector, dim inferred": (
        lambda: Projector(Factorization(2, 1), np.eye(2, dtype=bool)),
        "projector cannot be read as a complex array",
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
