import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subent import (
    Branch,
    Factorization,
    InputError,
    Projector,
    SchmidtString,
    SubspaceBasis,
    embed,
    gram_schmidt,
    hydrogen_chain_expected,
    linalg,
    projector_from_basis,
    spaces,
    spin_projector,
    validate_projector,
    verify_antisym,
    verify_spin,
)
from subent.tolerances import (
    PROJECTOR_HERMITICITY_TOL,
    PROJECTOR_IDEMPOTENCY_TOL,
    PROJECTOR_TRACE_TOL,
    REALIGN_NORM_TOL,
)

from .helpers import (
    off_norm_projector,
    random_basis,
    random_hermitian,
    random_unitary,
    stride_path_hermitian,
)

# the singlet vector (e_0 e_1 - e_1 e_0)/sqrt(2) in 2x2, composite
# indices 1 and 2, and its projector with entries in {0, +-1/2}
SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
SINGLET_PROJECTOR = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, -0.5, 0.0],
        [0.0, -0.5, 0.5, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ]
)


class TestFactorization:
    def test_properties(self):
        f = Factorization(3, 4)
        assert f.dim == 12
        assert f.schmidt_length == 9

    def test_schmidt_length_takes_smaller_factor(self):
        assert Factorization(5, 2).schmidt_length == 4
        assert Factorization(2, 5).schmidt_length == 4

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "3", True])
    def test_rejects_bad_factors(self, bad):
        with pytest.raises(InputError):
            Factorization(bad, 2)


class TestSubspaceBasis:
    def test_holds_vectors_read_only(self):
        b = SubspaceBasis(Factorization(2, 2), np.eye(4))
        assert b.dim == 4
        with pytest.raises(ValueError):
            b.vectors[0, 0] = 5

    def test_rejects_non_orthonormal(self):
        vectors = np.array([[1.0, 1.0, 0.0, 0.0]])
        with pytest.raises(InputError, match="orthonormal"):
            SubspaceBasis(Factorization(2, 2), vectors)

    def test_rejects_wrong_length(self):
        with pytest.raises(InputError, match="length"):
            SubspaceBasis(Factorization(2, 2), np.eye(3))

    def test_rejects_too_many_vectors(self):
        vectors = np.vstack([np.eye(4), np.eye(4)])
        with pytest.raises(InputError):
            SubspaceBasis(Factorization(2, 2), vectors)

    def test_accepts_gram_schmidt_output(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((3, 9)) + 1j * rng.standard_normal((3, 9))
        b = SubspaceBasis(Factorization(3, 3), gram_schmidt(raw))
        assert b.dim == 3


class TestProjector:
    def test_from_single_vector(self):
        b = SubspaceBasis(Factorization(2, 2), SINGLET.reshape(1, 4))
        p = projector_from_basis(b)
        assert p.dim == 1
        assert np.max(np.abs(p.matrix - SINGLET_PROJECTOR)) < 1e-15

    def test_full_space_gives_identity(self):
        b = SubspaceBasis(Factorization(2, 2), np.eye(4))
        p = projector_from_basis(b)
        assert np.allclose(p.matrix, np.eye(4))
        assert p.dim == 4

    def test_invariant_under_basis_rotation(self):
        # the projector depends on the span only
        rng = np.random.default_rng(8)
        b = random_basis(rng, Factorization(3, 3), 4)
        u = random_unitary(rng, 4)
        rotated = SubspaceBasis(b.factorization, u @ b.vectors)
        p1 = projector_from_basis(b)
        p2 = projector_from_basis(rotated)
        assert np.max(np.abs(p1.matrix - p2.matrix)) < 1e-10

    def test_rank_equals_dim(self):
        rng = np.random.default_rng(9)
        for size in (1, 3, 6):
            p = projector_from_basis(random_basis(rng, Factorization(3, 3), size))
            w = np.linalg.eigvalsh(p.matrix)
            assert int((w > 0.5).sum()) == size

    def test_repr_leaves_matrix_unbuilt(self):
        # the dense matrix of 2j = 1000 is 2004^2 complex entries, 64 MB
        p = spin_projector(1000, Branch.PLUS)
        tracemalloc.start()
        try:
            text = repr(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == "Projector(factorization=Factorization(d1=1001, d2=2), dim=1002)"
        assert peak < 1_000_000
        assert "matrix" not in vars(p)

    def test_matrix_read_only(self):
        p = projector_from_basis(SubspaceBasis(Factorization(2, 2), np.eye(4)))
        with pytest.raises(ValueError):
            p.matrix[0, 0] = 2

    def test_rejects_non_projector(self):
        with pytest.raises(InputError, match="fails projector validation"):
            Projector(Factorization(2, 2), np.eye(4) / 2.0, dim=2)

    def test_rejects_norm_defect_within_entrywise_tolerances(self):
        m = off_norm_projector()
        report = validate_projector(m)
        assert report.dim == 1
        assert report.hermiticity <= PROJECTOR_HERMITICITY_TOL
        assert report.idempotency <= PROJECTOR_IDEMPOTENCY_TOL
        assert report.trace <= PROJECTOR_TRACE_TOL
        assert report.norm == pytest.approx(5e-9, rel=1e-3)
        assert not report.passes
        with pytest.raises(InputError, match="norm defect=5.000e-09"):
            Projector(Factorization(10, 10), m)

    def test_caller_array_stays_writable(self):
        m = np.eye(4, dtype=np.complex128)
        p = Projector(Factorization(2, 2), m, dim=4)
        report = p.report()
        assert m.flags.writeable
        assert p.matrix is not m
        m[0, 0] = 2.0
        m[0, 1] = 1e-3
        assert np.array_equal(p.matrix, np.eye(4))
        assert p.report() == report
        assert validate_projector(p.matrix).passes

    def test_builders_adopt_their_matrix(self):
        # the basis builder's matrix is frozen in place; a caller's is copied
        basis = SubspaceBasis(Factorization(2, 2), SINGLET.reshape(1, 4))
        p = projector_from_basis(basis)
        assert type(p.matrix) is np.ndarray
        assert not p.matrix.flags.writeable
        assert not p.matrix.flags.owndata
        copied = Projector(Factorization(2, 2), SINGLET_PROJECTOR, dim=1)
        assert copied.matrix.flags.owndata
        # the spin builder hands over its nonzero entries: no 8 x 8 array
        # exists until `matrix` is read, which builds it read-only, once
        p = spin_projector(3, Branch.PLUS)
        assert "matrix" not in vars(p)
        side, nonzero, values = p._entries
        assert (side, nonzero.size, values.size) == (8, 14, 14)
        m = p.matrix
        assert type(m) is np.ndarray and m.shape == (8, 8)
        assert not m.flags.writeable
        assert p.matrix is m
        assert np.array_equal(np.flatnonzero(m), nonzero)

    def test_constructor_infers_dim(self):
        p = Projector(Factorization(2, 2), np.eye(4))
        assert p.dim == 4
        assert p.report() == validate_projector(np.eye(4), dim=4)

    @pytest.mark.parametrize("scale, dim", [(0.0, 0), (0.1, 0), (-0.15, -1)])
    def test_constructor_rejects_trace_below_one(self, scale, dim):
        message = f"^projector trace rounds to {dim}, expected >= 1$"
        with pytest.raises(InputError, match=message):
            Projector(Factorization(2, 2), scale * np.eye(4))

    @pytest.mark.parametrize("dim", [None, 1])
    def test_constructor_coerces_once(self, monkeypatch, dim):
        calls = []

        def counting(original):
            def call(a, name="matrix"):
                calls.append((original.__name__, name))
                return original(a, name)

            return call

        for name in ("as_array", "as_matrix"):
            monkeypatch.setattr(spaces, name, counting(getattr(spaces, name)))
        p = Projector(Factorization(2, 2), SINGLET_PROJECTOR, dim)
        assert p.dim == 1
        # the frozen copy's coercion; the finiteness pass is validation's,
        # on the entries
        assert calls == [("as_array", "projector")]

    @pytest.mark.parametrize("dim", [None, 1])
    @pytest.mark.parametrize(
        "where, matrix, message",
        [
            (None, np.ones(4), r"projector shape \(4,\) does not match factorization 2x2"),
            (None, np.ones((2, 2, 2)), r"projector shape \(2, 2, 2\) does not match"),
            (None, np.zeros((0, 0)), r"projector shape \(0, 0\) does not match"),
            (None, np.full((4, 4), np.nan), "^projector contains non-finite entries$"),
            ((0, 1), np.nan, "^projector contains non-finite entries$"),
            ((1, 1), np.inf, "^projector contains non-finite entries$"),
        ],
    )
    def test_constructor_names_malformed_matrix(self, where, matrix, message, dim):
        # the shape check fixes ndim and size; validation checks finiteness
        # before it reads the trace
        if where is not None:
            m, matrix = matrix, SINGLET_PROJECTOR.copy()
            matrix[where] = m
        with pytest.raises(InputError, match=message):
            Projector(Factorization(2, 2), matrix, dim)

    def test_constructor_trace_that_overflows(self):
        # finite entries whose trace is inf cannot name a dimension
        m = np.diag([1e308, 1e308, 0.0, 0.0])
        with pytest.raises(InputError, match="^projector trace overflows to inf$"):
            Projector(Factorization(2, 2), m)


class TestValidateProjector:
    def test_identity_passes(self):
        report = validate_projector(np.eye(4))
        assert report.passes
        assert report.dim == 4
        assert report.hermiticity == 0
        assert report.idempotency == 0
        assert report.trace == 0

    def test_trace_that_overflows(self):
        import warnings

        big = [np.diag([1e308, 1e308]), np.array([[1, 1], [1, -1]]) * 1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="^projector trace overflows to inf$"):
                validate_projector(big[0])
            # a given dim reads no trace; overflowing products fail the report
            for m in big:
                assert not validate_projector(m, dim=2).passes

    def test_half_identity_fails_idempotency(self):
        report = validate_projector(np.eye(4) / 2.0)
        assert not report.passes
        assert report.idempotency == pytest.approx(0.25)

    def test_non_hermitian_reported(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 1e-3
        report = validate_projector(m)
        assert not report.passes
        assert report.hermiticity == pytest.approx(1e-3)

    def test_non_square_rejected(self):
        message = r"^projector must be square, got shape \(2, 3\)$"
        with pytest.raises(InputError, match=message):
            validate_projector(np.ones((2, 3)))

    def test_trace_defect_reported(self):
        report = validate_projector(np.eye(3), dim=2)
        assert not report.passes
        assert report.trace == pytest.approx(1.0)

    def test_catalog_projector_defects_tiny(self):
        from subent import antisymmetric_subspace

        p = projector_from_basis(antisymmetric_subspace(4))
        report = validate_projector(p.matrix)
        assert report == p.report()
        assert report.passes
        assert report.hermiticity < 1e-12
        assert report.idempotency < 1e-12
        assert report.trace < 1e-12

    def test_projector_validated_once(self, monkeypatch):
        from subent import spaces

        calls = []
        original = spaces.validate_projector

        def counting(p, dim=None):
            calls.append(dim)
            return original(p, dim)

        monkeypatch.setattr(spaces, "validate_projector", counting)
        p = Projector(Factorization(2, 2), SINGLET_PROJECTOR, dim=1)
        assert len(calls) == 1
        # the report kept at construction is what report() returns
        assert p.report() is p.report()
        assert original(p.matrix, dim=1) == p.report()
        assert not p.matrix.flags.writeable

    def test_kept_pattern_is_not_part_of_the_report(self):
        import dataclasses

        p = Projector(Factorization(2, 2), SINGLET_PROJECTOR, dim=1)
        report = p.report()
        # the projector keeps the pattern; the report holds only the defects
        assert np.array_equal(p._entries.nonzero, np.flatnonzero(SINGLET_PROJECTOR))
        public = ["hermiticity", "idempotency", "trace", "dim", "passes", "norm"]
        assert [f.name for f in dataclasses.fields(report)] == public
        assert hash(report) == hash(validate_projector(SINGLET_PROJECTOR, dim=1))

    def test_projector_revalidated_for_other_dim(self):
        p = Projector(Factorization(2, 2), SINGLET_PROJECTOR, dim=1)
        report = validate_projector(p.matrix, dim=2)
        assert not report.passes
        assert report.trace == pytest.approx(1.0)


def dense_report(m, dim):
    """The defects from the dense products, as validation took them before."""
    hermiticity = float(np.max(np.abs(m - m.conj().T)))
    idempotency = float(np.max(np.abs(m @ m - m)))
    trace = float(abs(complex(np.trace(m)) - dim))
    norm = abs(np.linalg.norm(m) / np.sqrt(dim) - 1.0) if dim >= 1 else np.inf
    passes = (
        hermiticity <= PROJECTOR_HERMITICITY_TOL
        and idempotency <= PROJECTOR_IDEMPOTENCY_TOL
        and trace <= PROJECTOR_TRACE_TOL
        and norm <= REALIGN_NORM_TOL
        and dim >= 1
    )
    return hermiticity, idempotency, trace, norm, passes


def assert_matches_dense(m):
    # the dense matrix and its nonzero entries, as a builder hands them over
    nonzero = np.flatnonzero(m)
    entries = spaces._Entries(m.shape[0], nonzero, m.ravel()[nonzero])
    for report in (validate_projector(m), validate_projector(entries)):
        hermiticity, idempotency, trace, norm, passes = dense_report(m, report.dim)
        assert report.passes == passes
        assert abs(report.hermiticity - hermiticity) <= 1e-15
        assert abs(report.idempotency - idempotency) <= 1e-15
        assert report.trace == trace
        assert report.norm == pytest.approx(norm, abs=1e-15)


def pattern_labels(m):
    rows, cols = np.nonzero(m)
    return linalg._component_labels(rows, cols, m.shape[0])


@st.composite
def block_matrices(draw):
    """Block-diagonal matrices under a random permutation, blocks of size 1-5.

    Each block is a projector of random rank (possibly 0), optionally with a
    Hermitian perturbation (not idempotent) or a general one (not Hermitian),
    or up to three entries whose transposed partner is zero are set.
    """
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=8))
    kind = draw(
        st.sampled_from(["projector", "perturbed", "non_hermitian", "one_sided"])
    )
    scale = draw(st.sampled_from([1e-12, 1e-10, 1e-8, 1e-3, 0.1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = sum(sizes)
    m = np.zeros((dim, dim), dtype=np.complex128)
    start = 0
    for size in sizes:
        v = random_unitary(rng, size)[:, : rng.integers(0, size + 1)]
        block = v @ v.conj().T
        if kind == "perturbed":
            block = block + scale * random_hermitian(rng, size)
        elif kind == "non_hermitian":
            noise = rng.standard_normal((size, size)) + 1j * rng.standard_normal(
                (size, size)
            )
            block = block + scale * noise
        m[start : start + size, start : start + size] = block
        start += size
    perm = rng.permutation(dim)
    m = m[np.ix_(perm, perm)]
    if kind == "one_sided":
        # nonzeros whose transposed partner is an exact zero
        r, c = np.nonzero((m == 0) & (m.T == 0))
        pick = rng.permutation(np.flatnonzero(r != c))[:3]
        m[r[pick], c[pick]] = scale * (1.0 - 2.0j)
    return m


class TestBlockwiseValidation:
    @settings(max_examples=200, deadline=None)
    @given(m=block_matrices())
    def test_matches_dense_products(self, m):
        assert_matches_dense(m)

    def test_catalog_projector_is_many_blocks(self):
        from subent import Branch, spin_projector

        m = spin_projector(7, Branch.PLUS).matrix
        labels = pattern_labels(m)
        # the Clebsch-Gordan pairs and the two stretched states
        assert np.unique(labels).size == 7 + 2
        assert_matches_dense(m)

    def test_unsettled_path_pattern_takes_dense_product(self):
        # a path visiting the vertices in strides of 7 defeats label
        # propagation within its round cap
        m = stride_path_hermitian(np.random.default_rng(31))
        assert pattern_labels(m) is None
        assert_matches_dense(m)
        path = np.arange(64) * 7 % 64
        m[path[1:], path[:-1]] = 0.0
        assert pattern_labels(m) is None
        assert_matches_dense(m)

    def test_dense_projector_is_one_block(self):
        rng = np.random.default_rng(32)
        p = projector_from_basis(random_basis(rng, Factorization(4, 5), 7))
        assert not np.any(pattern_labels(p.matrix))
        report = validate_projector(p.matrix)
        hermiticity, idempotency, _, _, _ = dense_report(p.matrix, 7)
        assert report.idempotency == idempotency
        assert report.hermiticity == hermiticity

    def test_full_pattern_skips_the_gather(self, monkeypatch):
        rng = np.random.default_rng(33)
        p = projector_from_basis(random_basis(rng, Factorization(4, 5), 7))
        m = p.matrix
        assert np.all(m != 0)

        def no_search(*args):
            raise AssertionError("a full pattern needs no block search")

        monkeypatch.setattr(linalg, "_component_labels", no_search)
        report = validate_projector(m)
        # the gathered formulas give the same bits
        rows, cols = np.nonzero(m)
        values = m[rows, cols]
        assert report.hermiticity == float(
            np.max(np.abs(values - m[cols, rows].conj()))
        )
        assert report.norm == abs(float(np.linalg.norm(values)) / np.sqrt(7) - 1.0)
        assert report.idempotency == dense_report(m, 7)[1]
        assert report.passes

    def test_zero_matrix(self):
        empty = spaces._Entries(3, np.zeros(0, dtype=np.intp), np.zeros(0, complex))
        for p in (np.zeros((3, 3)), empty):
            report = validate_projector(p)
            assert (report.hermiticity, report.idempotency, report.dim) == (0, 0, 0)
            assert not report.passes

    def test_single_block_pattern(self):
        m = np.array([[1, 0, 1, -1], [0, 1, 1, 1], [1, 1, 2, 0], [-1, 1, 0, 2]]) / 3
        assert not np.any(pattern_labels(m))
        assert_matches_dense(m)
        assert validate_projector(m).passes

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_entry(self, value):
        nonzero = np.array([0, 5, 10, 15])
        values = np.array([1, value, 1, 1], dtype=complex)
        with pytest.raises(InputError, match="^projector contains non-finite entries$"):
            validate_projector(spaces._Entries(4, nonzero, values))


class TestEmbed:
    def test_identity_embedding(self):
        b = SubspaceBasis(Factorization(2, 2), SINGLET.reshape(1, 4))
        out = embed(b, 2, 2)
        assert np.array_equal(out.vectors, b.vectors)

    def test_singlet_into_3x3(self):
        b = SubspaceBasis(Factorization(2, 2), SINGLET.reshape(1, 4))
        out = embed(b, 3, 3)
        v = out.vectors[0]
        assert out.factorization == Factorization(3, 3)
        nonzero = np.nonzero(v)[0]
        assert list(nonzero) == [1, 3]
        assert v[1] == pytest.approx(1 / np.sqrt(2))
        assert v[3] == pytest.approx(-1 / np.sqrt(2))

    def test_inner_products_exactly_preserved(self):
        rng = np.random.default_rng(13)
        b = random_basis(rng, Factorization(3, 4), 5)
        out = embed(b, 5, 6)
        before = b.vectors @ b.vectors.conj().T
        after = out.vectors @ out.vectors.conj().T
        assert np.array_equal(before, after)

    def test_shrinking_rejected(self):
        b = SubspaceBasis(Factorization(3, 3), np.eye(9)[:2])
        with pytest.raises(InputError, match="shrink"):
            embed(b, 2, 3)



# Count arguments the constructors and sweeps once let through or crashed
# on; each now raises the one InputError form of spaces.as_count.
COUNT_HOLES = {
    "Projector dim float": (
        lambda: Projector(Factorization(2, 2), np.eye(4), 4.0),
        "dim must be an integer >= 1, got 4.0",
    ),
    "Projector dim bool": (
        lambda: Projector(Factorization(1, 1), np.eye(1), True),
        "dim must be an integer >= 1, got True",
    ),
    "Projector dim zero": (
        lambda: Projector(Factorization(2, 2), np.zeros((4, 4)), 0),
        "dim must be an integer >= 1, got 0",
    ),
    "validate_projector dim float": (
        lambda: validate_projector(np.eye(4), 2.5),
        "dim must be an integer >= 0, got 2.5",
    ),
    "validate_projector dim nan": (
        lambda: validate_projector(np.eye(4), math.nan),
        "dim must be an integer >= 0, got nan",
    ),
    "from_probs length float": (
        lambda: SchmidtString.from_probs([1.0], length=2.5),
        "length must be an integer >= 1, got 2.5",
    ),
    "from_probs length bool": (
        lambda: SchmidtString.from_probs([1.0], length=True),
        "length must be an integer >= 1, got True",
    ),
    "verify_antisym float": (
        lambda: verify_antisym(2.5),
        "max_n must be an integer >= 2, got 2.5",
    ),
    "verify_spin str": (
        lambda: verify_spin("3"),
        "max_two_j must be an integer >= 1, got '3'",
    ),
    "hydrogen_chain_expected float": (
        lambda: hydrogen_chain_expected(2.5),
        "n must be an integer >= 1, got 2.5",
    ),
    "embed str": (
        lambda: embed(SubspaceBasis(Factorization(2, 2), np.eye(4)), "3", 3),
        "d1 must be an integer >= 1, got '3'",
    ),
}


@pytest.mark.parametrize("case", COUNT_HOLES)
def test_count_arguments_are_checked(case):
    call, message = COUNT_HOLES[case]
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()
