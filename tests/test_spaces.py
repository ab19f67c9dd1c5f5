import numpy as np
import pytest

from subent import (
    Factorization,
    InputError,
    Projector,
    SubspaceBasis,
    embed,
    gram_schmidt,
    projector_from_basis,
    validate_projector,
)

from .helpers import random_basis, random_unitary

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

    def test_composite_index_row_major(self):
        f = Factorization(2, 3)
        assert f.composite_index(0, 0) == 0
        assert f.composite_index(0, 2) == 2
        assert f.composite_index(1, 0) == 3

    @pytest.mark.parametrize("bad", [0, -1, 2.5, "3", True])
    def test_rejects_bad_factors(self, bad):
        with pytest.raises(InputError):
            Factorization(bad, 2)

    def test_composite_index_bounds(self):
        f = Factorization(2, 2)
        with pytest.raises(InputError):
            f.composite_index(2, 0)


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

    def test_matrix_read_only(self):
        p = projector_from_basis(SubspaceBasis(Factorization(2, 2), np.eye(4)))
        with pytest.raises(ValueError):
            p.matrix[0, 0] = 2

    def test_rejects_non_projector(self):
        with pytest.raises(InputError, match="fails projector validation"):
            Projector(Factorization(2, 2), np.eye(4) / 2.0, dim=2)

    def test_from_matrix_infers_dim(self):
        p = Projector.from_matrix(Factorization(2, 2), np.eye(4))
        assert p.dim == 4

    def test_from_matrix_rejects_zero_trace(self):
        with pytest.raises(InputError):
            Projector.from_matrix(Factorization(2, 2), np.zeros((4, 4)))


class TestValidateProjector:
    def test_identity_passes(self):
        report = validate_projector(np.eye(4))
        assert report.passes
        assert report.dim == 4
        assert report.hermiticity == 0
        assert report.idempotency == 0
        assert report.trace == 0

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

    def test_trace_defect_reported(self):
        report = validate_projector(np.eye(3), dim=2)
        assert not report.passes
        assert report.trace == pytest.approx(1.0)

    def test_catalog_projector_defects_tiny(self):
        from subent import antisymmetric_subspace

        p = projector_from_basis(antisymmetric_subspace(4))
        report = validate_projector(p)
        assert report.passes
        assert report.hermiticity < 1e-12
        assert report.idempotency < 1e-12
        assert report.trace < 1e-12

    def test_accepts_projector_instance(self):
        p = projector_from_basis(SubspaceBasis(Factorization(2, 2), np.eye(4)))
        assert validate_projector(p).passes

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
        # the report kept at construction is what report() and the validator return
        assert p.report() is p.report()
        assert original(p) is p.report()
        assert original(p, dim=1) is p.report()
        assert not p.matrix.flags.writeable

    def test_projector_revalidated_for_other_dim(self):
        p = Projector(Factorization(2, 2), SINGLET_PROJECTOR, dim=1)
        report = validate_projector(p, dim=2)
        assert not report.passes
        assert report.trace == pytest.approx(1.0)


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
