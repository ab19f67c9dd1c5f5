"""Shared test utilities and independent oracles.

The oracles here deliberately avoid the code paths used by the package:
eigenvalues come from the characteristic polynomial (Faddeev-LeVerrier
coefficients, mpmath root finding), and Schmidt coefficients of vectors are
recomputed from the partial trace of the full density matrix.
"""

from __future__ import annotations

import mpmath
import numpy as np

from subent import Factorization, SubspaceBasis, gram_schmidt


def char_poly_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix via its characteristic polynomial."""
    a = np.asarray(h, dtype=np.complex128)
    n = a.shape[0]
    coeffs = [mpmath.mpc(1)]
    m = np.zeros_like(a)
    c = 1.0 + 0.0j
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs.append(mpmath.mpc(c))
    roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=120)
    return np.sort(np.array([float(mpmath.re(r)) for r in roots]))[::-1]


def partial_trace_coefficients(v: np.ndarray, f: Factorization) -> np.ndarray:
    """Squared Schmidt coefficients of a unit vector from the partial trace."""
    rho = np.outer(v, v.conj())
    rho1 = np.zeros((f.d1, f.d1), dtype=np.complex128)
    for i in range(f.d1):
        for j in range(f.d1):
            for k in range(f.d2):
                rho1[i, j] += rho[i * f.d2 + k, j * f.d2 + k]
    w = np.sort(np.linalg.eigvalsh(rho1))[::-1]
    return w[: min(f.d1, f.d2)]


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_basis(
    rng: np.random.Generator, f: Factorization, size: int
) -> SubspaceBasis:
    raw = rng.standard_normal((size, f.dim)) + 1j * rng.standard_normal(
        (size, f.dim)
    )
    return SubspaceBasis(factorization=f, vectors=gram_schmidt(raw))


def off_norm_projector() -> np.ndarray:
    """A matrix over 10x10 within every entrywise projector tolerance whose
    P / sqrt(dim) misses unit norm by 5e-9.

    With u the uniform unit vector it is (1 + 5e-9) u u^dagger
    - 5e-11 (I - u u^dagger), whose trace rounds to dim 1.
    """
    u = np.full(100, 0.1)
    uu = np.outer(u, u)
    return (1 + 5e-9) * uu - 5e-11 * (np.eye(100) - uu)


def random_distribution(rng: np.random.Generator, length: int) -> np.ndarray:
    p = rng.dirichlet(np.ones(length))
    return np.sort(p)[::-1]


def t_transform(rng: np.random.Generator, p: np.ndarray) -> np.ndarray:
    """One Robin Hood transfer: the result is majorized by the input."""
    p = np.sort(np.asarray(p, dtype=np.float64))[::-1]
    if p.size < 2 or p[0] - p[-1] < 1e-12:
        return p
    while True:
        i, j = sorted(rng.choice(p.size, size=2, replace=False))
        if p[i] - p[j] > 1e-12:
            break
    amount = rng.uniform(0.0, (p[i] - p[j]) / 2.0)
    out = p.copy()
    out[i] -= amount
    out[j] += amount
    return np.sort(out)[::-1]


def string_deviation(a, b) -> float:
    pa = np.asarray(getattr(a, "probs", a), dtype=np.float64)
    pb = np.asarray(getattr(b, "probs", b), dtype=np.float64)
    n = max(pa.size, pb.size)
    return float(
        np.max(np.abs(np.pad(pa, (0, n - pa.size)) - np.pad(pb, (0, n - pb.size))))
    )
