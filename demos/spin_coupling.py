"""
Angular momentum coupling branches
==================================

Coupling an orbital angular momentum j to a spin 1/2 splits
C^(2j+1) (x) C^2 into the two total angular momentum eigenspaces
j + 1/2 and j - 1/2.  Both are eigenspaces of a single coupling
operator, both have closed-form Schmidt strings of length 4, and both
strings flow to the same limit as j grows.
"""

import numpy as np

from subent import (
    Branch,
    SpinLabel,
    spin_operators,
    spin_x_operator,
    spin_projector,
    spin_string_closed,
    limiting_string,
    schmidt_string,
    realign,
    compare,
    hermitian_eigenvalues,
)

np.set_printoptions(precision=6, suppress=True)

# Ladder operators for j = 1: a 3x3 representation with superdiagonal
# sqrt(k (2j + 1 - k)).
s = SpinLabel(2)
jp, jm, j3 = spin_operators(s)
print("J+ for j=1:")
print(jp.real)

# The coupling operator X = J+ S- + J- S+ + 2 J3 S3 acts on the 6-dim
# product space.  Its spectrum has exactly two eigenvalues, j and
# -(j + 1), whose eigenspaces are the two branches.
x = spin_x_operator(s)
print("\nX spectrum:", hermitian_eigenvalues(x).real)

# Each branch projector is an affine function of X, so no
# diagonalization is needed to build it.
plus = spin_projector(s, Branch.PLUS)
minus = spin_projector(s, Branch.MINUS)
print("plus branch dim: ", plus.dim)
print("minus branch dim:", minus.dim)
print("P+ + P- = identity:",
      bool(np.allclose(plus.matrix + minus.matrix, np.eye(6))))

# The numerical pipeline reproduces the closed-form strings.
for branch, proj in ((Branch.PLUS, plus), (Branch.MINUS, minus)):
    numeric = schmidt_string(proj)
    closed = spin_string_closed(s, branch)
    print(f"\n{branch.value} string (pipeline):", numeric.probs)
    print(f"{branch.value} string (closed):  ", closed.probs)

# The reduced matrix on the spin side, the Gram matrix A^dagger A of the
# realigned projector, is 4x4 with only five nonzero entries; a compact
# fingerprint of the plus branch.
a = realign(plus)
q = a.conj().T @ a
print("\nspin-side reduced matrix of the plus branch:")
print(q.real)

# As j grows both branch strings converge to (1/2, 1/6, 1/6, 1/6) at
# rate 1/j, the plus branch from the less entangled side and the minus
# branch from the more entangled side.
target = limiting_string()
print("\n   2j    max|plus - limit|   max|minus - limit|")
for two_j in (1, 2, 5, 10, 25, 50, 100):
    dev_p = np.max(np.abs(
        spin_string_closed(two_j, Branch.PLUS).probs - target.probs))
    dev_m = np.max(np.abs(
        spin_string_closed(two_j, Branch.MINUS).probs - target.probs))
    print(f"  {two_j:4d}    {dev_p:12.3e}        {dev_m:12.3e}")

print("\nlimit vs plus branch: ",
      compare(target, spin_string_closed(10, Branch.PLUS)).value)
print("limit vs minus branch:",
      compare(target, spin_string_closed(10, Branch.MINUS)).value)
