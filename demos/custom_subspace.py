"""
Bring your own subspace
=======================

The pipeline takes any subspace of any finite bipartite factorization:
hand it raw spanning vectors, orthonormalize, validate the projector,
and read off the string and measures.  Subspace documents round-trip
the same data through JSON for the command line tools.
"""

import json

import numpy as np

from subent import (
    Factorization,
    SubspaceBasis,
    gram_schmidt,
    projector_from_basis,
    schmidt_string,
    vector_schmidt,
    pure_subspace_string,
    measures,
    embed,
)
from subent.io import basis_document, dumps_json, parse_subspace_document

np.set_printoptions(precision=6, suppress=True)
rng = np.random.default_rng(7)

# A 2-dimensional subspace of C3 (x) C2, spanned by two raw
# (non-orthonormal) vectors.  Index convention: entry i*d2 + k is the
# coefficient of e_i (x) f_k.
f = Factorization(3, 2)
raw = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))

# Gram-Schmidt with rank reporting; dependent directions are dropped.
vectors = gram_schmidt(raw)
basis = SubspaceBasis(factorization=f, vectors=vectors)
print("orthonormalized", len(vectors), "vectors in", f.d1, "x", f.d2)

# The projector is validated on construction; the report shows the
# Hermiticity, idempotency and trace defects actually measured.
p = projector_from_basis(basis)
report = p.report()
print(f"projector defects: hermiticity {report.hermiticity:.2e}, "
      f"idempotency {report.idempotency:.2e}, trace {report.trace:.2e}")

# The Schmidt string of the subspace and its three measures.
s = schmidt_string(p)
m = measures(s)
print("string:", s.probs)
print(f"rank {s.k}, e_d={m.e_d:.5f}, e_i={m.e_i:.5f}, e_t={m.e_t:.5f}")

# For a 1-dimensional subspace there is a shortcut: the string is the
# outer product of the vector's own Schmidt coefficients with
# themselves.  Both routes agree to machine precision.
v = raw[0] / np.linalg.norm(raw[0])
coeffs = vector_schmidt(v, f)
shortcut = pure_subspace_string(coeffs, f)
span = SubspaceBasis(factorization=f, vectors=v.reshape(1, 6))
pipeline = schmidt_string(projector_from_basis(span))
print("\npure-state shortcut agrees with pipeline:",
      bool(np.allclose(shortcut.probs, pipeline.probs, atol=1e-12)))

# Embedding into a larger factorization appends zeros and nothing else.
bigger = schmidt_string(projector_from_basis(embed(basis, 4, 3)))
print("string unchanged after 4x3 embedding:",
      bool(np.allclose(bigger.probs[: len(s.probs)], s.probs, atol=1e-12)
           and np.all(bigger.probs[len(s.probs):] == 0)))

# Subspace documents serialize the basis for the command line: every
# complex entry is a [re, im] pair, floats carry 17 significant digits,
# and emit -> parse -> emit is byte-identical.
doc = basis_document(basis, label="demo subspace")
text = dumps_json(doc)
parsed = parse_subspace_document(json.loads(text))
print("\ndocument round-trip exact:",
      bool(np.array_equal(parsed.basis, basis.vectors)))
print("first document lines:")
print("\n".join(text.splitlines()[:6]))
