"""Every numerical tolerance and threshold of the package, in one table,
and the one check against its byte budget.

The README section "Numerical conventions" cites this table by name, and a
test keeps the two equal.
"""

from .errors import InputError

# spaces: basis and projector validation, entrywise max-abs defects
ORTHONORMALITY_TOL = 1e-10
PROJECTOR_HERMITICITY_TOL = 1e-10
PROJECTOR_IDEMPOTENCY_TOL = 1e-10
PROJECTOR_TRACE_TOL = 1e-8
REALIGN_NORM_TOL = 1e-10  # | ||P||_F / sqrt(dim) - 1 |

# linalg
HERMITICITY_TOL = 1e-10  # ||h - h^dagger||_F
EIGENVALUE_SUM_TOL = 1e-10  # eigenvalue sum vs trace, relative to max(1, |trace|)
DROP_TOL = 1e-10  # Gram-Schmidt drops v if its residual < DROP_TOL * max(1, ||v||)

# schmidt
NEGATIVE_EIGENVALUE_FLOOR = 1e-10  # values down to -floor are clamped to zero
STRING_SUM_TOL = 1e-9
DEFAULT_ZERO_THRESHOLD = 1e-10
VECTOR_NORM_TOL = 1e-8

# majorization
DEFAULT_COMPARE_TOL = 1e-9  # absolute, on partial sums
DEFAULT_MEASURE_SLACK = 1e-12

# sizes: the bytes a route may take, estimated before it allocates
BYTE_BUDGET = 10**9

# verify: closed-form oracles
STRING_TOL = 1e-9
MEASURE_TOL = 1e-9
Q_MATRIX_TOL = 1e-10
COMPLETENESS_TOL = 1e-12


def within_budget(size: str, need: int) -> None:
    """Refuse `size` (such as ``n=3000``) before anything is allocated when
    its route's estimated peak, `need` bytes, is over `BYTE_BUDGET`."""
    if need > BYTE_BUDGET:
        raise InputError(f"{size} needs about {need:,} bytes, budget {BYTE_BUDGET:,}")
