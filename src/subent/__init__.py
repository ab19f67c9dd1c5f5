"""Entanglement of subspaces of bipartite Hilbert spaces.

A subspace V of H1 (x) H2 is summarized by the Schmidt string of its
normalized projector P / sqrt(dim V): a descending probability distribution
whose flatness measures how entangled the subspace is.  The package computes
strings numerically for arbitrary subspaces, evaluates three entanglement
measures on them, orders strings by majorization, and ships a catalog of
families with closed-form strings (antisymmetric/symmetric subspaces,
spin-orbit coupling branches, hydrogen-like fine structure levels) against
which the numerical pipeline can be verified.
"""

from .errors import InputError, NumericalError, SubentError
from .linalg import RankDeficiencyWarning, gram_schmidt, hermitian_eigenvalues
from .spaces import (
    Factorization,
    Projector,
    ProjectorReport,
    SubspaceBasis,
    embed,
    projector_from_basis,
    validate_projector,
)
from .schmidt import (
    Measures,
    SchmidtString,
    measures,
    pure_subspace_string,
    realign,
    schmidt_string,
    vector_schmidt,
)
from .majorization import (
    ChainResult,
    ConsistencyReport,
    Verdict,
    compare,
    measure_consistency,
    partial_sums,
    sort_chain,
)
from .catalog import (
    FAMILIES,
    SPIN_STRING_LENGTH,
    Branch,
    HydrogenEntry,
    HydrogenLevel,
    SpinLabel,
    antisym_string_closed,
    antisymmetric_subspace,
    closed_measures,
    hydrogen_level,
    limiting_string,
    spin_operators,
    spin_projector,
    spin_string_closed,
    spin_x_operator,
    sym_string_closed,
    symmetric_subspace,
)
from .verify import (
    Check,
    FamilyReport,
    hydrogen_chain_expected,
    verify_antisym,
    verify_hydrogen,
    verify_spin,
    verify_sym,
)

__version__ = "0.1.0"

__all__ = [
    "SubentError",
    "InputError",
    "NumericalError",
    "RankDeficiencyWarning",
    "hermitian_eigenvalues",
    "gram_schmidt",
    "Factorization",
    "SubspaceBasis",
    "Projector",
    "ProjectorReport",
    "projector_from_basis",
    "validate_projector",
    "embed",
    "SchmidtString",
    "Measures",
    "measures",
    "realign",
    "schmidt_string",
    "vector_schmidt",
    "pure_subspace_string",
    "Verdict",
    "ConsistencyReport",
    "ChainResult",
    "compare",
    "measure_consistency",
    "partial_sums",
    "sort_chain",
    "SpinLabel",
    "Branch",
    "FAMILIES",
    "SPIN_STRING_LENGTH",
    "HydrogenEntry",
    "HydrogenLevel",
    "antisymmetric_subspace",
    "symmetric_subspace",
    "antisym_string_closed",
    "sym_string_closed",
    "closed_measures",
    "spin_operators",
    "spin_x_operator",
    "spin_projector",
    "spin_string_closed",
    "limiting_string",
    "hydrogen_level",
    "Check",
    "FamilyReport",
    "verify_antisym",
    "verify_sym",
    "verify_spin",
    "verify_hydrogen",
    "hydrogen_chain_expected",
    "__version__",
]
