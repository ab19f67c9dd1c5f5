"""Majorization-based entanglement ordering of Schmidt strings.

A string s is majorized by t (s < t) when every partial sum of s, sorted
descending, is at most the matching partial sum of t.  Flatter strings sit
lower in the order, so s < t reads "s is more entangled than t".  Strings of
different lengths are compared after zero padding, which matches the
embedding behaviour of subspace strings.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError
from .linalg import as_array
from .schmidt import SchmidtString, measures
from .tolerances import DEFAULT_COMPARE_TOL, DEFAULT_MEASURE_SLACK


class Verdict(enum.Enum):
    """Outcome of comparing string s against string t."""

    MORE_ENTANGLED = "more_entangled"
    LESS_ENTANGLED = "less_entangled"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def _descending(x) -> np.ndarray:
    if isinstance(x, SchmidtString):
        return np.asarray(x.probs, dtype=np.float64)
    p = as_array(x, "probability string", np.float64).ravel()
    if p.size == 0:
        raise InputError("cannot compare an empty string")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise InputError("probability strings must be finite and non-negative")
    return np.sort(p)[::-1]


def partial_sums(strings: Iterable[SchmidtString | Sequence[float]]) -> np.ndarray:
    """Partial sums of each string sorted descending, as an (n, L) array.

    Raw probability arrays are validated and sorted; every string is zero
    padded to the longest length L before its row is cumulatively summed.
    Padding only appends copies of a row's total, so comparing two rows
    gives the same verdict as comparing the pair padded to its own length.
    """
    rows = [_descending(s) for s in strings]
    padded = np.zeros((len(rows), max((r.size for r in rows), default=0)))
    for i, r in enumerate(rows):
        padded[i, : r.size] = r
    return np.cumsum(padded, axis=1)


_SLAB = 1 << 16  # cells in one slab of `_below`'s (rows, L, n) comparison


def _below(c: np.ndarray, tol: float) -> np.ndarray:
    """below[i, j]: no partial sum in row i of `c` exceeds row j's plus tol."""
    if not (math.isfinite(tol) and tol >= 0):
        raise InputError(f"tol must be finite and >= 0, got {tol!r}")
    c_tol = np.ascontiguousarray((c + tol).T)  # (L, n): slabs reduce over axis 1
    step = max(1, _SLAB // c.size)
    below = np.empty((len(c), len(c)), dtype=bool)
    for i in range(0, len(c), step):
        np.all(c[i : i + step, :, None] <= c_tol, axis=1, out=below[i : i + step])
    return below


# Verdict of string i against string j, indexed by 2 * below[i, j] + below[j, i].
_VERDICTS = (
    Verdict.INCOMPARABLE,
    Verdict.LESS_ENTANGLED,
    Verdict.MORE_ENTANGLED,
    Verdict.EQUAL,
)


def compare(s, t, tol: float = DEFAULT_COMPARE_TOL) -> Verdict:
    """Majorization verdict of s relative to t.

    Accepts :class:`SchmidtString` objects or raw probability arrays, which
    are sorted and zero padded to a common length.  All partial sums of s at
    most those of t (within absolute `tol`) means s is more entangled; both
    directions holding means the strings are equal within tolerance; neither
    means they are incomparable.  `tol` must be finite and non-negative.
    This is the pairwise reference that :func:`sort_chain` agrees with.
    """
    below = _below(partial_sums([s, t]), tol)
    return _VERDICTS[2 * below[0, 1] + below[1, 0]]


@dataclass(frozen=True)
class ConsistencyReport:
    """Measure margins for a majorization-ordered pair.

    Each margin is measure(s) - measure(t); all must be at least
    -DEFAULT_MEASURE_SLACK when s is at least as entangled as t, since every
    measure here is Schur concave.
    """

    verdict: Verdict
    d_margin: float
    i_margin: float
    t_margin: float
    ok: bool


def measure_consistency(s: SchmidtString, t: SchmidtString) -> ConsistencyReport:
    """Check that all three measures respect a majorization relation.

    Requires compare(s, t) to come out more_entangled or equal; raises
    InputError otherwise.
    """
    verdict = compare(s, t)
    if verdict not in (Verdict.MORE_ENTANGLED, Verdict.EQUAL):
        raise InputError(
            f"measure_consistency requires s at least as entangled as t, "
            f"got verdict {verdict.value}"
        )
    ms, mt = measures(s), measures(t)
    d = ms.e_d - mt.e_d
    i = ms.e_i - mt.e_i
    t_ = ms.e_t - mt.e_t
    ok = min(d, i, t_) >= -DEFAULT_MEASURE_SLACK
    return ConsistencyReport(verdict=verdict, d_margin=d, i_margin=i, t_margin=t_, ok=ok)


@dataclass(frozen=True)
class ChainResult:
    """Result of sorting labelled strings by entanglement.

    `labels` runs least to most entangled when `ordered` is true and is None
    otherwise.  `ties` lists label pairs whose strings compared equal;
    `incomparable` lists pairs with no majorization relation either way.
    """

    ordered: bool
    labels: tuple[str, ...] | None
    ties: tuple[tuple[str, str], ...]
    incomparable: tuple[tuple[str, str], ...]


def sort_chain(
    items: Iterable[tuple[str, SchmidtString | Sequence[float]]],
    tol: float = DEFAULT_COMPARE_TOL,
) -> ChainResult:
    """Totally order labelled strings by majorization when possible.

    Takes (label, string) pairs; needs at least two.  If any pair is
    incomparable the chain cannot be ordered and the offending pairs are
    reported instead.  `ties` and `incomparable` list each pair (i, j),
    i < j in input order, in row-major order; every verdict is the one
    :func:`compare` gives for that pair.  Costs O(n^2 L) array work for n
    strings of longest length L.
    """
    entries = list(items)
    if len(entries) < 2:
        raise InputError("sort_chain needs at least two strings")
    labels = [str(label) for label, _ in entries]
    below = _below(partial_sums(s for _, s in entries), tol)

    def pairs(mask: np.ndarray) -> tuple[tuple[str, str], ...]:
        # the pairs i < j where the symmetric `mask` holds, row-major
        i, j = (x.tolist() for x in mask.nonzero()) if mask.any() else ((), ())
        return tuple((labels[a], labels[b]) for a, b in zip(i, j) if a < b)

    # string i against j: equal where both below[i, j] and below[j, i] hold,
    # incomparable where neither does, more entangled where only below[i, j]
    equal = below & below.T
    np.fill_diagonal(equal, False)  # each string equals itself; skip those
    ties, incomparable = pairs(equal), pairs(~(below | below.T))
    if incomparable:
        return ChainResult(
            ordered=False, labels=None, ties=ties, incomparable=incomparable
        )
    # Least entangled first: sort by how many strings each one strictly
    # dominates; stable, so equal strings keep their input order.
    scores = (below & ~below.T).sum(axis=1)
    order = np.argsort(scores, kind="stable")
    return ChainResult(
        ordered=True, labels=tuple(labels[i] for i in order), ties=ties, incomparable=()
    )
