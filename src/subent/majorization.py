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
    p = np.asarray(x, dtype=np.float64).ravel()
    if p.size == 0:
        raise InputError("cannot compare an empty string")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise InputError("probability strings must be finite and non-negative")
    return np.sort(p)[::-1]


def _padded_pair(s, t) -> tuple[np.ndarray, np.ndarray]:
    a, b = _descending(s), _descending(t)
    n = max(a.size, b.size)
    return (
        np.pad(a, (0, n - a.size)),
        np.pad(b, (0, n - b.size)),
    )


def compare(s, t, tol: float = DEFAULT_COMPARE_TOL) -> Verdict:
    """Majorization verdict of s relative to t.

    Accepts :class:`SchmidtString` objects or raw probability arrays, which
    are sorted and zero padded to a common length.  All partial sums of s at
    most those of t (within absolute `tol`) means s is more entangled; both
    directions holding means the strings are equal within tolerance; neither
    means they are incomparable.  `tol` must be finite and non-negative.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise InputError(f"tol must be finite and >= 0, got {tol!r}")
    a, b = _padded_pair(s, t)
    ca, cb = np.cumsum(a), np.cumsum(b)
    s_below = bool(np.all(ca <= cb + tol))
    t_below = bool(np.all(cb <= ca + tol))
    if s_below and t_below:
        return Verdict.EQUAL
    if s_below:
        return Verdict.MORE_ENTANGLED
    if t_below:
        return Verdict.LESS_ENTANGLED
    return Verdict.INCOMPARABLE


@dataclass(frozen=True)
class ConsistencyReport:
    """Measure margins for a majorization-ordered pair.

    Each margin is measure(s) - measure(t); all must be >= -slack when s is
    at least as entangled as t, since every measure here is Schur concave.
    """

    verdict: Verdict
    d_margin: float
    i_margin: float
    t_margin: float
    ok: bool


def measure_consistency(
    s: SchmidtString, t: SchmidtString, slack: float = DEFAULT_MEASURE_SLACK
) -> ConsistencyReport:
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
    ok = d >= -slack and i >= -slack and t_ >= -slack
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
    reported instead.
    """
    entries = list(items)
    if len(entries) < 2:
        raise InputError("sort_chain needs at least two strings")
    labels = [str(label) for label, _ in entries]
    strings = [s for _, s in entries]
    n = len(entries)

    ties: list[tuple[str, str]] = []
    incomparable: list[tuple[str, str]] = []
    verdicts: dict[tuple[int, int], Verdict] = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = compare(strings[i], strings[j], tol)
            verdicts[(i, j)] = v
            if v is Verdict.EQUAL:
                ties.append((labels[i], labels[j]))
            elif v is Verdict.INCOMPARABLE:
                incomparable.append((labels[i], labels[j]))

    if incomparable:
        return ChainResult(
            ordered=False,
            labels=None,
            ties=tuple(ties),
            incomparable=tuple(incomparable),
        )

    def dominates(i: int, j: int) -> bool:
        # True when string i is strictly more entangled than string j.
        if i == j:
            return False
        v = verdicts[(i, j)] if i < j else verdicts[(j, i)]
        if i < j:
            return v is Verdict.MORE_ENTANGLED
        return v is Verdict.LESS_ENTANGLED

    # Least entangled first: sort by how many other strings each one
    # dominates; stable, so equal strings keep their input order.
    scores = [sum(dominates(i, j) for j in range(n)) for i in range(n)]
    order = sorted(range(n), key=lambda i: scores[i])
    return ChainResult(
        ordered=True,
        labels=tuple(labels[i] for i in order),
        ties=tuple(ties),
        incomparable=(),
    )
