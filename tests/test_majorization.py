import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subent import (
    Branch,
    InputError,
    SchmidtString,
    SpinLabel,
    Verdict,
    antisym_string_closed,
    compare,
    hydrogen_level,
    limiting_string,
    measure_consistency,
    partial_sums,
    sort_chain,
    spin_string_closed,
    sym_string_closed,
)

from .helpers import random_distribution, t_transform

INCOMPARABLE_A = np.array([0.6, 0.4, 0.0, 0.0])
INCOMPARABLE_B = np.array([0.7, 0.1, 0.1, 0.1])


def distributions(max_len=6):
    return (
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=max_len)
        .map(lambda xs: np.array(xs) / np.sum(xs))
    )


def uniform(k):
    return np.full(k, 1.0 / k)


@st.composite
def string_families(draw):
    # n strings drawn from at most n - 1 distinct ones, so some repeat;
    # uniform strings are totally ordered, so ordered chains come up too
    n = draw(st.integers(2, 25))
    pool = draw(
        st.lists(
            st.one_of(distributions(max_len=8), st.integers(1, 8).map(uniform)),
            min_size=1,
            max_size=n - 1,
        )
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return [pool[i] for i in picks]


class TestPartialSums:
    def test_sorted_padded_rows(self):
        c = partial_sums([[0.25, 0.75], [1.0], antisym_string_closed(2)])
        assert c.shape == (3, 4)
        np.testing.assert_array_equal(c[0], [0.75, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(c[1], [1.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(c[2], np.cumsum(antisym_string_closed(2).probs))

    def test_prefix_matches_own_cumsum(self):
        rng = np.random.default_rng(2)
        strings = [random_distribution(rng, int(k)) for k in rng.integers(1, 9, 20)]
        c = partial_sums(strings)
        for row, p in zip(c, strings):
            own = np.cumsum(np.sort(p)[::-1])
            np.testing.assert_array_equal(row[: p.size], own)
            assert np.all(row[p.size:] == own[-1])

    def test_rejects_bad_strings(self):
        with pytest.raises(InputError, match="empty"):
            partial_sums([[1.0], []])
        with pytest.raises(InputError, match="non-negative"):
            partial_sums([[1.0], [1.5, -0.5]])


class TestCompare:
    def test_equal_to_itself(self):
        s = antisym_string_closed(3)
        assert compare(s, s) is Verdict.EQUAL

    def test_example_one_strings(self):
        # antisymmetric n=3 is more entangled than symmetric n=2
        assert (
            compare(antisym_string_closed(3), sym_string_closed(2))
            is Verdict.MORE_ENTANGLED
        )
        assert (
            compare(sym_string_closed(2), antisym_string_closed(3))
            is Verdict.LESS_ENTANGLED
        )

    def test_minus_branch_more_entangled_than_plus(self):
        s = SpinLabel(2)  # j = 1
        minus = spin_string_closed(s, Branch.MINUS)
        plus = spin_string_closed(s, Branch.PLUS)
        assert compare(minus, plus) is Verdict.MORE_ENTANGLED

    def test_incomparable_pair(self):
        assert compare(INCOMPARABLE_A, INCOMPARABLE_B) is Verdict.INCOMPARABLE

    def test_pads_different_lengths(self):
        # (1) against the uniform string of length 4
        assert compare([1.0], [0.25] * 4) is Verdict.LESS_ENTANGLED

    def test_unentangled_is_least_entangled(self):
        rng = np.random.default_rng(3)
        top = np.zeros(6)
        top[0] = 1.0
        for _ in range(50):
            p = random_distribution(rng, 6)
            assert compare(p, top) in (Verdict.MORE_ENTANGLED, Verdict.EQUAL)

    def test_uniform_is_most_entangled(self):
        rng = np.random.default_rng(5)
        uniform = np.full(6, 1.0 / 6.0)
        for _ in range(50):
            p = random_distribution(rng, 6)
            assert compare(uniform, p) in (Verdict.MORE_ENTANGLED, Verdict.EQUAL)

    def test_tolerance_softens_equality(self):
        a = np.array([0.5, 0.5])
        b = np.array([0.5 + 1e-12, 0.5 - 1e-12])
        assert compare(a, b) is Verdict.EQUAL
        assert compare(a, b, tol=1e-14) is Verdict.MORE_ENTANGLED

    @settings(max_examples=100, deadline=None)
    @given(p=distributions(), q=distributions())
    def test_swap_antisymmetry(self, p, q):
        forward = compare(p, q)
        backward = compare(q, p)
        expected = {
            Verdict.MORE_ENTANGLED: Verdict.LESS_ENTANGLED,
            Verdict.LESS_ENTANGLED: Verdict.MORE_ENTANGLED,
            Verdict.EQUAL: Verdict.EQUAL,
            Verdict.INCOMPARABLE: Verdict.INCOMPARABLE,
        }[forward]
        assert backward is expected

    @settings(max_examples=100, deadline=None)
    @given(p=distributions())
    def test_t_transform_increases_entanglement(self, p):
        rng = np.random.default_rng(int(p.sum() * 1e6) % 2**31)
        s = p
        for _ in range(3):
            s = t_transform(rng, s)
        assert compare(s, p) in (Verdict.MORE_ENTANGLED, Verdict.EQUAL)

    def test_transitivity_on_random_triples(self):
        rng = np.random.default_rng(7)
        found = 0
        while found < 30:
            base = random_distribution(rng, 5)
            mid = t_transform(rng, t_transform(rng, base))
            top = t_transform(rng, t_transform(rng, mid))
            if (
                compare(top, mid) is Verdict.MORE_ENTANGLED
                and compare(mid, base) is Verdict.MORE_ENTANGLED
            ):
                assert compare(top, base) is Verdict.MORE_ENTANGLED
                found += 1


class TestMeasureConsistency:
    def test_equal_strings_zero_margins(self):
        s = sym_string_closed(3)
        report = measure_consistency(s, s)
        assert report.verdict is Verdict.EQUAL
        assert report.d_margin == 0
        assert report.i_margin == 0
        assert report.t_margin == 0
        assert report.ok

    def test_hydrogen_n2_chain_pairs(self):
        level = hydrogen_level(2)
        strings = {e.label: e.string for e in level.entries}
        strings["S_0"] = limiting_string()
        order = ["V_1/2", "V_3/2", "S_0", "Vt_1/2"]  # least to most entangled
        for lo, hi in zip(order, order[1:]):
            report = measure_consistency(strings[hi], strings[lo])
            assert report.ok, (lo, hi, report)
            assert report.d_margin >= 0
            assert report.i_margin >= 0
            assert report.t_margin >= 0

    def test_precondition_enforced(self):
        with pytest.raises(InputError, match="at least as entangled"):
            measure_consistency(
                SchmidtString.from_probs(sym_string_closed(2).probs),
                antisym_string_closed(3),
            )

    def test_raw_strings_rejected(self):
        # compare takes raw arrays; the measures need SchmidtString objects
        with pytest.raises(InputError, match="needs a SchmidtString, got list"):
            measure_consistency([0.5, 0.5], [1.0])

    def test_random_transform_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            t = random_distribution(rng, int(rng.integers(2, 9)))
            s = t
            for _ in range(int(rng.integers(1, 4))):
                s = t_transform(rng, s)
            report = measure_consistency(
                SchmidtString.from_probs(s), SchmidtString.from_probs(t)
            )
            assert report.ok, report


class TestSortChain:
    def test_hydrogen_n3_with_limit(self):
        level = hydrogen_level(3)
        items = [(e.label, e.string) for e in level.entries]
        items.append(("S_0", limiting_string()))
        chain = sort_chain(items)
        assert chain.ordered
        assert chain.labels == (
            "V_1/2",
            "V_3/2",
            "V_5/2",
            "S_0",
            "Vt_3/2",
            "Vt_1/2",
        )
        assert chain.ties == ()
        assert chain.incomparable == ()

    def test_ties_noted(self):
        s = sym_string_closed(2)
        chain = sort_chain(
            [("a", s), ("b", s), ("c", antisym_string_closed(3))]
        )
        assert chain.ordered
        assert ("a", "b") in chain.ties
        # equal strings keep input order; both follow the more entangled c?
        # no: c is more entangled, so it comes last
        assert chain.labels == ("a", "b", "c")

    def test_incomparable_reported(self):
        chain = sort_chain([("x", INCOMPARABLE_A), ("y", INCOMPARABLE_B)])
        assert not chain.ordered
        assert chain.labels is None
        assert chain.incomparable == (("x", "y"),)

    def test_requires_two(self):
        with pytest.raises(InputError, match="at least two"):
            sort_chain([("only", antisym_string_closed(2))])

    def test_bad_tolerance_rejected(self):
        items = [("a", [1.0]), ("b", [0.5, 0.5])]
        for tol in (float("nan"), -1.0):
            with pytest.raises(InputError, match="tol must be finite and >= 0"):
                sort_chain(items, tol=tol)

    @settings(max_examples=150, deadline=None)
    @given(family=string_families(), tol=st.sampled_from([0.0, 1e-9, 0.05]))
    def test_matches_pairwise_compare(self, family, tol):
        n = len(family)
        labels = [f"s{i}" for i in range(n)]
        chain = sort_chain(zip(labels, family), tol)
        verdict = [[compare(p, q, tol) for q in family] for p in family]
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]

        def pairs(v):
            return tuple((labels[i], labels[j]) for i, j in upper if verdict[i][j] is v)

        assert chain.ties == pairs(Verdict.EQUAL)
        assert chain.incomparable == pairs(Verdict.INCOMPARABLE)
        assert chain.ordered == (not chain.incomparable)
        if chain.ordered:
            score = [row.count(Verdict.MORE_ENTANGLED) for row in verdict]
            order = sorted(range(n), key=lambda i: score[i])
            assert chain.labels == tuple(labels[i] for i in order)
        else:
            assert chain.labels is None

    def test_spin_branches_ordered(self):
        items = []
        for two_j in (1, 2, 3):
            items.append(
                (f"plus{two_j}", spin_string_closed(SpinLabel(two_j), Branch.PLUS))
            )
        chain = sort_chain(items)
        assert chain.ordered
        # entanglement of the plus branch grows with j
        assert chain.labels == ("plus1", "plus2", "plus3")
