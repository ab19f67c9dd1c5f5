"""In-process fuzz of the CLI option space.

Every argv, valid or not, must end in an exit code the CLI documents (0, 1,
2 or 3) with no exception escaping `main` and no traceback on stderr.  Sizes
are capped (antisym/sym n <= 64, verify n <= 12, 2j <= 60, hydrogen n <= 30)
so each call stays small; no subprocess is started.  Exchange preset, spin
preset, hydrogen, `verify --family antisym|sym|hydrogen` range and basis
document sizes over the byte budget are drawn on their own, and each must be
refused at once.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subent.cli import main

JUNK = ["", "x", "1.5", "0x10", " 3", "1e2", "-0", "nan"]
REALS = ["nan", "inf", "-inf", "-1", "-0.0", "0", "1e-300", "1e-9", "0.5", "1e400", "x"]


def numbers(least: int, most: int):
    return st.one_of(st.integers(least, most).map(str), st.sampled_from(JUNK))


def reals():
    return st.one_of(st.sampled_from(REALS), st.floats().map(repr))


def options(draw, table: dict) -> list[str]:
    """Some of the options in `table` (name -> value strategy, or None for a
    flag), in a drawn order, each with a drawn value."""
    names = draw(st.lists(st.sampled_from(sorted(table)), unique=True))
    argv = []
    for name in names:
        argv.append(name)
        if table[name] is not None:
            argv.append(draw(table[name]))
    return argv


@pytest.fixture(scope="module")
def documents(tmp_path_factory) -> list[str]:
    root = tmp_path_factory.mktemp("fuzz")
    inv = 1.0 / math.sqrt(2.0)
    singlet = [[0.0, 0.0], [inv, 0.0], [-inv, 0.0], [0.0, 0.0]]
    eye = [[[float(i == k), 0.0] for k in range(4)] for i in range(4)]
    docs = {
        "basis.json": {"d1": 2, "d2": 2, "basis": [singlet]},
        "projector.json": {"d1": 2, "d2": 2, "projector": eye},
        "bad_dims.json": {"d1": 3, "d2": 2, "basis": [singlet]},
    }
    for name, doc in docs.items():
        (root / name).write_text(json.dumps(doc))
    (root / "not_json.json").write_text("{")
    return [str(root / name) for name in docs] + [
        str(root / "not_json.json"),
        str(root / "missing.json"),
        str(root),
    ]


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check(argv: list[str]) -> None:
    code, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


PRESET = st.sampled_from(["antisym", "sym", "spin", "bogus"])
BRANCH = st.sampled_from(["plus", "minus", "up", ""])
FORMAT = st.sampled_from(["json", "csv", "table", "xml"])


@st.composite
def schmidt_argv(draw, documents):
    argv = ["schmidt"]
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(documents)))
    return argv + options(
        draw,
        {
            "--preset": PRESET,
            "--n": numbers(-3, 64),
            "--two-j": numbers(-3, 60),
            "--branch": BRANCH,
            "--zero-threshold": reals(),
            "--format": FORMAT,
            "--label": st.text(max_size=8),
            "--no-orthonormalize": None,
        },
    )


@st.composite
def compare_token(draw, documents):
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(documents))
    kind = draw(st.sampled_from(["antisym", "sym", "spin", "Sym", ""]))
    cap = 60 if kind == "spin" else 64
    parts = draw(st.lists(st.one_of(numbers(-3, cap), BRANCH), max_size=3))
    return ":".join([kind, *parts])


@st.composite
def compare_argv(draw, documents):
    tokens = [draw(compare_token(documents)) for _ in range(draw(st.integers(0, 3)))]
    flags = options(draw, {"--tol": reals(), "--zero-threshold": reals()})
    return ["compare", *tokens, *flags]


HYDROGEN_ARGV = st.builds(
    lambda n, fmt: ["hydrogen", *n, *fmt],
    st.one_of(st.just([]), numbers(-3, 30).map(lambda v: ["--n", v])),
    st.one_of(st.just([]), FORMAT.map(lambda v: ["--format", v])),
)


@st.composite
def verify_argv(draw):
    family = st.sampled_from(["all", "antisym", "sym", "spin", "hydrogen", "bogus"])
    return ["verify"] + options(
        draw,
        {
            "--family": family,
            "--max-n": numbers(-2, 12),
            "--max-two-j": numbers(-2, 60),
        },
    )


FUZZ = settings(deadline=None)

# 400 n^2 estimated bytes is over BYTE_BUDGET from n = 1582 on
OVER_BUDGET = st.one_of(
    st.integers(1582, 1700), st.integers(1700, 10**6), st.integers(10**6, 10**40)
).map(str)


# 720 (2j + 1) estimated bytes is over BYTE_BUDGET from 2j = 1,388,888 on
SPIN_OVER_BUDGET = st.one_of(
    st.integers(1_388_888, 1_400_000), st.integers(1_400_000, 10**40)
).map(str)


# 65 (d1 d2)^2 estimated bytes is over BYTE_BUDGET from d1 d2 = 3923 on; a
# valid one-vector document holds d1 d2 pairs, so d1 d2 stays below 16,000
@st.composite
def over_budget_header(draw):
    d1 = draw(st.integers(1, 4000))
    least = -(-3923 // d1)
    d2 = draw(st.integers(least, max(least, 16_000 // d1)))
    return d1, d2


# 33 max_n^4 estimated bytes is over BYTE_BUDGET from max_n = 75 on
EXCHANGE_RANGE_OVER_BUDGET = st.one_of(
    st.integers(75, 200), st.integers(200, 10**6), st.integers(10**6, 10**40)
).map(str)


# 4 (2n)^2 estimated bytes is over BYTE_BUDGET from n = 7906 on
HYDROGEN_OVER_BUDGET = st.one_of(
    st.integers(7906, 8100), st.integers(8100, 10**6), st.integers(10**6, 10**40)
).map(str)


# a `verify` sweep's 65 (2 max_n)^2 estimated bytes is over BYTE_BUDGET from
# max_n = 1962 on
HYDROGEN_RANGE_OVER_BUDGET = st.one_of(
    st.integers(1962, 2100), st.integers(2100, 10**6), st.integers(10**6, 10**40)
).map(str)


# a `verify` spin sweep's 150 (2 max_two_j + 2)^2 estimated bytes is over
# BYTE_BUDGET from max_two_j = 1290 on
SPIN_RANGE_OVER_BUDGET = st.one_of(
    st.integers(1290, 1400), st.integers(1400, 10**6), st.integers(10**6, 10**40)
).map(str)


class TestOptionSpace:
    @settings(FUZZ, max_examples=150)
    @given(data=st.data())
    def test_schmidt(self, documents, data):
        check(data.draw(schmidt_argv(documents)))

    @settings(FUZZ, max_examples=150)
    @given(data=st.data())
    def test_compare(self, documents, data):
        check(data.draw(compare_argv(documents)))

    @settings(FUZZ, max_examples=60)
    @given(argv=HYDROGEN_ARGV)
    def test_hydrogen(self, argv):
        check(argv)

    @settings(FUZZ, max_examples=30)
    @given(argv=verify_argv())
    def test_verify(self, argv):
        check(argv)


class TestOverBudget:
    @settings(max_examples=60, deadline=500)
    @given(
        kind=st.sampled_from(["antisym", "sym"]),
        n=OVER_BUDGET,
        schmidt=st.booleans(),
    )
    def test_exchange_preset_is_refused_at_once(self, kind, n, schmidt):
        if schmidt:
            argv = ["schmidt", "--preset", kind, "--n", n]
        else:
            argv = ["compare", f"{kind}:{n}", "sym:2"]
        code, err = run(argv)
        assert code == 2, (argv, err)
        assert err.startswith(f"input error: n={n} needs about "), err

    @settings(max_examples=60, deadline=500)
    @given(n=HYDROGEN_OVER_BUDGET, fmt=st.sampled_from(["json", "csv", "table"]))
    def test_hydrogen_is_refused_at_once(self, n, fmt):
        argv = ["hydrogen", "--n", n, "--format", fmt]
        code, err = run(argv)
        assert code == 2, (argv, err)
        assert err.startswith(f"input error: n={n} needs about "), err

    @settings(max_examples=60, deadline=500)
    @given(max_n=HYDROGEN_RANGE_OVER_BUDGET)
    def test_verify_hydrogen_range_is_refused_at_once(self, max_n):
        argv = ["verify", "--family", "hydrogen", "--max-n", max_n]
        code, err = run(argv)
        assert code == 2, (argv, err)
        assert err.startswith(f"input error: max_n={max_n} needs about "), err

    @settings(max_examples=60, deadline=500)
    @given(
        family=st.sampled_from(["antisym", "sym"]), max_n=EXCHANGE_RANGE_OVER_BUDGET
    )
    def test_verify_exchange_range_is_refused_at_once(self, family, max_n):
        argv = ["verify", "--family", family, "--max-n", max_n]
        code, err = run(argv)
        assert code == 2, (argv, err)
        assert err.startswith(f"input error: max_n={max_n} needs about "), err

    @settings(max_examples=60, deadline=500)
    @given(max_two_j=SPIN_RANGE_OVER_BUDGET)
    def test_verify_spin_range_is_refused_at_once(self, max_two_j):
        argv = ["verify", "--family", "spin", "--max-two-j", max_two_j]
        code, err = run(argv)
        assert code == 2, (argv, err)
        assert err.startswith(f"input error: max_two_j={max_two_j} needs about "), err

    @settings(max_examples=60, deadline=500)
    @given(two_j=SPIN_OVER_BUDGET, schmidt=st.booleans())
    def test_spin_preset_is_refused_at_once(self, two_j, schmidt):
        if schmidt:
            argv = ["schmidt", "--preset", "spin", "--two-j", two_j, "--branch", "minus"]
        else:
            argv = ["compare", "sym:2", f"spin:{two_j}:plus"]
        code, err = run(argv)
        assert code == 2, (argv, err)
        assert err.startswith(f"input error: 2j={two_j} needs about "), err

    @settings(max_examples=30, deadline=500)
    @given(header=over_budget_header(), schmidt=st.booleans())
    def test_basis_document_is_refused_at_once(self, tmp_path_factory, header, schmidt):
        d1, d2 = header
        path = tmp_path_factory.mktemp("over_budget") / "basis.json"
        vector = "[[1, 0]" + ", [0, 0]" * (d1 * d2 - 1) + "]"
        path.write_text(f'{{"d1": {d1}, "d2": {d2}, "basis": [{vector}]}}')
        argv = ["schmidt", str(path)] if schmidt else ["compare", str(path), "sym:2"]
        code, err = run(argv)
        assert code == 2, (argv, err)
        assert err.startswith(f"input error: d1={d1}, d2={d2} needs about "), err
