import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from subent import Branch, InputError, schmidt_string, spin_projector
from subent.io import (
    basis_document,
    dumps_json,
    load_subspace_document,
    parse_subspace_document,
    projector_document,
    result_csv,
    result_document,
    result_table,
)
from subent.catalog import antisymmetric_subspace
from subent.spaces import projector_from_basis

from .helpers import pair_matrix_reference

INV = 1.0 / math.sqrt(2.0)

SINGLET_DOC = {
    "label": "singlet",
    "d1": 2,
    "d2": 2,
    "basis": [[[0.0, 0.0], [INV, 0.0], [-INV, 0.0], [0.0, 0.0]]],
}


def make_result():
    p = spin_projector(1, Branch.MINUS)
    return result_document("singlet", p, schmidt_string(p))


class TestParse:
    def test_basis_document(self):
        doc = parse_subspace_document(SINGLET_DOC)
        assert doc.label == "singlet"
        assert doc.factorization.d1 == 2
        assert doc.factorization.d2 == 2
        assert doc.projector is None
        assert doc.basis.shape == (1, 4)
        assert doc.basis[0, 1] == pytest.approx(INV)
        assert doc.basis[0, 2] == pytest.approx(-INV)

    def test_projector_document(self):
        eye = [[[float(i == k), 0.0] for k in range(2)] for i in range(2)]
        doc = parse_subspace_document({"d1": 1, "d2": 2, "projector": eye})
        assert doc.basis is None
        assert np.allclose(doc.projector, np.eye(2))
        assert doc.label is None

    def test_complex_entries(self):
        doc = parse_subspace_document(
            {"d1": 1, "d2": 2, "basis": [[[0.0, 1.0], [0.0, 0.0]]]}
        )
        assert doc.basis[0, 0] == 1j

    def test_not_an_object(self):
        with pytest.raises(InputError, match="JSON object"):
            parse_subspace_document([1, 2])

    def test_unknown_keys(self):
        bad = dict(SINGLET_DOC, extra=1)
        with pytest.raises(InputError, match="unknown document keys: extra"):
            parse_subspace_document(bad)

    def test_missing_factor(self):
        bad = {k: v for k, v in SINGLET_DOC.items() if k != "d2"}
        with pytest.raises(InputError, match="d2"):
            parse_subspace_document(bad)

    @pytest.mark.parametrize("value", [0, -1, 2.0, True, "2"])
    def test_bad_factor(self, value):
        with pytest.raises(InputError):
            parse_subspace_document(dict(SINGLET_DOC, d1=value))

    def test_bad_label(self):
        with pytest.raises(InputError, match="label"):
            parse_subspace_document(dict(SINGLET_DOC, label=7))

    def test_both_basis_and_projector(self):
        bad = dict(SINGLET_DOC)
        bad["projector"] = [[[1.0, 0.0]]]
        with pytest.raises(InputError, match="exactly one"):
            parse_subspace_document(bad)

    def test_neither(self):
        with pytest.raises(InputError, match="exactly one"):
            parse_subspace_document({"d1": 2, "d2": 2})

    def test_empty_basis(self):
        with pytest.raises(InputError, match="non-empty"):
            parse_subspace_document({"d1": 2, "d2": 2, "basis": []})

    def test_wrong_vector_length(self):
        with pytest.raises(InputError, match="basis vector 0"):
            parse_subspace_document(
                {"d1": 2, "d2": 2, "basis": [[[1.0, 0.0]]]}
            )

    @pytest.mark.parametrize(
        "pair", [[1.0], [1.0, 0.0, 0.0], [True, 0.0], ["1", 0.0], 1.0]
    )
    def test_bad_pair(self, pair):
        with pytest.raises(InputError, match="re, im"):
            parse_subspace_document(
                {"d1": 1, "d2": 2, "basis": [[pair, [0.0, 0.0]]]}
            )

    def test_non_finite_pair(self):
        with pytest.raises(InputError, match="non-finite"):
            parse_subspace_document(
                {"d1": 1, "d2": 2, "basis": [[[math.inf, 0.0], [0.0, 0.0]]]}
            )

    def test_wrong_projector_shape(self):
        with pytest.raises(InputError, match="projector must be a list of 4"):
            parse_subspace_document(
                {"d1": 2, "d2": 2, "projector": [[[1.0, 0.0]]]}
            )

    def test_tiny_document_large_factorization(self):
        # the row length is checked before any D-sized allocation
        tracemalloc.start()
        try:
            with pytest.raises(
                InputError,
                match=r"basis vector 0 must be a list of 10000000000 \[re, im\] pairs",
            ):
                parse_subspace_document(
                    {"d1": 100000, "d2": 100000, "basis": [[[1, 0]]]}
                )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    @pytest.mark.parametrize(
        "rows",
        [
            [[[10**400, 0], [0, 0]]],  # whole-array conversion overflows
            [[[10**400, 0], [True, 0]]],  # a bool sends it to the walk
        ],
        ids=["array", "walk"],
    )
    def test_huge_integer_entry(self, rows):
        with pytest.raises(InputError, match=r"^basis\[0\]\[0\]: non-finite entry"):
            parse_subspace_document({"d1": 1, "d2": 2, "basis": rows})

    def test_other_arrays_rejected(self):
        pairs = np.zeros((1, 2, 2), dtype=np.complex128)
        with pytest.raises(InputError, match="non-empty list of vectors"):
            parse_subspace_document({"d1": 1, "d2": 2, "basis": pairs})

    def test_builder_arrays_rejected(self):
        # parsing takes decoded JSON; a builder's float64 array is for dumps_json
        doc = basis_document(antisymmetric_subspace(2))
        with pytest.raises(InputError, match="non-empty list of vectors"):
            parse_subspace_document(doc)
        doc = projector_document(projector_from_basis(antisymmetric_subspace(2)))
        with pytest.raises(InputError, match="list of 4 rows"):
            parse_subspace_document(doc)


class TestLoad:
    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "singlet.json"
        path.write_text(json.dumps(SINGLET_DOC))
        doc = load_subspace_document(path)
        assert doc.label == "singlet"
        assert doc.basis.shape == (1, 4)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_subspace_document(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="not valid JSON"):
            load_subspace_document(path)

    def test_integer_past_digit_limit(self, tmp_path):
        path = tmp_path / "digits.json"
        path.write_text('{"d1": 1, "d2": 1, "basis": [[[' + "1" * 5000 + ", 0]]]}")
        with pytest.raises(InputError, match="not valid JSON"):
            load_subspace_document(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(InputError, match="not valid JSON"):
            load_subspace_document(path)


class TestDocumentBuilders:
    def test_basis_document_round_trip(self):
        basis = antisymmetric_subspace(3)
        doc = basis_document(basis, label="anti3")
        parsed = parse_subspace_document(json.loads(dumps_json(doc)))
        assert parsed.label == "anti3"
        assert np.allclose(parsed.basis, basis.vectors, atol=0)

    def test_projector_document_round_trip(self):
        p = projector_from_basis(antisymmetric_subspace(2))
        doc = projector_document(p)
        parsed = parse_subspace_document(json.loads(dumps_json(doc)))
        assert "label" not in doc
        assert np.allclose(parsed.projector, p.matrix, atol=0)


class TestDumpsJson:
    def test_scalars(self):
        assert dumps_json(None) == "null\n"
        assert dumps_json(True) == "true\n"
        assert dumps_json(3) == "3\n"
        assert dumps_json("hi") == '"hi"\n'

    def test_float_precision(self):
        text = dumps_json(1.0 / 3.0)
        assert float(text) == 1.0 / 3.0

    def test_negative_zero_normalized(self):
        assert dumps_json(-0.0) == "0\n"

    def test_pairs_inline(self):
        text = dumps_json({"basis": [[[0.5, 0.0], [0.0, -0.5]]]})
        assert "[0.5, 0]" in text
        assert "[0, -0.5]" in text

    def test_longer_lists_multiline(self):
        assert dumps_json([1.0, 2.0, 3.0]) == "[\n  1,\n  2,\n  3\n]\n"

    def test_non_finite_rejected(self):
        with pytest.raises(InputError, match="non-finite"):
            dumps_json(math.nan)

    def test_unknown_type_rejected(self):
        with pytest.raises(InputError, match="cannot serialize"):
            dumps_json({"x": object()})

    def test_byte_identical_round_trip(self):
        doc = make_result()
        text = dumps_json(doc)
        again = dumps_json(json.loads(text))
        assert again == text

    def test_subspace_document_round_trip_bytes(self):
        doc = basis_document(antisymmetric_subspace(3), label="a")
        text = dumps_json(doc)
        assert dumps_json(json.loads(text)) == text


SPECIAL_FLOATS = [
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1e308,
    -1e308,
    1.7976931348623157e308,
    3.0,
    -12.0,
    2.0**53,
    1e16,
]
DOCUMENT_FLOATS = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(-(2**60), 2**60).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def pair_arrays(draw):
    """Float arrays shaped like a basis (m, D, 2) or a projector (D, D, 2)."""
    m, dim = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    shape = draw(st.sampled_from([(m, dim, 2), (dim, dim, 2)]))
    return draw(arrays(np.float64, shape, elements=DOCUMENT_FLOATS))


class TestWholeArrayEmit:
    """`dumps_json` writes a float64 ndarray exactly as its ``.tolist()``."""

    @settings(max_examples=200, deadline=None)
    @given(a=pair_arrays())
    def test_array_emits_as_its_list(self, a):
        assert dumps_json(a) == dumps_json(a.tolist())
        assert dumps_json({"x": [a]}) == dumps_json({"x": [a.tolist()]})

    @pytest.mark.parametrize(
        "shape", [(1,), (2,), (3,), (4, 1), (2, 3), (2, 3, 4), (1, 1, 1, 2), (2, 0), (0,)]
    )
    def test_other_shapes(self, shape):
        a = np.arange(np.prod(shape), dtype=np.float64).reshape(shape) - 1.5
        assert dumps_json(a) == dumps_json(a.tolist())
        for other in (a.astype(np.float32), a.astype(np.int64), a.T):
            assert dumps_json(other) == dumps_json(other.tolist())

    def test_non_finite_message(self):
        a = np.zeros((2, 3, 2))
        a[1, 0, 1] = -math.inf
        a[1, 2, 0] = math.nan
        with pytest.raises(InputError) as got:
            dumps_json({"x": a})
        with pytest.raises(InputError) as want:
            dumps_json({"x": a.tolist()})
        assert str(got.value) == str(want.value) == "cannot serialize non-finite float -inf"

    @settings(max_examples=200, deadline=None)
    @given(a=pair_arrays())
    def test_documents_round_trip(self, a):
        m, dim, _ = a.shape
        key = "projector" if m == dim else "basis"
        text = dumps_json({"d1": 1, "d2": dim, key: a})
        data = json.loads(text)
        assert dumps_json(data) == text
        parsed = parse_subspace_document(data)
        matrix = parsed.basis if parsed.basis is not None else parsed.projector
        assert matrix.tobytes() == (a + 0.0).tobytes()
        pairs = np.stack([matrix.real, matrix.imag], axis=-1)
        assert dumps_json({"d1": 1, "d2": dim, key: pairs}) == text


def _mutate(draw, rows):
    """Apply one drawn fault to a row or to a pair of `rows` in place."""
    a = draw(st.integers(0, len(rows) - 1))
    row = rows[a]
    if not isinstance(row, list) or not row:
        return
    b = draw(st.integers(0, len(row) - 1))
    if not isinstance(row[b], list) or len(row[b]) != 2:
        return
    re, im = row[b]
    kind = draw(
        st.sampled_from(
            ["bool", "string", "null", "nan", "inf", "triple", "single",
             "dict pair", "int", "huge int", "number", "tuple", "range", "nested",
             "short row", "long row", "dict row", "tuple row"]
        )
    )
    pairs = {
        "bool": [True, im],
        "string": ["1.5", im],
        "null": [re, None],
        "nan": [math.nan, im],
        "inf": [re, -math.inf],
        "triple": [re, im, 0.0],
        "single": [re],
        "dict pair": {"re": re, "im": im},
        "int": [draw(st.integers(-(10**300), 10**300)), draw(st.integers(-5, 5))],
        "huge int": [re, 10**400],
        "number": re,
        "tuple": (re, im),
        "range": range(2),
        "nested": [[re, im], [re, im]],
    }
    if kind in pairs:
        row[b] = pairs[kind]
    elif kind == "short row":
        del row[b]
    elif kind == "long row":
        row.append([re, im])
    else:
        rows[a] = {"row": row} if kind == "dict row" else tuple(row)


@st.composite
def mutated_documents(draw):
    d1, d2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    key = draw(st.sampled_from(["basis", "projector"]))
    m = draw(st.integers(1, 3)) if key == "basis" else d1 * d2
    leaf = st.one_of(st.floats(-10, 10), st.integers(-3, 3))
    rows = [
        [[draw(leaf), draw(leaf)] for _ in range(d1 * d2)] for _ in range(m)
    ]
    for _ in range(draw(st.integers(0, 3))):
        _mutate(draw, rows)
    return {"d1": d1, "d2": d2, key: rows}


class TestWholeArrayParse:
    """Whole-array parsing gives what the per-entry walk gives."""

    @settings(max_examples=300, deadline=None)
    @given(data=mutated_documents())
    def test_matches_per_entry_parse(self, data):
        try:
            expected = pair_matrix_reference(data)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                parse_subspace_document(data)
            assert str(got.value) == str(exc)
            return
        parsed = parse_subspace_document(data)
        matrix = parsed.basis if "basis" in data else parsed.projector
        assert matrix.shape == expected.shape
        assert matrix.tobytes() == expected.tobytes()

    def test_numpy_scalar_leaves(self):
        # np.float64 is a float, so the walk accepts it; np.int64 is not an int
        rows = [[[np.float64(0.5), np.float64(-1.0)], [0.25, 0]]]
        data = {"d1": 1, "d2": 2, "basis": rows}
        expected = pair_matrix_reference(data)
        assert parse_subspace_document(data).basis.tobytes() == expected.tobytes()
        rows[0][1] = [np.int64(1), 0]
        with pytest.raises(InputError, match=r"basis\[0\]\[1\]: expected a \[re, im\]"):
            parse_subspace_document(data)


class TestResultRenderings:
    def test_document_fields(self):
        doc = make_result()
        assert doc["label"] == "singlet"
        assert (doc["d1"], doc["d2"], doc["dim"]) == (2, 2, 1)
        assert doc["k"] == 4
        assert doc["schmidt_string"] == pytest.approx([0.25] * 4, abs=1e-12)
        assert doc["measures"]["e_i"] == pytest.approx(2.0, abs=1e-12)
        assert doc["projector_defects"]["passes"] is True

    def test_csv_layout(self):
        text = result_csv(make_result())
        lines = text.strip().split("\n")
        assert len(lines) == 2
        header = lines[0].split(",")
        assert header == [
            "label", "d1", "d2", "dim",
            "p1", "p2", "p3", "p4",
            "e_d", "e_i", "e_t",
        ]
        row = lines[1].split(",")
        assert row[0] == "singlet"
        assert row[1:4] == ["2", "2", "1"]
        assert float(row[4]) == pytest.approx(0.25, abs=1e-12)
        assert float(row[9]) == pytest.approx(2.0, abs=1e-12)

    def test_csv_empty_label(self):
        doc = make_result()
        doc["label"] = None
        row = result_csv(doc).strip().split("\n")[1]
        assert row.startswith(",2,2,1")

    def test_table_contents(self):
        text = result_table(make_result())
        assert "label           singlet" in text
        assert "factorization   2 x 2" in text
        assert "subspace dim    1" in text
        assert "schmidt rank    4" in text
        assert "p1" in text
        assert "e_i             2" in text
        assert "projector defects" in text
