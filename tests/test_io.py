import gc
import json
import math
import tracemalloc
import warnings
from enum import Enum
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from subent import (
    Branch,
    HydrogenEntry,
    HydrogenLevel,
    InputError,
    SchmidtString,
    hydrogen_level,
    limiting_string,
    measures,
    schmidt_string,
    sort_chain,
    spin_projector,
)
from subent import io as io_module
from subent.io import (
    basis_document,
    dumps_json,
    hydrogen_document,
    load_subspace_document,
    parse_subspace_document,
    projector_document,
    result_csv,
    result_document,
    result_table,
)
from subent.catalog import antisymmetric_subspace
from subent.spaces import projector_from_basis

from .helpers import (
    dumps_json_reference,
    load_subspace_document_reference,
    pair_matrix_reference,
)

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


# number tokens as a document may spell them: 17-digit and shortest floats,
# subnormals, -0.0, integers around 2^63 and 2^64, and what json reads as
# non-finite
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
NUMBER_TOKENS = st.one_of(
    _FLOATS.map(repr),
    _FLOATS.map(lambda x: format(x, ".17g")),
    st.floats(-1e-307, 1e-307).map(repr),
    st.sampled_from(["-0.0", "-0", "0", "5e-324", "2.2250738585072014e-308", "1e-400"]),
    st.integers(2**63 - 3, 2**63 + 3).map(str),
    st.integers(2**64 - 3, 2**64 + 3).map(str),
    st.integers(-(2**64) - 3, -(2**63) + 3).map(str),
    st.integers(2**64, 2**200).map(str),
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" * 400]),
)

# string tokens: escapes, lone surrogates, raw UTF-8, and `]`, `\"`, `\\`
STRING_TOKENS = st.one_of(
    st.text().map(json.dumps),
    st.text().map(lambda s: json.dumps(s, ensure_ascii=False)),
    st.text("[]{}\"\\ab").map(json.dumps),
    st.sampled_from(['"\\ud800"', '"a\\udc00b"', '"\\ud83d\\ude00"', '"\\u005d"']),
    # longer than any array drawn below
    st.sampled_from(["[", "]", '\\"', "\\\\", '[\\"]\\\\']).map(lambda s: f'"{s * 2000}"'),
)

# JSON whitespace as it may stand around a bracket, tabs and CR included
SPACES = st.sampled_from(["", "", "", " ", "\t", "\r", "\n  ", " \r\n\t"])

# ways a document's array may miss the (rows, d1 d2, 2) form
ARRAY_FAULTS = [
    "number after a pair",  # [[[1,]2,[3,4]]]: the brackets and commas are in place
    "number before a pair",  # [[5[1,2],[3,4]]]
    "2 deep",
    "4 deep",
    "ragged",
    "3-entry pair",
    "row count",
    "not a number",
]


def _nested(depth: int) -> str:
    return "[" * depth + '"x"' + "]" * depth


@st.composite
def document_texts(draw) -> bytes:
    """The bytes of a subspace document file, valid or near it."""
    d1, d2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    key = draw(st.sampled_from(["basis", "projector"]))
    m = draw(st.integers(1, 3)) if key == "basis" else d1 * d2
    comma = draw(st.sampled_from([", ", ",\n  ", ",\r\n", ",\r"]))
    shape = draw(st.sampled_from([None] * 7 + ARRAY_FAULTS))
    m += draw(st.sampled_from([-1, 1])) if shape == "row count" else 0

    def listed(items) -> str:
        inside = comma.join(items)
        return f"{draw(SPACES)}[{draw(SPACES)}{inside}{draw(SPACES)}]{draw(SPACES)}"

    cells = [[[draw(NUMBER_TOKENS), draw(NUMBER_TOKENS)] for _ in range(d1 * d2)] for _ in range(m)]
    if m and draw(st.booleans()):
        cells[0][0] = draw(st.permutations(["-0", "-0.0"]))
    if shape == "3-entry pair":
        cells[-1][-1].append(draw(NUMBER_TOKENS))
    elif shape == "ragged":
        del cells[-1][-1]
    elif shape == "not a number" and m:
        cells[-1][-1][0] = draw(st.sampled_from(["true", "false", "null", "{}", "[]", '"0.5"']))
    pairs = [[listed(pair) for pair in row] for row in cells]
    if shape == "number after a pair":
        pairs[0][0] = f"[{cells[0][0][0]},]{cells[0][0][1]}"
    elif shape == "number before a pair":
        pairs[0][0] = draw(NUMBER_TOKENS) + pairs[0][0]
    elif shape == "4 deep":
        pairs = [[listed([pair]) for pair in row] for row in pairs]
    rows = sum(pairs, []) if shape == "2 deep" else [listed(row) for row in pairs]
    array = listed(rows)
    items = [f'"d1": {d1}', f'"d2": {d2}', f'"{key}": {array}']
    label = draw(
        st.none()
        | STRING_TOKENS
        | st.sampled_from([7, 8, 9, 64, 1000]).map(_nested)
    )
    if label is not None:
        items.insert(draw(st.integers(0, len(items))), f'"label": {label}')
    if draw(st.booleans()):  # a duplicate key: json keeps the last
        items.append(draw(st.sampled_from([f'"d1": {d1}', '"d2": 1', '"label": "twice"'])))
    twice = draw(st.sampled_from([None] * 4 + [key, "basis", "projector"]))
    if twice:  # an array key given twice, or both keys given
        value = draw(st.sampled_from([array, "[]", "[[[1, 0]]]"]))
        items.insert(draw(st.integers(0, len(items))), f'"{twice}": {value}')
    text = ("{" + comma.join(items) + "}").encode("utf-8", "surrogatepass")
    fault = draw(st.sampled_from([None] * 6 + ["bom", "not utf-8", "trailing"]))
    if fault == "bom":
        text = b"\xef\xbb\xbf" + text
    elif fault == "not utf-8":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([b"\xff", b"\xed\xa0\x80", b"\xc3"])) + text[at:]
    elif fault == "trailing":
        text += draw(st.sampled_from([b" x", b"{}", b"\n]", b"\x00"]))
    return text


def _loaded(load, path):
    """What `load` makes of `path`: the error text, or the factorization,
    label and matrix bits of the document."""
    try:
        doc = load(path)
    except InputError as exc:
        return str(exc)
    matrix = doc.basis if doc.projector is None else doc.projector
    key = "basis" if doc.projector is None else "projector"
    return doc.factorization, doc.label, key, matrix.shape, matrix.tobytes()


class TestLoadMatchesReference:
    """`load_subspace_document` accepts what ``json.load`` then
    `parse_subspace_document` accepts, with the same matrix bits, and refuses
    the rest with the same text."""

    @settings(
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=document_texts())
    def test_matches_reference(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_bytes(text)
        expected = _loaded(load_subspace_document_reference, path)
        assert _loaded(load_subspace_document, path) == expected

    @pytest.mark.parametrize(
        "text",
        [
            # orjson reads integers past 64 bits as floats
            '{"d1": 18446744073709551616, "d2": 1, "basis": [[[1, 0]]]}',
            '{"d1": 1, "d2": 1, "label": 18446744073709551616, "basis": [[[1, 0]]]}',
            '{"d1": 1, "d2": 1, "basis": [[[18446744073709551616, "x"]]]}',
            '{"d1": 1, "d2": 1, "basis": [[[1e400, 0]]]}',
            '{"d1": 1, "d2": 1, "basis": [[[NaN, 0]]]}',
            '{"d1": 1, "d2": 1, "basis": [[[1, 0]]]}\r\n,',
        ],
    )
    def test_refusals_are_the_references(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        expected = _loaded(load_subspace_document_reference, path)
        assert isinstance(expected, str)
        assert _loaded(load_subspace_document, path) == expected

    def test_64_bit_integer_entries_are_the_references(self, tmp_path):
        # both decoders round an integer literal to the nearest float
        path = tmp_path / "doc.json"
        path.write_text(
            '{"d1": 1, "d2": 2, "basis": '
            "[[[18446744073709551617, -9223372036854775809], [9007199254740993, 0]]]}"
        )
        got = load_subspace_document(path).basis
        assert got.tobytes() == load_subspace_document_reference(path).basis.tobytes()
        assert got[0, 0] == complex(2**64, -(2**63))


class TestOrjsonSeesFlatText:
    """orjson reads a flat list of numbers or nothing: no input to it holds
    a ``[`` after its first."""

    @staticmethod
    def _orjson_inputs(monkeypatch, path) -> list[bytes]:
        seen, loads = [], io_module.orjson.loads

        def spy(text):
            seen.append(bytes(text))
            return loads(text)

        with monkeypatch.context() as patched:
            patched.setattr(io_module.orjson, "loads", spy)
            try:
                load_subspace_document(path)
            except InputError:
                pass
        assert all(text.count(b"[") == 1 for text in seen), seen
        return seen

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=document_texts())
    def test_differential_corpus(self, tmp_path, monkeypatch, text):
        path = tmp_path / "doc.json"
        path.write_bytes(text)
        self._orjson_inputs(monkeypatch, path)

    @pytest.mark.parametrize("depth", [1, 7, 8, 9, 64, 1000])
    @pytest.mark.parametrize("key", ["label", "d1"])
    def test_nested_values(self, tmp_path, monkeypatch, depth, key):
        path = tmp_path / "doc.json"
        doc = {"label": "x", "d1": 1, "d2": 1, "basis": [[[1, 0]]]}
        text = json.dumps({**doc, key: "nested"}).replace('"nested"', _nested(depth))
        path.write_text(text)
        assert self._orjson_inputs(monkeypatch, path) == []

    @pytest.mark.parametrize("label", ["[[[", "]]", '\\"[', "\\\\"])
    def test_labels_hold_brackets(self, tmp_path, monkeypatch, label):
        # the array alone, as one list, whatever the label holds
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({**SINGLET_DOC, "label": label}, indent=2))
        (text,) = self._orjson_inputs(monkeypatch, path)
        assert json.loads(text) == sum(sum(SINGLET_DOC["basis"], []), [])


class TestCollectorState:
    """The cyclic collector is paused while a document decodes and left as
    the caller had it."""

    TEXTS = {
        "valid": json.dumps(SINGLET_DOC),
        "not json": "{not json",
        "refused": '{"d1": 1, "d2": 1, "basis": [[[true, 0]]]}',
        "deep": _nested(1000),
    }

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("text", TEXTS.values(), ids=TEXTS.keys())
    def test_state_kept(self, tmp_path, monkeypatch, enabled, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        during = []

        def spy(loads):
            def wrapped(raw):
                during.append(gc.isenabled())
                return loads(raw)

            return wrapped

        monkeypatch.setattr(io_module.orjson, "loads", spy(io_module.orjson.loads))
        monkeypatch.setattr(io_module.json, "loads", spy(io_module.json.loads))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                load_subspace_document(path)
            except InputError:
                pass
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert during and not any(during)


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


class TestHydrogenDocument:
    def test_strings_of_several_lengths(self):
        # a hand-built level whose l = 0 string has its pipeline length 1 (its
        # factorization is 1 x 2), beside length-4 strings, and S_0
        built = hydrogen_level(3)
        v = built.entries[0]
        entries = (HydrogenEntry(v.label, v.l, v.branch, SchmidtString.from_probs([1.0])),)
        level = HydrogenLevel(n=3, entries=entries + built.entries[1:])
        s0 = limiting_string()
        chain = sort_chain([(e.label, e.string) for e in level.entries] + [("S_0", s0)])
        doc = hydrogen_document(level, s0, chain)
        records = doc["entries"] + [doc["limiting"]]
        strings = [e.string for e in level.entries] + [s0]
        assert [len(r["schmidt_string"]) for r in records] == [1, 4, 4, 4, 4, 4]
        for record, s in zip(records, strings):
            assert record["schmidt_string"] == s.probs.tolist()
            assert record["k"] == s.k
            m = measures(s)
            assert record["measures"] == {"e_d": m.e_d, "e_i": m.e_i, "e_t": m.e_t}
        assert json.loads(dumps_json(doc))["entries"][0]["schmidt_string"] == [1]


class TestDumpsJson:
    def test_scalars(self):
        assert dumps_json(None) == "null\n"
        assert dumps_json(True) == "true\n"
        assert dumps_json(3) == "3\n"
        assert dumps_json("hi") == '"hi"\n'

    def test_float_precision(self):
        text = dumps_json(1.0 / 3.0)
        assert float(text) == 1.0 / 3.0

    def test_empty_containers(self):
        assert dumps_json({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}\n'

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

    @pytest.mark.parametrize(
        "label",
        [
            "",
            "plain",
            "Vt_3/2",
            "ψ ⊗ φ, café",
            "emoji \U0001f600 outside the BMP",
            'say "hi"',
            "back\\slash \\n \\u0041",
            "tab\tnew\nline\rcr\x00nul\x1f\x7f del",
            "   separators, \ud800 lone surrogate",
        ],
    )
    def test_strings_quote_as_json_dumps(self, label):
        # labels reach the output as keys and as values
        assert dumps_json(label) == json.dumps(label) + "\n"
        assert dumps_json({label: label}) == (
            "{\n  " + json.dumps(label) + ": " + json.dumps(label) + "\n}\n"
        )


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
    # the edges of the exact lane, E in [-6, 16], and of %g's notations
    1e-06,  # E = -7
    1.0000000000000002e-06,
    9.999999999999999e-06,
    1e-05,
    9.999999999999999e-05,  # e-05
    0.0001,
    0.09999999999999999,  # x * 10**17 rounds onto 10**16
    9.999999999999998e16,
    1e17,
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


def _written(values) -> list[str]:
    """Each of `values` as `dumps_json` writes it in a float64 array."""
    x = np.array(list(values) + [1.0] * 3, dtype=np.float64)  # never inline
    return dumps_json(x)[4:-3].split(",\n  ")[:-3]


def _g17(x: float) -> str:
    return "0" if x == 0 else format(x, ".17g")


def _neighbours(x: float, count: int = 3) -> list[float]:
    out, below, above = [x], x, x
    for _ in range(count):
        below, above = np.nextafter(below, -math.inf), np.nextafter(above, math.inf)
        out += [float(below), float(above)]
    return out


LANE_EDGES = [
    x
    for k in range(-8, 19)
    for x in _neighbours(float(f"1e{k}"))
] + [
    2.0**53, 2.0**53 + 2, 1e16, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 1e-7, 1.5e-6, 1.5e-5, 1.5e-4, 1.5e16, 1.5e17,
    0.5, 12.5, 1234567890123456.8, 12345678901234567.0,
]


# any 64 bits, and bits with the exponents of the lane: |x| from 2**-20 to 2**57
RAW_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.tuples(st.integers(0, 1), st.integers(1003, 1080), st.integers(0, 2**52 - 1)).map(
        lambda t: t[0] << 63 | t[1] << 52 | t[2]
    ),
)


class TestFloatKernel:
    """Each float of an array is written as ``format(x, ".17g")``, with
    ``0`` for either zero, and no warning escapes for any finite input."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(RAW_BITS, min_size=1, max_size=40))
    def test_raw_bit_patterns(self, bits):
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        x = x[np.isfinite(x)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _written(x) == [_g17(v) for v in x.tolist()]
            assert _written(-x) == [_g17(v) for v in (-x).tolist()]

    def test_lane_edges(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for xs in (LANE_EDGES, [-x for x in LANE_EDGES]):
                assert _written(xs) == list(map(_g17, xs))

    @pytest.mark.parametrize("zeros", [[], [0.0], [0.0, -0.0], [-0.0, 0.0] * 25])
    def test_zeros_among_the_floats(self, zeros):
        # zeros are written as 0 where they are few, and where they are most
        # of a chunk, when the other floats are written on their own
        xs = [y for x in LANE_EDGES for y in [x, *zeros]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _written(xs) == list(map(_g17, xs))
            for a in (np.zeros((2, 3)), -np.zeros(7)):
                assert dumps_json(a) == dumps_json(a.tolist())

    def test_ties_round_half_even(self):
        # m / 2**17 for odd m has an 18th significant digit of exactly 5 in
        # [1, 10): C rounds each to the even 17th digit
        x = np.arange(2**17 + 1, 10 * 2**17, 2) / 2.0**17
        assert _written(x) == [format(v, ".17g") for v in x.tolist()]

    @pytest.mark.parametrize("power", range(-5, 18))
    def test_no_double_rounds_up_to_a_power_of_ten(self, power):
        # the largest double below 10**power, which bounds the lane from
        # above for E = power - 1, is more than half a unit of the 17th
        # digit below it, so no significand ever rounds up to 10**17
        top = Fraction(10) ** power
        below = float(top)
        if Fraction(below) >= top:
            below = float(np.nextafter(below, 0.0))
        assert top - Fraction(below) > top / 10**17 / 2

    def test_projector_document_peak(self):
        # the floats are written in chunks and the text is joined once, so
        # the peak is its pieces and the joined text: 2.0 bytes per byte
        # measured (3.0 when each level copied its text, 4.2 when each row
        # filled a template)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((600, 300)) + 1j * rng.standard_normal((600, 300))
        q, _ = np.linalg.qr(a)
        p = q @ q.conj().T
        doc = {"d1": 20, "d2": 30, "projector": np.stack([p.real, p.imag], axis=-1)}
        tracemalloc.start()
        try:
            text = dumps_json(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * len(text)


class TestZeroDimArrays:
    """A 0-d array is written as its ``.tolist()``, the one scalar it holds."""

    @pytest.mark.parametrize(
        "a", [np.array(1.5), np.array(-0.0), np.array(7), np.array(3.0, np.float32)]
    )
    def test_written_as_its_scalar(self, a):
        assert dumps_json(a) == dumps_json(a.tolist())
        assert dumps_json({"x": [a, a, a]}) == dumps_json({"x": [a.tolist()] * 3})

    def test_values(self):
        assert dumps_json(np.array(1.5)) == "1.5\n"
        assert dumps_json(np.array(-2)) == "-2\n"

    def test_non_finite_refused(self):
        with pytest.raises(InputError, match="non-finite float nan"):
            dumps_json(np.array(math.nan))


class Tag(str, Enum):
    """A str subclass: equal to "a" as a key, written as "Tag.A"."""

    A = "a"


# keys with a %, a quote, non-ASCII, a NUL; the rest are not exactly str and
# are written as their str(): -0.0 == 0.0, True == 1 and Tag.A == "a" as keys
KEYS = st.one_of(
    st.sampled_from(["a", "b", "%", "%s", "%(a)d", "%%", '"q"', "ψ é", "\0", Tag.A]),
    st.text(max_size=3),
    st.sampled_from([0, 1, True, -0.0, 0.0, None]),
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
RECORD_FLOATS = st.one_of(DOCUMENT_FLOATS, NON_FINITE)
TEXTS = st.one_of(st.sampled_from(["%", "%s", '"', "ψ", "\0", "-0", "nan"]), st.text())
LEAVES = st.one_of(
    RECORD_FLOATS,
    st.integers(),
    TEXTS,
    st.booleans(),
    st.none(),
    st.builds(np.float64, DOCUMENT_FLOATS),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.float32, st.floats(width=32, allow_nan=False)),
    arrays(
        np.float64,
        st.sampled_from([(1,), (2,), (3,), (2, 2), (2, 0)]),
        elements=RECORD_FLOATS,
    ),
    arrays(np.int64, st.sampled_from([(1,), (3,)])),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=10,
)


def _refill(draw, value):
    """`value` with each exact float, int and str leaf drawn afresh: a record
    of the same shape, whose floats may be -0.0, subnormal or non-finite."""
    kind = type(value)
    if kind is dict:
        return {k: _refill(draw, v) for k, v in value.items()}
    if kind is list:
        return [_refill(draw, v) for v in value]
    fresh = {float: RECORD_FLOATS, int: st.integers(), str: TEXTS}.get(kind)
    return value if fresh is None else draw(fresh)


@st.composite
def record_lists(draw):
    """Lists of records: several of one shape, with records of other shapes
    and other values mixed in, at the top or under a key."""
    first = draw(st.dictionaries(KEYS, VALUES, max_size=5))
    same = [_refill(draw, first) for _ in range(draw(st.integers(0, 5)))]
    mixed = st.one_of(st.dictionaries(KEYS, VALUES), VALUES)
    others = draw(st.lists(mixed, max_size=3))
    records = [first, *same]
    for other in others:
        records.insert(draw(st.integers(0, len(records))), other)
    return draw(st.sampled_from([records, {"n": 1, "entries": records}]))


def _outcome(dumps, obj):
    """The text `dumps` writes for `obj`, or the text of its InputError."""
    try:
        return dumps(obj)
    except InputError as exc:
        return f"InputError: {exc}"


class TestRecordTemplates:
    """Records written from a template of their shape have the bytes and the
    errors of the record-by-record emitter in `dumps_json_reference`."""

    @settings(max_examples=400, deadline=None)
    @given(obj=record_lists())
    def test_matches_reference(self, obj):
        assert _outcome(dumps_json, obj) == _outcome(dumps_json_reference, obj)

    @pytest.mark.parametrize("n", [1, 2, 3, 25])
    def test_hydrogen_document(self, n):
        level, s0 = hydrogen_level(n), limiting_string()
        chain = sort_chain([(e.label, e.string) for e in level.entries] + [("S_0", s0)])
        doc = hydrogen_document(level, s0, chain)
        assert dumps_json(doc) == dumps_json_reference(doc)

    def test_special_records(self):
        base = {"x": 1.5, "k": 2, "s": "a", "p": [0.5, 0.25, 0.25], "m": {"e": 1.0}}
        for x in (-0.0, 5e-324, -1e308, 1e308, 3.0, 2.0**53):
            obj = [base, {**base, "x": x}, {**base, "m": {"e": x}}]
            assert dumps_json(obj) == dumps_json_reference(obj)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_after_first_record(self, bad):
        base = {"x": 1.5, "p": [0.5, 0.25, 0.25]}
        obj = [base, base, {"x": 1.5, "p": [0.5, bad, 0.25]}]
        with pytest.raises(InputError) as got:
            dumps_json(obj)
        assert str(got.value) == f"cannot serialize non-finite float {bad!r}"

    def test_keys_that_format(self):
        obj = [{"%s": 1, "%%": "%d", '"': 0.5}, {"%s": 2, "%%": "%", '"': -0.0}]
        assert dumps_json(obj) == dumps_json_reference(obj)
        assert json.loads(dumps_json(obj)) == [
            {"%s": 1, "%%": "%d", '"': 0.5},
            {"%s": 2, "%%": "%", '"': 0.0},
        ]

    def test_equal_keys_of_other_types(self):
        # -0.0 == 0.0, True == 1 and Tag.A == "a", but each is written as its str
        for first, second in ((0.0, -0.0), (1, True), ("a", Tag.A)):
            obj = [{first: 1.0}, {second: 1.0}, {first: 2.0}]
            assert dumps_json(obj) == dumps_json_reference(obj)


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
