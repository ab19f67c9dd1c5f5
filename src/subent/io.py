"""Document formats used by the command line interface.

Subspace documents are JSON objects with integer factors `d1`, `d2`, an
optional string `label`, and exactly one of:

* `basis`: a non-empty list of vectors of length d1*d2, or
* `projector`: a square matrix of side d1*d2,

where every complex number is a two-element array [re, im].  Result
documents are emitted with floats at 17 significant digits so that emitting,
parsing and emitting again is byte-identical.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np
import orjson

from .catalog import HydrogenLevel
from .errors import InputError
from .majorization import ChainResult, Verdict
from .schmidt import SchmidtString, _measures_of
from .spaces import Factorization, Projector, SubspaceBasis
from .tolerances import within_budget

JSON_DIGITS = ".17g"
TABLE_DIGITS = ".12g"


@dataclass(frozen=True, eq=False)
class SubspaceDocument:
    """Parsed subspace input: a factorization plus a basis or a projector."""

    factorization: Factorization
    label: str | None
    basis: np.ndarray | None
    projector: np.ndarray | None


def _raise_first_bad_entry(rows: list, dim: int, key: str, row_name: str) -> None:
    """Raise the InputError naming the first malformed row or entry, in
    document order; return when every row holds `dim` finite pairs."""
    for a, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise InputError(f"{row_name} {a} must be a list of {dim} [re, im] pairs")
        for b, pair in enumerate(row):
            where = f"{key}[{a}][{b}]"
            if not isinstance(pair, (list, tuple)) or len(pair) != 2 or any(
                isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair
            ):
                raise InputError(f"{where}: expected a [re, im] pair, got {pair!r}")
            try:
                finite = all(math.isfinite(x) for x in pair)
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not finite:
                raise InputError(f"{where}: non-finite entry {pair!r}")


def _pair_matrix(rows, shape: tuple[int, int], key: str, row_name: str) -> np.ndarray:
    """The complex matrix of a list of rows of [re, im] pairs.

    The leaves go through ``np.array`` as one flat list when the rows are
    lists of ``shape[1]`` pairs, the pairs lists or tuples of two and the
    leaves exactly float or int: ``np.array`` alone would also take
    ``true``, ``"1.5"`` and ``null``.  Anything else, and any non-finite
    value, goes to the per-entry walk, which names the first bad entry.
    """
    a = None
    if all(isinstance(row, list) and len(row) == shape[1] for row in rows):
        pairs = list(chain.from_iterable(rows))
        if set(map(type, pairs)) <= {list, tuple} and set(map(len, pairs)) == {2}:
            leaves = list(chain.from_iterable(pairs))
            if set(map(type, leaves)) <= {float, int}:
                try:
                    a = np.array(leaves, dtype=np.float64)
                except OverflowError:  # an integer beyond the float range
                    pass
    if a is None or not np.isfinite(a).all():
        _raise_first_bad_entry(rows, shape[1], key, row_name)
        # valid, with leaves of other int or float types (numpy scalars)
        a = np.array(rows, dtype=np.float64)
    return a.view(np.complex128).reshape(shape)


def parse_subspace_document(data) -> SubspaceDocument:
    """Validate a decoded JSON object into a SubspaceDocument.

    Takes what ``json.loads`` returns: the float64 arrays that
    `basis_document` and `projector_document` hold are for `dumps_json`.
    """
    if not isinstance(data, dict):
        raise InputError(f"document must be a JSON object, got {type(data).__name__}")
    allowed = {"label", "d1", "d2", "basis", "projector"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise InputError(f"unknown document keys: {', '.join(unknown)}")
    for key in ("d1", "d2"):
        if key not in data:
            raise InputError(f"missing required key {key!r}")
    f = Factorization(data["d1"], data["d2"])
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError(f"label must be a string, got {label!r}")
    has_basis = "basis" in data
    if has_basis == ("projector" in data):
        raise InputError("document must contain exactly one of 'basis' or 'projector'")

    key = "basis" if has_basis else "projector"
    rows = data[key]
    listed = isinstance(rows, list)
    if has_basis:
        if not listed or not rows:
            raise InputError("basis must be a non-empty list of vectors")
        shape, row_name = (len(rows), f.dim), "basis vector"
    else:
        if not listed or len(rows) != f.dim:
            raise InputError(f"projector must be a list of {f.dim} rows")
        shape, row_name = (f.dim, f.dim), "projector row"
    matrix = _pair_matrix(rows, shape, key, row_name)
    return SubspaceDocument(
        factorization=f,
        label=label,
        basis=matrix if has_basis else None,
        projector=None if has_basis else matrix,
    )


# A subspace document nests 4 deep; orjson 3.8 crashes the interpreter on
# text nested about 10^5 deep, so deeper text goes to the stdlib, which
# raises RecursionError past about 1,000
_ORJSON_DEPTH = 8
# quotes, backslashes, the letters an escape can start with, and brackets
_NOT_SYNTAX = bytes(sorted(set(range(256)) - set(b'"\\/bfnrtu[{]}')))
_STRING = re.compile(rb'"(?:[^"\\]|\\.)*"', re.S)
# [ and { step the depth up by 1, ] and } down (int8 -1), any other byte by 0
_STEPS = bytes(1 if b in b"[{" else 255 if b in b"]}" else 0 for b in range(256))
# whole `schmidt FILE` ops peak at 5.7-6.6 bytes of RSS per byte of file on
# documents of 17-digit floats, as `dumps_json` and `json.dump` write them,
# and at 26.1 on compact ones of [0,0] pairs, the most of any form measured
_BYTES_PER_FILE_BYTE = 26


def _depth(raw: bytes) -> int:
    """The deepest bracket nesting of `raw` outside its strings.

    Only quotes, backslashes, the letters an escape can start with and
    brackets are kept, so each string still ends where it ends and is dropped
    whole, with any bracket in it; then the brackets left are counted.
    """
    syntax = _STRING.sub(b"", raw.translate(None, _NOT_SYNTAX))
    steps = syntax.translate(_STEPS)
    return int(np.frombuffer(steps, np.int8).cumsum().max(initial=0))


def _stdlib_loads(raw: bytes):
    """``json.load`` of `raw` as a file opened with ``encoding="utf-8"``
    reads it: strict UTF-8, a BOM kept, newlines translated."""
    text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return json.loads(text)


def _decoded(loads, raw: bytes):
    """`loads(raw)` with the cyclic collector paused: the decoded lists
    hold no cycles, so the collections their allocation would set off find
    nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return loads(raw)
    finally:
        if enabled:
            gc.enable()


def load_subspace_document(path) -> SubspaceDocument:
    """Read and parse a subspace document from a JSON file.

    orjson decodes the file when it nests at most `_ORJSON_DEPTH` deep.
    Where orjson refuses the text, or `parse_subspace_document` refuses
    what orjson made of it, the stdlib decodes it again and judges: what is
    accepted, and every error text, is what ``json.load`` gives.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            within_budget(f"{path}", _BYTES_PER_FILE_BYTE * size)
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if _depth(raw) <= _ORJSON_DEPTH:
        try:
            return parse_subspace_document(_decoded(orjson.loads, raw))
        except (orjson.JSONDecodeError, InputError):
            pass  # the stdlib judges
    try:
        data = _decoded(_stdlib_loads, raw)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, a file that is not UTF-8, an integer literal past
        # the interpreter's digit limit, or text nested too deep
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    return parse_subspace_document(data)


def _subspace_document(
    f: Factorization, label: str | None, key: str, matrix: np.ndarray
) -> dict:
    head = {} if label is None else {"label": label}
    pairs = np.stack([matrix.real, matrix.imag], axis=-1)
    return {**head, "d1": f.d1, "d2": f.d2, key: pairs}


def basis_document(basis: SubspaceBasis, label: str | None = None) -> dict:
    """Subspace document dict for an orthonormal basis.

    The vectors are held as one float64 (m, D, 2) array of [re, im] pairs,
    which `dumps_json` writes as its ``.tolist()``.
    """
    return _subspace_document(basis.factorization, label, "basis", basis.vectors)


def projector_document(p: Projector, label: str | None = None) -> dict:
    """Subspace document dict for a validated projector, held as
    `basis_document` holds its vectors."""
    return _subspace_document(p.factorization, label, "projector", p.matrix)


# --- serialization ----------------------------------------------------------


def _format_float(x: float, spec: str) -> str:
    if not math.isfinite(x):
        raise InputError(f"cannot serialize non-finite float {x!r}")
    out = format(float(x), spec)
    # normalize negative zero for stable round trips
    return "0" if out in ("-0", "0") else out


@dataclass(frozen=True)
class _Slot:
    """A template's hole for one leaf: `emit` writes it as the %-conversion
    of `spec`."""

    spec: str


_SLOTS = {float: _Slot(JSON_DIGITS), int: _Slot("d"), str: _Slot("s")}


def _leaves(value, shape: list, leaves: list) -> bool:
    """Append the scalar leaves of a dict or list to `leaves` in document
    order, as its template's slots take them, and its shape to `shape`: its
    lengths, its keys and the types of its values.

    False when it holds what no slot takes: a non-finite float, a bool,
    None, a numpy value or array, a tuple, a str subclass, or a key that is
    not exactly a str.
    """
    shape.append(len(value))
    if type(value) is dict:
        if not set(map(type, value)) <= {str}:
            return False
        shape.extend(value)
        value = value.values()
    for v in value:
        kind = type(v)
        shape.append(kind)
        if kind is float:
            if v - v:  # nan or inf
                return False
            leaves.append(v + 0.0)  # -0.0 is written as 0
        elif kind is str:
            leaves.append(encode_basestring_ascii(v))
        elif kind is int:
            leaves.append(v)
        elif (kind is not dict and kind is not list) or not _leaves(v, shape, leaves):
            return False
    return True


def _skeleton(value):
    """`value`, which `_leaves` took, with each scalar leaf replaced by its slot."""
    if type(value) is dict:
        return {k: _skeleton(v) for k, v in value.items()}
    if type(value) is list:
        return list(map(_skeleton, value))
    return _SLOTS[type(value)]


def dumps_json(obj) -> str:
    """Serialize nested dicts/lists, two spaces per level, 17-digit floats.

    A float64 ndarray is written exactly as its ``.tolist()`` would be, and
    a 0-d array as its one element.  Strings are quoted as ``json.dumps``
    quotes them.  A dict in a list is a record; records of one shape, and
    the rows of a float64 array, are written by filling one template, which
    `emit` lays out from a skeleton with a slot per leaf.  A record that
    `_leaves` refuses is written by `emit` alone, with the same bytes.
    """
    templates: dict[tuple, str] = {}

    def template(skeleton, depth: int) -> str:
        """`skeleton` as `emit` writes it, with a %-conversion per slot."""
        return emit(skeleton, depth).replace("%", "%%").replace("\0", "%")

    def record(value: dict, depth: int) -> str:
        shape, leaves = [depth], []
        if not _leaves(value, shape, leaves):
            return emit(value, depth)
        shape = tuple(shape)
        if shape not in templates:
            templates[shape] = template(_skeleton(value), depth)
        return templates[shape] % tuple(leaves)

    def emit(value, depth: int) -> str:
        kind = type(value)  # float, str and int first: nearly every value is one
        if kind is float:
            return _format_float(value, JSON_DIGITS)
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if kind is int:
            return str(value)
        if kind is _Slot:  # a template's hole: no written text holds a NUL
            return "\0" + value.spec
        if value is None:
            return "null"
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return _format_float(float(value), JSON_DIGITS)
        pad = "  " * depth
        inner = pad + "  "
        if isinstance(value, dict):
            if not value:
                return "{}"
            rows = [
                f"{inner}{encode_basestring_ascii(str(k))}: {emit(v, depth + 1)}"
                for k, v in value.items()
            ]
            return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
        if isinstance(value, np.ndarray) and not value.ndim:
            return emit(value[()], depth)
        if isinstance(value, np.ndarray) and value.dtype == np.float64 and value.size:
            bad = ~np.isfinite(value)
            if bad.any():
                raise InputError(
                    f"cannot serialize non-finite float {value[bad][0].item()!r}"
                )
            # + 0.0 turns -0.0 into 0.0; each row fills one template
            rows = (value + 0.0).reshape(len(value), -1).tolist()
            slots = _skeleton(value[0].tolist())
            items = list(map(template(slots, depth + 1).__mod__, map(tuple, rows)))
            flat = value.ndim == 1
        elif isinstance(value, (list, tuple, np.ndarray)):
            seq = list(value)
            if not seq:
                return "[]"
            flat = all(
                not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq
            )
            items = [(record if type(v) is dict else emit)(v, depth + 1) for v in seq]
        else:
            raise InputError(f"cannot serialize {type(value).__name__}")
        if flat and len(items) <= 2:  # one or two scalars stay on one line
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join([inner + x for x in items]) + "\n" + pad + "]"

    return emit(obj, 0) + "\n"


def _string_fields(strings: list[SchmidtString]) -> list[dict]:
    """Each record's schmidt_string, k and measures, the measures stacked."""
    return [
        {
            "schmidt_string": s.probs.tolist(),
            "k": s.k,
            "measures": {"e_d": e_d, "e_i": e_i, "e_t": e_t},
        }
        for s, (e_d, e_i, e_t) in zip(strings, _measures_of(strings))
    ]


def result_document(
    label: str | None, projector: Projector, string: SchmidtString
) -> dict:
    """Assemble the result of a Schmidt string computation as plain data."""
    f = projector.factorization
    report = projector.report()
    return {
        "label": label,
        "d1": f.d1,
        "d2": f.d2,
        "dim": projector.dim,
        **_string_fields([string])[0],
        "projector_defects": {
            "hermiticity": report.hermiticity,
            "idempotency": report.idempotency,
            "trace": report.trace,
            "passes": report.passes,
        },
    }


def _numbers(record: dict, spec: str) -> list[str]:
    """A record's string entries, then e_d, e_i, e_t, formatted with `spec`."""
    m = record["measures"]
    values = [*record["schmidt_string"], m["e_d"], m["e_i"], m["e_t"]]
    return [_format_float(x, spec) for x in values]


def _columns(records: list[dict]) -> list[str]:
    width = max(len(r["schmidt_string"]) for r in records)
    return [f"p{i + 1}" for i in range(width)] + ["e_d", "e_i", "e_t"]


def _csv(keys: list[str], records: list[dict]) -> str:
    """CSV of records: `keys` (blank when absent), p1..pK, e_d, e_i, e_t."""
    lines = [keys + _columns(records)] + [
        ["" if r.get(key) is None else str(r[key]) for key in keys]
        + _numbers(r, JSON_DIGITS)
        for r in records
    ]
    return "".join(",".join(cells) + "\n" for cells in lines)


def result_csv(doc: dict) -> str:
    """One-row CSV rendering: label,d1,d2,dim,p1..pK,e_d,e_i,e_t."""
    return _csv(["label", "d1", "d2", "dim"], [doc])


def result_table(doc: dict) -> str:
    """Human-readable rendering with 12 significant digits."""
    m = doc["measures"]
    d = doc["projector_defects"]
    lines = []
    if doc["label"]:
        lines.append(f"label           {doc['label']}")
    lines.append(f"factorization   {doc['d1']} x {doc['d2']}")
    lines.append(f"subspace dim    {doc['dim']}")
    lines.append(f"schmidt rank    {doc['k']}")
    lines.append("schmidt string")
    for i, p in enumerate(doc["schmidt_string"]):
        lines.append(f"  p{i + 1:<4d} {_format_float(p, TABLE_DIGITS)}")
    for key in ("e_d", "e_i", "e_t"):
        lines.append(f"{key:<16}{_format_float(m[key], TABLE_DIGITS)}")
    lines.append(
        "projector defects  "
        f"hermiticity {d['hermiticity']:.3e}  "
        f"idempotency {d['idempotency']:.3e}  "
        f"trace {d['trace']:.3e}"
    )
    return "\n".join(lines) + "\n"


def hydrogen_document(
    level: HydrogenLevel, limiting: SchmidtString, chain: ChainResult
) -> dict:
    """The fine structure chain of a level; `chain` ranks its labels and S_0."""
    rank = {label: i + 1 for i, label in enumerate(chain.labels)}
    *fields, s0 = _string_fields([e.string for e in level.entries] + [limiting])
    entries = [
        {
            "label": e.label,
            "rank": rank[e.label],
            "l": e.l,
            "branch": e.branch.value,
            "d1": 2 * e.l + 1,
            "d2": 2,
            "dim": e.dim,
            **f,
        }
        for e, f in zip(level.entries, fields)
    ]
    return {
        "n": level.n,
        "order": list(chain.labels),
        "strict": not chain.ties,
        "entries": entries,
        "limiting": {"label": "S_0", "rank": rank["S_0"], **s0},
    }


def _by_rank(doc: dict) -> list[dict]:
    return sorted(doc["entries"] + [doc["limiting"]], key=lambda r: r["rank"])


def hydrogen_csv(doc: dict) -> str:
    """CSV rendering of a hydrogen document, least entangled first."""
    return _csv(["rank", "label", "d1", "d2", "dim"], _by_rank(doc))


def hydrogen_table(doc: dict) -> str:
    """Table rendering of a hydrogen document with 12 significant digits."""
    records = _by_rank(doc)
    head = "".join(f"{c:<16}" for c in _columns(records))
    lines = [
        f"level n={doc['n']}: least to most entangled",
        f"{'rank':>4}  {'label':<10}{'dim':>4}  {head}",
    ]
    for r in records:
        cells = "".join(f"{x:<16}" for x in _numbers(r, TABLE_DIGITS))
        dim = r.get("dim", "")
        lines.append(f"{r['rank']:>4}  {r['label']:<10}{dim!s:>4}  {cells}".rstrip())
    return "\n".join(lines) + "\n"


def compare_document(
    labels: tuple[str, str], verdict: Verdict, tol: float, sums: np.ndarray
) -> dict:
    """The `compare` record of A and B from their (2, L) padded partial sums.

    `a_exceeds_at` lists the 1-based k where A's k-th partial sum exceeds
    B's by more than tol; `b_exceeds_at` the reverse.
    """
    ca, cb = sums
    return {
        "a": labels[0],
        "b": labels[1],
        "verdict": verdict.value,
        "tol": tol,
        "partial_sums_a": [float(x) for x in ca],
        "partial_sums_b": [float(x) for x in cb],
        "a_exceeds_at": (np.flatnonzero(ca > cb + tol) + 1).tolist(),
        "b_exceeds_at": (np.flatnonzero(cb > ca + tol) + 1).tolist(),
    }


def compare_table(record: dict) -> str:
    """Verdict line and partial sum table of a compare record, 12 digits."""
    a_exceeds, b_exceeds = record["a_exceeds_at"], record["b_exceeds_at"]
    # rows witnessing incomparability get a mark; one-sided excesses are
    # just what a comparable verdict looks like
    marked = set(a_exceeds) | set(b_exceeds) if a_exceeds and b_exceeds else set()
    lines = [record["verdict"], f"{'k':>4}  {'sum A':<22}{'sum B':<22}A-B"]
    sums = zip(record["partial_sums_a"], record["partial_sums_b"])
    for k, (a, b) in enumerate(sums, start=1):
        cells = "".join(f"{_format_float(x, TABLE_DIGITS):<22}" for x in (a, b, a - b))
        lines.append(f"{k:>4}  {cells}".rstrip() + (" *" if k in marked else ""))
    return "\n".join(lines) + "\n"
