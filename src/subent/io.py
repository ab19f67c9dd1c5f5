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
from itertools import chain, islice
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


def _document_head(data) -> tuple[Factorization, str | None, str]:
    """The factorization, label and array key of a decoded document, checked."""
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
    return f, label, "basis" if has_basis else "projector"


def parse_subspace_document(data) -> SubspaceDocument:
    """Validate a decoded JSON object into a SubspaceDocument.

    Takes what ``json.loads`` returns: the float64 arrays that
    `basis_document` and `projector_document` hold are for `dumps_json`.
    """
    f, label, key = _document_head(data)
    rows = data[key]
    listed = isinstance(rows, list)
    if key == "basis":
        if not listed or not rows:
            raise InputError("basis must be a non-empty list of vectors")
        shape, row_name = (len(rows), f.dim), "basis vector"
    else:
        if not listed or len(rows) != f.dim:
            raise InputError(f"projector must be a list of {f.dim} rows")
        shape, row_name = (f.dim, f.dim), "projector row"
    matrix = _pair_matrix(rows, shape, key, row_name)
    return SubspaceDocument(f, label, **{"basis": None, "projector": None, key: matrix})


# quotes, backslashes, the letters an escape can start with, brackets,
# commas and colons: one byte or more per value
_NOT_SYNTAX = bytes(sorted(set(range(256)) - set(b'"\\/bfnrtu[{]},:')))
# a string, unrolled so that sre keeps no backtracking frame per byte
_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"', re.S)
# an array's bytes as classes: [ ] and , kept, JSON whitespace dropped, others 0
_CLASSES, _WHITESPACE = bytes(b if b in b"[]," else 48 for b in range(256)), b" \t\n\r"
_CHUNK_BYTES = 1 << 18  # of an array, read at a time so as to stay in cache
# four keys and a label, with room for keys given again; past it the stdlib
# judges, so the spans kept stay few whatever the text
_MOST_STRINGS = 16
# Unread, a file is charged 4 bytes per byte, the least it can be; once
# read, 10 where a string may decode to 2 or 4 bytes a character, and per
# byte of syntax that opens a list, object, item, member, string or escape.
# Whole `schmidt FILE` ops on both routes trace, beyond 42 kB, 3.1 to 3.9
# per byte, 89 per `[` (900 deep), 22 to 26 per `,` and number, 66 per `{},`,
# 123 per `"key": 0,`, 49 per `"ab",`, 125 to 133 per `\` (a `_STRING`
# frame); a `dumps_json` projector document 4.7 per byte, charged 6.8
_BYTES_PER_FILE_BYTE, _BYTES_PER_WIDE_BYTE = 4, 10
_SYNTAX_RATES = {b"[": 96, b"{": 56, b",": 30, b":": 80, b'"': 14, b"\\": 144}


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


def _flat_document(raw: bytearray, syntax: bytes) -> SubspaceDocument | None:
    """The document in `raw` with its array read by orjson as one flat list
    of numbers, or None for the stdlib to judge.

    The array runs from the first ``[`` to the last ``]`` of the longest
    stretch between strings and holds every ``[`` outside strings, so the
    head, with ``[]`` in its place, is decoded and checked apart.  Its
    syntax is the skeleton of R rows of d1·d2 pairs and no number stands
    outside a pair, so with its inner brackets blanked in place (and put
    back) it lists 2·R·d1·d2 numbers, each where json reads it.
    """
    spans = [m.span() for m in islice(_STRING.finditer(raw), _MOST_STRINGS + 1)]
    cuts = [0, *chain.from_iterable(spans), len(raw)]
    a, b = max(zip(cuts[::2], cuts[1::2]), key=lambda gap: gap[1] - gap[0])
    start, end = raw.find(b"[", a, b), raw.rfind(b"]", a, b) + 1
    cuts = sorted([*cuts, start, end])  # the head's stretches between strings
    if len(spans) > _MOST_STRINGS or not 0 <= start < end or any(
        raw.find(b"[", *gap) >= 0 for gap in zip(cuts[::2], cuts[1::2])
    ):
        return None
    try:
        data = _decoded(_stdlib_loads, raw[:start] + b"[]" + raw[end:])
        f, label, key = _document_head(data)
    except (ValueError, RecursionError, InputError):
        return None
    before, after = (len(part.translate(None, _NOT_SYNTAX)) for part in (raw[:start], raw[end:]))
    skeleton = syntax[before : len(syntax) - after]
    rows, extra = divmod(skeleton.count(b"[") - 1, f.dim + 1)
    if data[key] != [] or extra or not rows or key == "projector" and rows != f.dim:
        return None
    row = b"[" + b",".join([b"[,]"] * f.dim) + b"]"
    if skeleton != b"[" + b",".join([row] * rows) + b"]":
        return None
    inner, last = [], b"["
    for at in range(start + 1, end - 1, _CHUNK_BYTES):
        piece = raw[at : min(at + _CHUNK_BYTES, end - 1)]
        k = np.frombuffer(last + piece.translate(_CLASSES, _WHITESPACE), np.uint8)
        if ((k[:-1] == 48) & (k[1:] == 91) | (k[:-1] == 93) & (k[1:] == 48)).any():
            return None  # a number before an inner [ or after an inner ]
        last, codes = k[-1:].tobytes(), np.frombuffer(piece, np.uint8)
        inner.append(np.flatnonzero((codes == 91) | (codes == 93)) + at)
    text, inner = np.frombuffer(raw, np.uint8), np.concatenate(inner)
    brackets, text[inner] = text[inner], 32
    try:
        pairs = np.array(_decoded(orjson.loads, memoryview(raw)[start:end]), np.float64)
    except orjson.JSONDecodeError:
        return None
    finally:
        text[inner] = brackets
    if len(pairs) != 2 * rows * f.dim or not np.isfinite(pairs).all():
        return None
    matrix = pairs.view(np.complex128).reshape(rows, f.dim)
    return SubspaceDocument(f, label, **{"basis": None, "projector": None, key: matrix})


def load_subspace_document(path) -> SubspaceDocument:
    """Read and parse a subspace document from a JSON file.

    `_flat_document` decodes it, with no Python list per pair, or else the
    stdlib decodes it and judges: what is accepted, and every error text,
    is what ``json.load`` gives.  The file is refused over `BYTE_BUDGET`
    before it is read, at `_BYTES_PER_FILE_BYTE`, and before it is decoded,
    from its size and its syntax.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            within_budget(f"{path}", _BYTES_PER_FILE_BYTE * size)
            raw = bytearray(size)  # blanked in place by `_flat_document`
            del raw[fh.readinto(raw) :]
            raw += fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    syntax = raw.translate(None, _NOT_SYNTAX)
    wide = not raw.isascii() or b"\\u" in syntax
    per_byte = _BYTES_PER_WIDE_BYTE if wide else _BYTES_PER_FILE_BYTE
    need = sum(rate * syntax.count(byte) for byte, rate in _SYNTAX_RATES.items())
    within_budget(f"{path}", per_byte * len(raw) + need)
    doc = _flat_document(raw, syntax)
    del syntax  # not held while the stdlib decodes
    if doc is not None:
        return doc
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


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: hi + lo == a, each of at most 26 significant bits,
    so that a product of two halves is exact."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


# 10**k is an exact double for k <= 22, so |x|·10**(16 - E) is exact as
# Dekker's pair (hi, lo) for every x whose decimal exponent E is in [-6, 16]
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI, _POW10_LO = _halves(_POW10)
_ROWS = np.arange(18, dtype=np.int8)[:, None]
_G17 = 28  # columns: sign, "0." and three zeros, 17 digits and a point, "e-0X"
_CHUNK = 1 << 16  # leaves per pass, so that temporaries stay bounded
_HALVINGS = ((10**8, np.uint32), (10**4, np.uint32), (100, np.uint8), (10, np.uint8))


def _scaled(x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x·10**(16 - e) as hi + lo, exactly (Dekker 1971)."""
    k = 16 - e
    hi = x * _POW10[k]
    xh, xl = _halves(x)
    ph, pl = _POW10_HI[k], _POW10_LO[k]
    return hi, ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl


def _write_g17(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``format(v, ".17g")`` of each finite v of `x` into the uint8
    columns `out` (28, len(x)), padded with NULs.

    For E in [-6, 16], D = hi + rint(lo) is the correctly rounded 17-digit
    significand, with C's round-half-even, since hi >= 2**53 is an even
    integer.  Zero is written as ``0``, and every other v goes through
    `_format_float`.
    """
    nonzero = np.flatnonzero(x)
    if len(nonzero) * 2 < len(x):  # mostly zeros: the rest on their own
        out[:] = 0
        out[6] = 48
        if len(nonzero):
            columns = np.empty((_G17, len(nonzero)), np.uint8)
            _write_g17(x[nonzero], columns)
            out[:, nonzero] = columns
        return
    ax = np.abs(x)
    with np.errstate(divide="ignore"):  # log10(0) is -inf
        e = np.floor(np.log10(ax))
    lane = (e >= -6) & (e <= 16)
    e = np.where(lane, e, 16).astype(np.int64)
    ax = np.where(lane, ax, 1e16)  # the rest stay clear of overflow
    hi, lo = _scaled(ax, e)
    # log10 may be one off near a power of ten.  The range test is on the
    # exact pair, as hi alone can round onto 10**16 or 10**17: |lo| is less
    # than hi's distance from either unless hi is on it, so each sum has the
    # sign of the exact difference
    step = (hi - 1e17 + lo >= 0).view(np.int8) - (hi - 1e16 + lo < 0).view(np.int8)
    if step.any():
        e += step
        lane &= (e >= -6) & (e <= 16)
        e[~lane], ax[~lane] = 16, 1e16
        hi, lo = _scaled(ax, e)
    # no double below 10**-5 .. 10**17 is within half a unit of the 17th
    # digit of it, so D never rounds up to 10**17
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    e = e.astype(np.int8)
    zero = x == 0
    d[zero], e[zero] = 0, 0  # written as 0

    # the 17 digits into rows 1..17: the last 16 split in halves, then
    # halves of halves, each in the narrowest integers that hold them
    digits = np.zeros((19, len(x)), np.uint8)
    digits[1] = first = d // 10**16
    part = (d - first * 10**16)[None]
    for unit, kind in _HALVINGS:
        top = part // unit
        part = np.stack([top, part - top * unit], 1).reshape(-1, len(x)).astype(kind)
    digits[2:18] = part
    digits += 48
    kept = ((digits[1:18] != 48) * _ROWS[1:].view(np.uint8)).max(axis=0)

    # fixed notation for E >= -4, with the point after digit E; E of -5
    # and -6 as d.ddde-0X; the fraction's trailing zeros dropped
    point = np.where(e >= 0, e + 1, np.where(e <= -5, 1, 99)).astype(np.int8)
    length = np.where(e < 0, kept, np.maximum(kept, point)) + (kept > point)
    body = out[6:24]  # digit j before the point, digit j - 1 after it
    np.subtract(digits[1:19], digits[:18], out=body)
    body *= (_ROWS < point).view(np.uint8)
    body += digits[:18]
    body += (46 - body) * (_ROWS == point).view(np.uint8)
    body *= (_ROWS < length).view(np.uint8)
    lead = np.where((e < 0) & (e >= -4), 1 - e, 0).astype(np.int8)
    np.multiply(np.frombuffer(b"0.000", np.uint8)[:, None],
                (_ROWS[:5] < lead).view(np.uint8), out=out[1:6])
    tiny = (e <= -5).view(np.uint8)
    np.multiply(np.frombuffer(b"e-0", np.uint8)[:, None], tiny, out=out[24:27])
    out[27] = (48 - e) * tiny
    out[0] = 45 * (x < 0).view(np.uint8)
    other = np.flatnonzero(~(lane | zero))
    texts = [_format_float(v, JSON_DIGITS) for v in x[other].tolist()]
    out[:, other] = np.array(texts, f"S{_G17}").view(np.uint8).reshape(-1, _G17).T


def _closings(shape) -> np.ndarray:
    """How many axes of an array of `shape` end after each leaf, in C order."""
    count = np.zeros(shape, np.uint8)
    for k in range(1, len(shape) + 1):
        count[(...,) + (-1,) * k] += 1
    return count.reshape(-1)


def _float_leaves(a: np.ndarray, after: dict[int, str]):
    """Yield the floats of `a` in C order, each as `_write_g17` writes it
    and followed by ``after[c]``, c being how many axes end after it.

    A chunk of leaves is laid out as columns, transposed to one row of bytes
    per leaf, and its NUL padding dropped by one ``bytes.translate``.
    Chunks hold whole items of the first axis where they fit, so that the
    separator rows are filled again only when a chunk's closings change.
    """
    table = np.array([after.get(c, "").encode() for c in range(a.ndim + 1)])
    table = table.view(np.uint8).reshape(a.ndim + 1, -1).T
    closings, x = _closings(a.shape), a.reshape(-1)
    step = _CHUNK // math.prod(a.shape[1:]) * math.prod(a.shape[1:]) or _CHUNK
    filled = None
    for start in range(0, len(x), step):
        codes = closings[start : start + step]
        if filled is None or not np.array_equal(codes, filled):
            out = np.empty((_G17 + len(table), len(codes)), np.uint8)
            np.take(table, codes, axis=1, out=out[_G17:])
            filled = codes
        _write_g17(x[start : start + step], out[:_G17])
        yield out.T.tobytes().translate(None, b"\0").decode("ascii")


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
    a 0-d array as its one element.  An array's floats are written in chunks
    by `_float_leaves`, between the separators that `emit` lays out for a
    skeleton of the array's shape.  Strings are quoted as ``json.dumps``
    quotes them.  A dict in a list is a record; records of one shape are
    written by filling one template, which `emit` lays out from a skeleton
    with a slot per leaf.  A record that `_leaves` refuses is written by
    `emit` alone, with the same bytes.  `emit` yields the text in pieces,
    which are joined once.
    """
    templates: dict[tuple, str] = {}

    def record(value: dict, depth: int):
        shape, leaves = [depth], []
        if not _leaves(value, shape, leaves):
            yield from emit(value, depth)
            return
        shape = tuple(shape)
        if shape not in templates:
            text = "".join(emit(_skeleton(value), depth))
            templates[shape] = text.replace("%", "%%").replace("\0", "%")
        yield templates[shape] % tuple(leaves)

    def emit(value, depth: int):
        kind = type(value)  # float, str and int first: nearly every value is one
        if kind is float:
            yield _format_float(value, JSON_DIGITS)
        elif isinstance(value, str):
            yield encode_basestring_ascii(value)
        elif kind is int:
            yield str(value)
        elif kind is _Slot:  # a template's hole: no written text holds a NUL
            yield "\0" + value.spec
        elif value is None:
            yield "null"
        elif isinstance(value, bool):
            yield "true" if value else "false"
        elif isinstance(value, (int, np.integer)):
            yield str(int(value))
        elif isinstance(value, (float, np.floating)):
            yield _format_float(float(value), JSON_DIGITS)
        elif isinstance(value, dict):
            pad, sep = "  " * depth, "{\n"
            for k, v in value.items():
                yield f"{sep}{pad}  {encode_basestring_ascii(str(k))}: "
                yield from emit(v, depth + 1)
                sep = ",\n"
            yield "\n" + pad + "}" if value else "{}"
        elif isinstance(value, np.ndarray) and not value.ndim:
            yield from emit(value[()], depth)
        elif isinstance(value, np.ndarray) and value.dtype == np.float64 and value.size:
            bad = ~np.isfinite(value)
            if bad.any():
                raise InputError(
                    f"cannot serialize non-finite float {value[bad][0].item()!r}"
                )
            # the text between leaves, read off the layout of a skeleton no
            # larger than `value` whose leaves close the same axes
            shape = [min(n, 2) for n in value.shape[:-1]] + [min(value.shape[-1], 3)]
            skeleton = np.full(shape, _Slot(""), dtype=object).tolist()
            head, *pieces = "".join(emit(skeleton, depth)).split("\0")
            yield head
            yield from _float_leaves(value, dict(zip(_closings(shape).tolist(), pieces)))
        elif isinstance(value, (list, tuple, np.ndarray)):
            seq, inner = list(value), "\n" + "  " * (depth + 1)
            sep, comma, close = "[" + inner, "," + inner, inner[:-2] + "]"
            if len(seq) <= 2 and all(  # one or two scalars stay on one line
                not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq
            ):
                sep, comma, close = "[", ", ", "]"
            for v in seq:
                yield sep
                yield from (record if type(v) is dict else emit)(v, depth + 1)
                sep = comma
            yield close if seq else "[]"
        else:
            raise InputError(f"cannot serialize {type(value).__name__}")

    return "".join(chain(emit(obj, 0), "\n"))


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
