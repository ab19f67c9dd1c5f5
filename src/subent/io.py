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

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .catalog import HydrogenLevel
from .errors import InputError
from .majorization import ChainResult, Verdict
from .schmidt import SchmidtString, measures
from .spaces import Factorization, Projector, SubspaceBasis

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

    The list goes through ``np.array`` in one call when its rows are lists, its
    pairs lists or tuples and its leaves exactly float or int: ``np.array``
    alone would also take ``true``, ``"1.5"`` and ``null``.  Anything else,
    and any result of the wrong shape or with a non-finite value, goes to the
    per-entry walk, which names the first bad entry.
    """
    a = None
    try:
        if (
            all(isinstance(row, list) for row in rows)
            and set(map(type, chain.from_iterable(rows))) <= {list, tuple}
            and set(map(type, chain.from_iterable(chain.from_iterable(rows))))
            <= {float, int}
        ):
            a = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is None or a.shape != (*shape, 2) or not np.isfinite(a).all():
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


def load_subspace_document(path) -> SubspaceDocument:
    """Read and parse a subspace document from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, a file that is not UTF-8, or an integer literal
        # past the interpreter's digit limit
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


def _float_array(a: np.ndarray, depth: int) -> str:
    """A float64 array with no empty axis, as `dumps_json` writes a.tolist()."""
    bad = ~np.isfinite(a)
    if bad.any():
        raise InputError(f"cannot serialize non-finite float {a[bad][0].item()!r}")
    # + 0.0 turns -0.0 into 0.0, as _format_float does
    flat = (a + 0.0).ravel().tolist()
    n = a.shape[-1]
    if n <= 2:  # innermost rows of one or two values stay on one line
        row = "[" + ", ".join([f"%{JSON_DIGITS}"] * n) + "]"
        items = list(map(row.__mod__, zip(*[iter(flat)] * n)))
        axes = a.ndim - 1
    else:
        items = [format(x, JSON_DIGITS) for x in flat]
        axes = a.ndim
    for axis in reversed(range(axes)):
        n = a.shape[axis]
        pad = "  " * (depth + axis)
        head, sep, tail = f"[\n{pad}  ", f",\n{pad}  ", f"\n{pad}]"
        items = [
            head + sep.join(items[i : i + n]) + tail for i in range(0, len(items), n)
        ]
    return items[0]


def dumps_json(obj) -> str:
    """Serialize nested dicts/lists, two spaces per level, 17-digit floats.

    A float64 ndarray is written exactly as its ``.tolist()`` would be.
    """

    def emit(value, depth: int) -> str:
        pad = "  " * depth
        inner = pad + "  "
        if value is None:
            return "null"
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        if isinstance(value, (float, np.floating)):
            return _format_float(float(value), JSON_DIGITS)
        if isinstance(value, str):
            return json.dumps(value)
        if isinstance(value, dict):
            if not value:
                return "{}"
            rows = [
                f"{inner}{json.dumps(str(k))}: {emit(v, depth + 1)}"
                for k, v in value.items()
            ]
            return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
        floats = isinstance(value, np.ndarray) and value.dtype == np.float64
        if floats and value.ndim and value.size:
            return _float_array(value, depth)
        if isinstance(value, (list, tuple, np.ndarray)):
            seq = list(value)
            if not seq:
                return "[]"
            flat = all(
                not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq
            )
            if flat and len(seq) <= 2:
                return "[" + ", ".join(emit(v, depth + 1) for v in seq) + "]"
            rows = [f"{inner}{emit(v, depth + 1)}" for v in seq]
            return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
        raise InputError(f"cannot serialize {type(value).__name__}")

    return emit(obj, 0) + "\n"


def _string_fields(string: SchmidtString) -> dict:
    """The schmidt_string, k and measures fields of every result record."""
    meas = measures(string)
    return {
        "schmidt_string": [float(x) for x in string.probs],
        "k": string.k,
        "measures": {"e_d": meas.e_d, "e_i": meas.e_i, "e_t": meas.e_t},
    }


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
        **_string_fields(string),
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
    entries = [
        {
            "label": e.label,
            "rank": rank[e.label],
            "l": e.l,
            "branch": e.branch.value,
            "d1": 2 * e.l + 1,
            "d2": 2,
            "dim": e.dim,
            **_string_fields(e.string),
        }
        for e in level.entries
    ]
    return {
        "n": level.n,
        "order": list(chain.labels),
        "strict": not chain.ties,
        "entries": entries,
        "limiting": {
            "label": "S_0",
            "rank": rank["S_0"],
            **_string_fields(limiting),
        },
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
