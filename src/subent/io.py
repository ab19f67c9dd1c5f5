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

import numpy as np

from .errors import InputError
from .schmidt import Measures, SchmidtString
from .spaces import (
    Factorization,
    Projector,
    ProjectorReport,
    SubspaceBasis,
    is_integer,
)

JSON_DIGITS = ".17g"
TABLE_DIGITS = ".12g"


@dataclass(frozen=True)
class SubspaceDocument:
    """Parsed subspace input: a factorization plus a basis or a projector."""

    factorization: Factorization
    label: str | None
    basis: np.ndarray | None
    projector: np.ndarray | None


def _parse_pair(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in value)
    ):
        raise InputError(f"{where}: expected a [re, im] pair, got {value!r}")
    re, im = float(value[0]), float(value[1])
    if not (math.isfinite(re) and math.isfinite(im)):
        raise InputError(f"{where}: non-finite entry {value!r}")
    return complex(re, im)


def _parse_int(data: dict, key: str) -> int:
    if key not in data:
        raise InputError(f"missing required key {key!r}")
    value = data[key]
    if not is_integer(value):
        raise InputError(f"{key} must be an integer, got {value!r}")
    if value < 1:
        raise InputError(f"{key} must be >= 1, got {value}")
    return value


def parse_subspace_document(data) -> SubspaceDocument:
    """Validate a decoded JSON object into a SubspaceDocument."""
    if not isinstance(data, dict):
        raise InputError(f"document must be a JSON object, got {type(data).__name__}")
    allowed = {"label", "d1", "d2", "basis", "projector"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise InputError(f"unknown document keys: {', '.join(unknown)}")
    d1 = _parse_int(data, "d1")
    d2 = _parse_int(data, "d2")
    f = Factorization(d1, d2)
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError(f"label must be a string, got {label!r}")
    has_basis = "basis" in data
    has_projector = "projector" in data
    if has_basis == has_projector:
        raise InputError("document must contain exactly one of 'basis' or 'projector'")

    if has_basis:
        rows = data["basis"]
        if not isinstance(rows, list) or not rows:
            raise InputError("basis must be a non-empty list of vectors")
        basis = np.zeros((len(rows), f.dim), dtype=np.complex128)
        for a, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != f.dim:
                raise InputError(
                    f"basis vector {a} must be a list of {f.dim} [re, im] pairs"
                )
            for b, pair in enumerate(row):
                basis[a, b] = _parse_pair(pair, f"basis[{a}][{b}]")
        return SubspaceDocument(
            factorization=f, label=label, basis=basis, projector=None
        )

    rows = data["projector"]
    if not isinstance(rows, list) or len(rows) != f.dim:
        raise InputError(f"projector must be a list of {f.dim} rows")
    matrix = np.zeros((f.dim, f.dim), dtype=np.complex128)
    for a, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != f.dim:
            raise InputError(
                f"projector row {a} must be a list of {f.dim} [re, im] pairs"
            )
        for b, pair in enumerate(row):
            matrix[a, b] = _parse_pair(pair, f"projector[{a}][{b}]")
    return SubspaceDocument(
        factorization=f, label=label, basis=None, projector=matrix
    )


def load_subspace_document(path) -> SubspaceDocument:
    """Read and parse a subspace document from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    return parse_subspace_document(data)


def _matrix_pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def basis_document(basis: SubspaceBasis, label: str | None = None) -> dict:
    """Subspace document dict for an orthonormal basis."""
    doc: dict = {}
    if label is not None:
        doc["label"] = label
    doc["d1"] = basis.factorization.d1
    doc["d2"] = basis.factorization.d2
    doc["basis"] = _matrix_pairs(basis.vectors)
    return doc


def projector_document(p: Projector, label: str | None = None) -> dict:
    """Subspace document dict for a validated projector."""
    doc: dict = {}
    if label is not None:
        doc["label"] = label
    doc["d1"] = p.factorization.d1
    doc["d2"] = p.factorization.d2
    doc["projector"] = _matrix_pairs(p.matrix)
    return doc


# --- serialization ----------------------------------------------------------


def _format_float(x: float, spec: str) -> str:
    if not math.isfinite(x):
        raise InputError(f"cannot serialize non-finite float {x!r}")
    out = format(float(x), spec)
    # normalize negative zero for stable round trips
    return "0" if out in ("-0", "0") else out


def dumps_json(obj, indent: int = 2) -> str:
    """Serialize nested dicts/lists with floats at 17 significant digits."""

    def emit(value, depth: int) -> str:
        pad = " " * (indent * depth)
        inner = " " * (indent * (depth + 1))
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


def result_document(
    label: str | None,
    projector: Projector,
    string: SchmidtString,
    meas: Measures,
    report: ProjectorReport,
) -> dict:
    """Assemble the result of a Schmidt string computation as plain data."""
    f = projector.factorization
    return {
        "label": label,
        "d1": f.d1,
        "d2": f.d2,
        "dim": projector.dim,
        "schmidt_string": [float(x) for x in string.probs],
        "k": string.k,
        "measures": {"e_d": meas.e_d, "e_i": meas.e_i, "e_t": meas.e_t},
        "projector_defects": {
            "hermiticity": report.hermiticity,
            "idempotency": report.idempotency,
            "trace": report.trace,
            "passes": report.passes,
        },
    }


def result_csv(doc: dict) -> str:
    """One-row CSV rendering: label,d1,d2,dim,p1..pK,e_d,e_i,e_t."""
    probs = doc["schmidt_string"]
    header = ["label", "d1", "d2", "dim"]
    header += [f"p{i + 1}" for i in range(len(probs))]
    header += ["e_d", "e_i", "e_t"]
    m = doc["measures"]
    row = [doc["label"] or "", str(doc["d1"]), str(doc["d2"]), str(doc["dim"])]
    row += [_format_float(p, JSON_DIGITS) for p in probs]
    row += [_format_float(m[key], JSON_DIGITS) for key in ("e_d", "e_i", "e_t")]
    return ",".join(header) + "\n" + ",".join(row) + "\n"


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
    lines.append(f"e_d             {_format_float(m['e_d'], TABLE_DIGITS)}")
    lines.append(f"e_i             {_format_float(m['e_i'], TABLE_DIGITS)}")
    lines.append(f"e_t             {_format_float(m['e_t'], TABLE_DIGITS)}")
    lines.append(
        "projector defects  "
        f"hermiticity {d['hermiticity']:.3e}  "
        f"idempotency {d['idempotency']:.3e}  "
        f"trace {d['trace']:.3e}"
    )
    return "\n".join(lines) + "\n"
