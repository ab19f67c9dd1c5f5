"""Command line interface.

Four subcommands: `schmidt` computes the Schmidt string and measures of a
subspace given as a JSON document or a built-in preset; `compare` orders two
subspaces by majorization; `hydrogen` prints the fine structure entanglement
chain of a hydrogen-like level; `verify` recomputes the catalog numerically
and diffs it against the closed forms.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 numerical
failure.
"""

from __future__ import annotations

import os
import sys

import click
import numpy as np

from .catalog import (
    Branch,
    SpinLabel,
    antisymmetric_subspace,
    hydrogen_level,
    limiting_string,
    spin_projector,
    symmetric_subspace,
)
from .errors import InputError, NumericalError
from .io import (
    JSON_DIGITS,
    TABLE_DIGITS,
    _format_float,
    dumps_json,
    load_subspace_document,
    result_csv,
    result_document,
    result_table,
)
from .linalg import gram_schmidt
from .majorization import compare, sort_chain
from .schmidt import SchmidtString, measures, schmidt_string
from .spaces import Projector, SubspaceBasis, projector_from_basis
from .tolerances import DEFAULT_COMPARE_TOL, DEFAULT_ZERO_THRESHOLD
from .verify import verify_antisym, verify_hydrogen, verify_spin, verify_sym

_FORMATS = click.Choice(["json", "csv", "table"])


@click.group(name="subent")
def cli() -> None:
    """Schmidt strings and entanglement measures of bipartite subspaces."""


def _preset_projector(
    preset: str, n: int | None, two_j: int | None, branch: str | None
) -> tuple[str, Projector]:
    if preset == "antisym":
        if n is None:
            raise InputError("--preset antisym requires --n")
        return f"antisym n={n}", projector_from_basis(antisymmetric_subspace(n))
    if preset == "sym":
        if n is None:
            raise InputError("--preset sym requires --n")
        return f"sym n={n}", projector_from_basis(symmetric_subspace(n))
    if two_j is None or branch is None:
        raise InputError("--preset spin requires --two-j and --branch")
    return (
        f"spin 2j={two_j} {branch}",
        spin_projector(SpinLabel(two_j), Branch(branch)),
    )


def _document_projector(path: str, orthonormalize: bool) -> tuple[str | None, Projector]:
    doc = load_subspace_document(path)
    if doc.basis is not None:
        vectors = gram_schmidt(doc.basis) if orthonormalize else doc.basis
        basis = SubspaceBasis(factorization=doc.factorization, vectors=vectors)
        return doc.label, projector_from_basis(basis)
    return doc.label, Projector.from_matrix(doc.factorization, doc.projector)


@cli.command(name="schmidt")
@click.argument("input_file", required=False, type=click.Path(dir_okay=False))
@click.option(
    "--preset",
    type=click.Choice(["antisym", "sym", "spin"]),
    help="Compute a built-in family instead of reading INPUT_FILE.",
)
@click.option("--n", type=int, help="Size parameter for the antisym/sym presets.")
@click.option(
    "--two-j", "two_j", type=int, help="Twice the angular momentum for --preset spin."
)
@click.option(
    "--branch",
    type=click.Choice(["plus", "minus"]),
    help="Total angular momentum branch for --preset spin.",
)
@click.option(
    "--zero-threshold",
    type=float,
    default=DEFAULT_ZERO_THRESHOLD,
    show_default=True,
    help="Entries below this are treated as exact zeros for the Schmidt rank.",
)
@click.option("--format", "fmt", type=_FORMATS, default="json", show_default=True)
@click.option(
    "--no-orthonormalize",
    is_flag=True,
    help="Require a document basis to be orthonormal instead of running Gram-Schmidt.",
)
@click.option("--label", help="Override the label reported in the output.")
def cmd_schmidt(
    input_file: str | None,
    preset: str | None,
    n: int | None,
    two_j: int | None,
    branch: str | None,
    zero_threshold: float,
    fmt: str,
    no_orthonormalize: bool,
    label: str | None,
) -> None:
    """Compute the Schmidt string and measures of one subspace.

    INPUT_FILE is a JSON subspace document (see the package README for the
    format); alternatively pick a catalog family with --preset.
    """
    if (input_file is None) == (preset is None):
        raise InputError("provide exactly one of INPUT_FILE or --preset")
    if preset is not None:
        source_label, projector = _preset_projector(preset, n, two_j, branch)
    else:
        source_label, projector = _document_projector(
            input_file, orthonormalize=not no_orthonormalize
        )
    string = schmidt_string(projector, zero_threshold=zero_threshold)
    doc = result_document(
        label if label is not None else source_label,
        projector,
        string,
        measures(string),
        projector.report(),
    )
    if fmt == "json":
        click.echo(dumps_json(doc), nl=False)
    elif fmt == "csv":
        click.echo(result_csv(doc), nl=False)
    else:
        click.echo(result_table(doc), nl=False)


def _parse_compare_source(
    token: str, zero_threshold: float
) -> tuple[str, SchmidtString]:
    """A compare operand: a preset string or a document path."""
    parts = token.split(":")
    if parts[0] in ("antisym", "sym", "spin"):
        if parts[0] in ("antisym", "sym"):
            if len(parts) != 2 or not parts[1].isdigit():
                raise InputError(
                    f"malformed preset {token!r}, expected {parts[0]}:N"
                )
            label, projector = _preset_projector(parts[0], int(parts[1]), None, None)
        else:
            if (
                len(parts) != 3
                or not parts[1].isdigit()
                or parts[2] not in ("plus", "minus")
            ):
                raise InputError(
                    f"malformed preset {token!r}, expected spin:TWO_J:plus|minus"
                )
            label, projector = _preset_projector(
                "spin", None, int(parts[1]), parts[2]
            )
    else:
        doc_label, projector = _document_projector(token, orthonormalize=True)
        label = doc_label or os.path.basename(token)
    return label, schmidt_string(projector, zero_threshold=zero_threshold)


@cli.command(name="compare")
@click.argument("a")
@click.argument("b")
@click.option(
    "--tol",
    type=float,
    default=DEFAULT_COMPARE_TOL,
    show_default=True,
    help="Absolute tolerance on partial sum comparisons.",
)
@click.option(
    "--zero-threshold",
    type=float,
    default=DEFAULT_ZERO_THRESHOLD,
    show_default=True,
)
def cmd_compare(a: str, b: str, tol: float, zero_threshold: float) -> None:
    """Order two subspaces by majorization of their Schmidt strings.

    A and B are JSON documents or presets of the form antisym:N, sym:N or
    spin:TWO_J:plus|minus.  The first output line is the verdict for A
    relative to B, followed by the partial sum table and a JSON record.
    """
    label_a, s_a = _parse_compare_source(a, zero_threshold)
    label_b, s_b = _parse_compare_source(b, zero_threshold)
    verdict = compare(s_a, s_b, tol=tol)

    length = max(len(s_a), len(s_b))
    ca = np.cumsum(s_a.padded(length))
    cb = np.cumsum(s_b.padded(length))
    a_exceeds = [i + 1 for i in range(length) if ca[i] > cb[i] + tol]
    b_exceeds = [i + 1 for i in range(length) if cb[i] > ca[i] + tol]

    click.echo(verdict.value)
    click.echo(f"{'k':>4}  {'sum A':<22}{'sum B':<22}A-B")
    # rows witnessing incomparability get a mark; one-sided excesses are
    # just what a comparable verdict looks like
    flag_rows = a_exceeds and b_exceeds
    for i in range(length):
        mark = " *" if flag_rows and (i + 1 in a_exceeds or i + 1 in b_exceeds) else ""
        click.echo(
            f"{i + 1:>4}  "
            f"{_format_float(float(ca[i]), TABLE_DIGITS):<22}"
            f"{_format_float(float(cb[i]), TABLE_DIGITS):<22}"
            f"{_format_float(float(ca[i] - cb[i]), TABLE_DIGITS):<22}".rstrip() + mark
        )
    record = {
        "a": label_a,
        "b": label_b,
        "verdict": verdict.value,
        "tol": tol,
        "partial_sums_a": [float(x) for x in ca],
        "partial_sums_b": [float(x) for x in cb],
        "a_exceeds_at": a_exceeds,
        "b_exceeds_at": b_exceeds,
    }
    click.echo(dumps_json(record), nl=False)


@cli.command(name="hydrogen")
@click.option("--n", type=int, required=True, help="Principal quantum number.")
@click.option("--format", "fmt", type=_FORMATS, default="json", show_default=True)
def cmd_hydrogen(n: int, fmt: str) -> None:
    """Entanglement chain of the fine structure of a hydrogen-like level.

    Lists all 2n - 1 total angular momentum eigenspaces of level n together
    with the limiting string S_0, ordered least to most entangled.
    """
    level = hydrogen_level(n)
    s0 = limiting_string()
    chain = sort_chain(
        [(e.label, e.string) for e in level.entries] + [("S_0", s0)]
    )
    if not chain.ordered:
        raise NumericalError(
            f"hydrogen chain for n={n} is not totally ordered: "
            f"incomparable pairs {chain.incomparable}"
        )
    rank = {label: i + 1 for i, label in enumerate(chain.labels)}

    rows = []
    for e in level.entries:
        m = measures(e.string)
        rows.append(
            {
                "label": e.label,
                "rank": rank[e.label],
                "l": e.l,
                "branch": e.branch.value,
                "d1": 2 * e.l + 1,
                "d2": 2,
                "dim": e.dim,
                "schmidt_string": [float(x) for x in e.string.probs],
                "k": e.string.k,
                "measures": {"e_d": m.e_d, "e_i": m.e_i, "e_t": m.e_t},
            }
        )
    m0 = measures(s0)
    limiting = {
        "label": "S_0",
        "rank": rank["S_0"],
        "schmidt_string": [float(x) for x in s0.probs],
        "k": s0.k,
        "measures": {"e_d": m0.e_d, "e_i": m0.e_i, "e_t": m0.e_t},
    }

    if fmt == "json":
        doc = {
            "n": n,
            "order": list(chain.labels),
            "strict": not chain.ties,
            "entries": rows,
            "limiting": limiting,
        }
        click.echo(dumps_json(doc), nl=False)
        return

    table_rows = sorted(rows + [limiting], key=lambda r: r["rank"])
    if fmt == "csv":
        header = ["rank", "label", "d1", "d2", "dim", "p1", "p2", "p3", "p4",
                  "e_d", "e_i", "e_t"]
        lines = [",".join(header)]
        for r in table_rows:
            cells = [
                str(r["rank"]),
                r["label"],
                str(r.get("d1", "")),
                str(r.get("d2", "")),
                str(r.get("dim", "")),
            ]
            cells += [_format_float(p, JSON_DIGITS) for p in r["schmidt_string"]]
            cells += [
                _format_float(r["measures"][key], JSON_DIGITS)
                for key in ("e_d", "e_i", "e_t")
            ]
            lines.append(",".join(cells))
        click.echo("\n".join(lines))
        return

    click.echo(f"level n={n}: least to most entangled")
    head = (
        f"{'rank':>4}  {'label':<10}{'dim':>4}  "
        f"{'p1':<16}{'p2':<16}{'p3':<16}{'p4':<16}"
        f"{'e_d':<16}{'e_i':<16}{'e_t':<16}"
    )
    click.echo(head)
    for r in table_rows:
        cells = "".join(
            f"{_format_float(p, TABLE_DIGITS):<16}" for p in r["schmidt_string"]
        )
        meas = "".join(
            f"{_format_float(r['measures'][key], TABLE_DIGITS):<16}"
            for key in ("e_d", "e_i", "e_t")
        )
        dim = r.get("dim", "")
        click.echo(
            f"{r['rank']:>4}  {r['label']:<10}{dim!s:>4}  {cells}{meas}".rstrip()
        )


@cli.command(name="verify")
@click.option(
    "--family",
    type=click.Choice(["all", "antisym", "sym", "spin", "hydrogen"]),
    default="all",
    show_default=True,
)
@click.option(
    "--max-n",
    type=int,
    help="Largest n to sweep for antisym/sym (default 12) and hydrogen (default 8).",
)
@click.option(
    "--max-two-j",
    type=int,
    default=20,
    show_default=True,
    help="Largest 2j to sweep for the spin family.",
)
def cmd_verify(family: str, max_n: int | None, max_two_j: int) -> int:
    """Recompute catalog strings numerically and diff against closed forms."""
    # an unset --max-n keeps each family's own default range
    n_range = {} if max_n is None else {"max_n": max_n}
    reports = []
    if family in ("all", "antisym"):
        reports.append(verify_antisym(**n_range))
    if family in ("all", "sym"):
        reports.append(verify_sym(**n_range))
    if family in ("all", "spin"):
        reports.append(verify_spin(max_two_j=max_two_j))
    if family in ("all", "hydrogen"):
        reports.append(verify_hydrogen(**n_range))

    failed = False
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        worst = report.worst
        click.echo(
            f"{report.family:<10}{status:<6}checks={len(report.checks):<5}"
            f"max deviation={worst.deviation:.3e} ({worst.name})"
        )
        for check in report.failures():
            failed = True
            click.echo(
                f"  FAIL {check.name}: deviation {check.deviation:.3e} "
                f"exceeds tolerance {check.tolerance:.3e}"
            )
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    """Run the CLI and map package errors onto exit codes."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 130
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.UsageError as exc:
        exc.show()
        return 2
    except click.ClickException as exc:
        exc.show()
        return 2
    except InputError as exc:
        click.echo(f"input error: {exc}", err=True)
        return 2
    except NumericalError as exc:
        click.echo(f"numerical error: {exc}", err=True)
        return 3
    return int(rv) if isinstance(rv, int) else 0


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
