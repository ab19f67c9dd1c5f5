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

from .catalog import (
    Branch,
    SpinLabel,
    _exchange_projector,
    hydrogen_level,
    limiting_string,
    spin_projector,
)
from .errors import InputError, NumericalError
from .io import (
    compare_document,
    compare_table,
    dumps_json,
    hydrogen_csv,
    hydrogen_document,
    hydrogen_table,
    load_subspace_document,
    result_csv,
    result_document,
    result_table,
)
from .linalg import gram_schmidt
from .majorization import compare, partial_sums, sort_chain
from .schmidt import SchmidtString, schmidt_string
from .spaces import Projector, SubspaceBasis, projector_from_basis
from .tolerances import within_budget
from .tolerances import DEFAULT_COMPARE_TOL, DEFAULT_ZERO_THRESHOLD
from .verify import FAMILY_SWEEPS

_FORMATS = click.Choice(["json", "csv", "table"])


@click.group(name="subent")
def cli() -> None:
    """Schmidt strings and entanglement measures of bipartite subspaces."""


# The options each schmidt source reads; a preset requires all of its own.
_SOURCE_OPTIONS = {
    None: ("--no-orthonormalize",),
    "antisym": ("--n",),
    "sym": ("--n",),
    "spin": ("--two-j", "--branch"),
}


def _preset_projector(
    preset: str, number: int, branch: str | None
) -> tuple[str, Projector]:
    """A catalog family's label and projector; `number` is n, or 2j for spin."""
    if preset == "spin":
        label = f"spin 2j={number} {branch}"
        return label, spin_projector(SpinLabel(number), Branch(branch))
    sign = -1 if preset == "antisym" else 1
    return f"{preset} n={number}", _exchange_projector(number, sign)


def _document_projector(path: str, orthonormalize: bool) -> tuple[str | None, Projector]:
    doc = load_subspace_document(path)
    if doc.basis is not None:
        # the text bounds a document's arrays, but not the projector of its
        # basis: `schmidt FILE` on one-vector documents peaks at 64.1-64.9
        # traced bytes per (d1 d2)^2 (d1 = d2 = 20..40)
        f = doc.factorization
        within_budget(f"d1={f.d1}, d2={f.d2}", 65 * f.dim**2)
        vectors = gram_schmidt(doc.basis) if orthonormalize else doc.basis
        basis = SubspaceBasis(factorization=doc.factorization, vectors=vectors)
        return doc.label, projector_from_basis(basis)
    if not orthonormalize:
        raise InputError("--no-orthonormalize does not apply to a projector document")
    return doc.label, Projector(doc.factorization, doc.projector)


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
    source = "INPUT_FILE" if preset is None else f"--preset {preset}"
    reads = _SOURCE_OPTIONS[preset]
    given = {"--n": n, "--two-j": two_j, "--branch": branch}
    given["--no-orthonormalize"] = no_orthonormalize or None
    for option, value in given.items():
        if value is not None and option not in reads:
            raise InputError(f"{option} does not apply to {source}")
    if preset is None:
        source_label, projector = _document_projector(
            input_file, orthonormalize=not no_orthonormalize
        )
    elif any(given[option] is None for option in reads):
        raise InputError(f"{source} requires {' and '.join(reads)}")
    else:
        number = two_j if preset == "spin" else n
        source_label, projector = _preset_projector(preset, number, branch)
    string = schmidt_string(projector, zero_threshold=zero_threshold)
    doc = result_document(
        label if label is not None else source_label, projector, string
    )
    render = {"json": dumps_json, "csv": result_csv, "table": result_table}[fmt]
    click.echo(render(doc), nl=False)


def _parse_compare_source(
    token: str, zero_threshold: float
) -> tuple[str, SchmidtString]:
    """A compare operand: a preset string or a document path."""
    kind, *args = token.split(":")
    if kind not in ("antisym", "sym", "spin"):
        doc_label, projector = _document_projector(token, orthonormalize=True)
        label = doc_label or os.path.basename(token)
        return label, schmidt_string(projector, zero_threshold=zero_threshold)
    spin = kind == "spin"
    branch = args.pop() if spin and args else None
    try:
        # int() is how click reads --n and --two-j; unpacking checks the count
        (number,) = [int(a) for a in args]
    except ValueError:
        number = None
    if number is None or (spin and branch not in ("plus", "minus")):
        expected = "spin:TWO_J:plus|minus" if spin else f"{kind}:N"
        raise InputError(f"malformed preset {token!r}, expected {expected}")
    label, projector = _preset_projector(kind, number, branch)
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
    sums = partial_sums([s_a, s_b])
    record = compare_document((label_a, label_b), verdict, tol, sums)
    click.echo(compare_table(record) + dumps_json(record), nl=False)


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
    chain = sort_chain([(e.label, e.string) for e in level.entries] + [("S_0", s0)])
    if not chain.ordered:
        raise NumericalError(
            f"hydrogen chain for n={n} is not totally ordered: "
            f"incomparable pairs {chain.incomparable}"
        )
    doc = hydrogen_document(level, s0, chain)
    render = {"json": dumps_json, "csv": hydrogen_csv, "table": hydrogen_table}[fmt]
    click.echo(render(doc), nl=False)


@cli.command(name="verify")
@click.option(
    "--family",
    type=click.Choice(["all", *FAMILY_SWEEPS]),
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
    help="Largest 2j to sweep for the spin family (default 20).",
)
def cmd_verify(family: str, max_n: int | None, max_two_j: int | None) -> int:
    """Recompute catalog strings numerically and diff against closed forms."""
    # an unset range keeps each family's own default; a range the chosen
    # family does not read is an error, not a silent default
    ranges = {"max_n": max_n, "max_two_j": max_two_j}
    names = list(FAMILY_SWEEPS) if family == "all" else [family]
    sweeps = [FAMILY_SWEEPS[name] for name in names]
    reads = {key for _, key in sweeps}
    for key, value in ranges.items():
        if value is not None and key not in reads:
            option = "--" + key.replace("_", "-")
            raise InputError(f"{option} does not apply to --family {family}")
    reports = [
        sweep(**({} if ranges[key] is None else {key: ranges[key]}))
        for sweep, key in sweeps
    ]

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
    except click.ClickException as exc:
        exc.show()
        return 2
    except InputError as exc:
        click.echo(f"input error: {exc}", err=True)
        return 2
    except NumericalError as exc:
        click.echo(f"numerical error: {exc}", err=True)
        return 3
    except MemoryError as exc:
        # a size too large to allocate is bad input; exit 1 means a failed check
        click.echo(f"input error: {str(exc) or 'out of memory'}", err=True)
        return 2
    return int(rv) if isinstance(rv, int) else 0


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
