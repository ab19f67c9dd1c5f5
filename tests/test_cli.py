import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from subent import NumericalError, SchmidtString, linalg, spaces, tolerances
from subent.io import dumps_json, projector_document
from subent.cli import main
from subent.tolerances import BYTE_BUDGET

from .helpers import off_norm_projector
from subent import cli as cli_module

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def traced_run(capsys, *argv):
    """`run`, and the tracemalloc peak in bytes while `main` ran."""
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    return code, captured.out, captured.err, peak


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def singlet_doc():
    inv = 1.0 / math.sqrt(2.0)
    return {
        "label": "singlet",
        "d1": 2,
        "d2": 2,
        "basis": [[[0.0, 0.0], [inv, 0.0], [-inv, 0.0], [0.0, 0.0]]],
    }


def whole_space_projector_doc():
    eye = [[[1.0 if i == k else 0.0, 0.0] for k in range(4)] for i in range(4)]
    return {"d1": 2, "d2": 2, "projector": eye}


def diagonal_vector_doc(label, probs):
    # one pure vector sum_a sqrt(p_a) e_a (x) e_a inside 3 (x) 3
    vec = [[0.0, 0.0] for _ in range(9)]
    for a, p in enumerate(probs):
        vec[a * 3 + a] = [math.sqrt(p), 0.0]
    return {"label": label, "d1": 3, "d2": 3, "basis": [vec]}


class TestSchmidt:
    def test_singlet_document_json(self, capsys, tmp_path):
        path = write_doc(tmp_path, "s.json", singlet_doc())
        code, out, err = run(capsys, "schmidt", path)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["label"] == "singlet"
        assert (doc["d1"], doc["d2"], doc["dim"]) == (2, 2, 1)
        assert doc["k"] == 4
        assert doc["schmidt_string"] == pytest.approx([0.25] * 4, abs=1e-12)
        assert doc["measures"]["e_i"] == pytest.approx(2.0, abs=1e-12)
        assert doc["projector_defects"]["passes"] is True

    def test_whole_space_projector_doc(self, capsys, tmp_path):
        path = write_doc(tmp_path, "full.json", whole_space_projector_doc())
        code, out, _ = run(capsys, "schmidt", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 4
        assert doc["k"] == 1
        assert doc["schmidt_string"] == pytest.approx([1, 0, 0, 0], abs=1e-12)
        assert doc["measures"]["e_t"] == pytest.approx(0.0, abs=1e-12)

    def test_preset_antisym(self, capsys):
        code, out, _ = run(capsys, "schmidt", "--preset", "antisym", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["label"] == "antisym n=3"
        expected = [1.0 / 3.0] + [1.0 / 12.0] * 8
        assert doc["schmidt_string"] == pytest.approx(expected, abs=1e-12)
        assert doc["k"] == 9

    def test_preset_spin(self, capsys):
        code, out, _ = run(
            capsys,
            "schmidt", "--preset", "spin", "--two-j", "1", "--branch", "plus",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["label"] == "spin 2j=1 plus"
        assert doc["schmidt_string"] == pytest.approx(
            [0.75] + [1.0 / 12.0] * 3, abs=1e-12
        )

    def test_csv_agrees_with_json(self, capsys):
        code, out_json, _ = run(capsys, "schmidt", "--preset", "sym", "--n", "2")
        assert code == 0
        code, out_csv, _ = run(
            capsys, "schmidt", "--preset", "sym", "--n", "2", "--format", "csv"
        )
        assert code == 0
        doc = json.loads(out_json)
        header, row = out_csv.strip().split("\n")
        cells = row.split(",")
        k = len(doc["schmidt_string"])
        assert header.split(",")[4:4 + k] == [f"p{i + 1}" for i in range(k)]
        for value, cell in zip(doc["schmidt_string"], cells[4:4 + k]):
            assert float(cell) == pytest.approx(value, abs=1e-12)
        assert float(cells[-2]) == pytest.approx(doc["measures"]["e_i"], abs=1e-12)

    def test_table_format(self, capsys):
        code, out, _ = run(
            capsys, "schmidt", "--preset", "antisym", "--n", "2",
            "--format", "table",
        )
        assert code == 0
        assert "schmidt rank    4" in out
        assert "factorization   2 x 2" in out

    def test_exchange_preset_stays_sparse(self, capsys, monkeypatch):
        # a dense 4096 x 4096 P alone would take 268 MB
        def dense(entries):
            raise AssertionError("the dense projector was built")

        monkeypatch.setattr(spaces._Entries, "dense", dense)
        argv = ["schmidt", "--preset", "sym", "--n", "64"]
        code, out, err, peak = traced_run(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["label"] == "sym n=64"
        assert peak < 8_000_000

    def test_label_override(self, capsys):
        code, out, _ = run(
            capsys,
            "schmidt", "--preset", "antisym", "--n", "2", "--label", "mine",
        )
        assert code == 0
        assert json.loads(out)["label"] == "mine"

    def test_zero_threshold_controls_rank(self, capsys, tmp_path):
        path = write_doc(
            tmp_path, "v.json",
            diagonal_vector_doc("lopsided", [0.999999, 0.0000005, 0.0000005]),
        )
        # pairwise products: 1x ~1, 4x 5e-7, 4x 2.5e-13
        code, out, _ = run(capsys, "schmidt", path)
        assert code == 0
        assert json.loads(out)["k"] == 5  # default 1e-10 floors the 2.5e-13 tier
        code, out, _ = run(capsys, "schmidt", path, "--zero-threshold", "0")
        assert code == 0
        assert json.loads(out)["k"] == 9
        # flooring genuine weight breaks the sum-to-1 rule and is rejected
        code, _, err = run(capsys, "schmidt", path, "--zero-threshold", "1e-5")
        assert code == 2
        assert "input error" in err
        assert "zero_threshold 1e-05 floored weight" in err

    def test_orthonormalize_default(self, capsys, tmp_path):
        doc = {
            "d1": 1,
            "d2": 2,
            "basis": [
                [[1.0, 0.0], [0.0, 0.0]],
                [[1.0, 0.0], [1.0, 0.0]],
            ],
        }
        path = write_doc(tmp_path, "skew.json", doc)
        code, out, _ = run(capsys, "schmidt", path)
        assert code == 0
        assert json.loads(out)["dim"] == 2
        code, out, err = run(capsys, "schmidt", path, "--no-orthonormalize")
        assert code == 2
        assert "input error" in err

    def test_nearly_dependent_basis_keeps_its_rank(self, capsys, tmp_path):
        # 64 vectors in C^40, row 39 = row 0 + 2**-27 n: the 24 past the
        # dimension are dropped, not kept through the rounding that the
        # nearly dependent row magnifies
        rng = np.random.default_rng(80)
        vecs = rng.integers(-8, 9, (65, 40)) + 1j * rng.integers(-8, 9, (65, 40))
        vecs[39] = vecs[0] + 2.0**-27 * vecs[64]
        basis = np.stack([vecs[:64].real, vecs[:64].imag], axis=-1).tolist()
        path = write_doc(tmp_path, "near.json", {"d1": 5, "d2": 8, "basis": basis})
        with pytest.warns(linalg.RankDeficiencyWarning, match="dropped 24 .* rank is 40$"):
            code, out, _ = run(capsys, "schmidt", path)
        assert code == 0
        assert json.loads(out)["dim"] == 40

    def test_requires_exactly_one_source(self, capsys, tmp_path):
        code, _, err = run(capsys, "schmidt")
        assert code == 2
        assert "exactly one" in err
        path = write_doc(tmp_path, "s.json", singlet_doc())
        code, _, err = run(capsys, "schmidt", path, "--preset", "antisym")
        assert code == 2

    def test_preset_missing_parameter(self, capsys):
        code, _, err = run(capsys, "schmidt", "--preset", "antisym")
        assert code == 2
        assert "requires --n" in err
        code, _, err = run(capsys, "schmidt", "--preset", "spin", "--two-j", "3")
        assert code == 2
        assert "requires --two-j and --branch" in err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["--preset", "antisym", "--n", "3", "--two-j", "5"], "--two-j"),
            (["--preset", "sym", "--n", "3", "--branch", "plus"], "--branch"),
            (["--preset", "antisym", "--n", "3", "--no-orthonormalize"],
             "--no-orthonormalize"),
            (["--preset", "spin", "--two-j", "3", "--branch", "plus", "--n", "7"],
             "--n"),
            (["--preset", "spin", "--two-j", "3", "--branch", "plus",
              "--no-orthonormalize"], "--no-orthonormalize"),
            (["DOC", "--n", "3"], "--n"),
            (["DOC", "--two-j", "3"], "--two-j"),
            (["DOC", "--branch", "minus"], "--branch"),
            (["PROJECTOR_DOC", "--no-orthonormalize"], "--no-orthonormalize"),
        ],
    )
    def test_preset_unused_option(self, capsys, tmp_path, argv, option):
        docs = {"DOC": singlet_doc(), "PROJECTOR_DOC": whole_space_projector_doc()}
        argv = [write_doc(tmp_path, "s.json", docs[a]) if a in docs else a for a in argv]
        code, out, err = run(capsys, "schmidt", *argv)
        assert code == 2
        assert out == ""
        assert f"input error: {option} " in err

    def test_preset_bad_parameter(self, capsys):
        code, _, err = run(capsys, "schmidt", "--preset", "antisym", "--n", "1")
        assert code == 2
        assert "input error" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "schmidt", str(tmp_path / "absent.json"))
        assert code == 2

    def test_invalid_json_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, _, err = run(capsys, "schmidt", str(path))
        assert code == 2
        assert "not valid JSON" in err

    def test_tiny_document_large_factorization(self, capsys, tmp_path):
        # a 1-pair row against D = 10^10 is an input error, not a 149 GiB
        # allocation
        doc = {"d1": 100000, "d2": 100000, "basis": [[[1, 0]]]}
        code, out, err = run(capsys, "schmidt", write_doc(tmp_path, "big.json", doc))
        assert code == 2
        assert out == ""
        assert (
            "basis vector 0 must be a list of 10000000000 [re, im] pairs" in err
        )

    def test_huge_integer_entry(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"d1": 1, "d2": 2, "basis": [[[1' + "0" * 400 + ", 0], [0, 1]]]}")
        code, out, err = run(capsys, "schmidt", str(path))
        assert code == 2
        assert out == ""
        assert "input error: basis[0][0]: non-finite entry" in err

    def test_bad_format_choice(self, capsys):
        code, _, err = run(
            capsys, "schmidt", "--preset", "antisym", "--n", "2",
            "--format", "xml",
        )
        assert code == 2

    def test_output_stable(self, capsys):
        _, first, _ = run(capsys, "schmidt", "--preset", "sym", "--n", "3")
        _, second, _ = run(capsys, "schmidt", "--preset", "sym", "--n", "3")
        assert first == second


class TestCompare:
    def test_example_one_verdict(self, capsys):
        code, out, _ = run(capsys, "compare", "antisym:3", "sym:2")
        assert code == 0
        lines = out.split("\n")
        assert lines[0] == "more_entangled"
        record = json.loads(out[out.index("{"):])
        assert record["a"] == "antisym n=3"
        assert record["b"] == "sym n=2"
        assert record["verdict"] == "more_entangled"
        # A more entangled means A's partial sums never exceed B's
        assert record["a_exceeds_at"] == []
        assert record["b_exceeds_at"]
        assert record["partial_sums_a"][-1] == pytest.approx(1.0, abs=1e-9)

    def test_equal(self, capsys):
        code, out, _ = run(capsys, "compare", "sym:2", "sym:2")
        assert code == 0
        assert out.split("\n")[0] == "equal"
        record = json.loads(out[out.index("{"):])
        assert record["a_exceeds_at"] == []
        assert record["b_exceeds_at"] == []
        assert "*" not in out

    def test_spin_branches(self, capsys):
        code, out, _ = run(capsys, "compare", "spin:2:plus", "spin:2:minus")
        assert code == 0
        assert out.split("\n")[0] == "less_entangled"

    def test_incomparable_documents(self, capsys, tmp_path):
        a = write_doc(
            tmp_path, "a.json", diagonal_vector_doc("a", [0.7, 0.15, 0.15])
        )
        b = write_doc(
            tmp_path, "b.json", diagonal_vector_doc("b", [0.6, 0.35, 0.05])
        )
        code, out, _ = run(capsys, "compare", a, b)
        assert code == 0
        assert out.split("\n")[0] == "incomparable"
        record = json.loads(out[out.index("{"):])
        assert record["a_exceeds_at"]
        assert record["b_exceeds_at"]
        # witnessing rows are marked in the table
        assert "*" in out

    def test_document_against_preset(self, capsys, tmp_path):
        path = write_doc(tmp_path, "s.json", singlet_doc())
        code, out, _ = run(capsys, "compare", path, "antisym:2")
        assert code == 0
        # the singlet is the n=2 antisymmetric subspace
        assert out.split("\n")[0] == "equal"

    def test_malformed_preset(self, capsys):
        code, _, err = run(capsys, "compare", "antisym:x", "sym:2")
        assert code == 2
        assert "malformed preset" in err
        code, _, err = run(capsys, "compare", "spin:1", "sym:2")
        assert code == 2
        code, _, err = run(capsys, "compare", "spin:1:up", "sym:2")
        assert code == 2
        # str.isdigit() accepts superscripts that int() rejects
        code, out, err = run(capsys, "compare", "antisym:\u00b2", "sym:2")
        assert code == 2
        assert out == ""
        assert "malformed preset" in err
        code, _, err = run(capsys, "compare", "sym:2", "spin:\u00b2:plus")
        assert code == 2
        assert "malformed preset" in err

    def test_tolerance_flag(self, capsys):
        # huge tolerance collapses any ordering to equal
        code, out, _ = run(
            capsys, "compare", "antisym:3", "sym:2", "--tol", "1.0"
        )
        assert code == 0
        assert out.split("\n")[0] == "equal"


class TestHydrogen:
    def test_n2_json(self, capsys):
        code, out, _ = run(capsys, "hydrogen", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 2
        assert doc["order"] == ["V_1/2", "V_3/2", "S_0", "Vt_1/2"]
        assert doc["strict"] is True
        assert len(doc["entries"]) == 3
        by_label = {e["label"]: e for e in doc["entries"]}
        assert by_label["V_3/2"]["schmidt_string"] == pytest.approx(
            [2 / 3] + [1 / 9] * 3, abs=1e-12
        )
        assert by_label["V_3/2"]["rank"] == 2
        assert doc["limiting"]["label"] == "S_0"
        assert doc["limiting"]["rank"] == 3
        assert doc["limiting"]["schmidt_string"] == pytest.approx(
            [0.5, 1 / 6, 1 / 6, 1 / 6], abs=1e-15
        )

    def test_n1_json(self, capsys):
        code, out, _ = run(capsys, "hydrogen", "--n", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == ["V_1/2", "S_0"]
        assert doc["entries"][0]["k"] == 1

    def test_n3_csv(self, capsys):
        code, out, _ = run(capsys, "hydrogen", "--n", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("rank,label,d1,d2,dim,p1")
        assert len(lines) == 1 + 6  # header + 5 entries + S_0
        s0 = [line for line in lines if ",S_0," in line]
        assert len(s0) == 1
        # the limiting string belongs to no level, so dims are blank
        assert s0[0].split(",")[2:5] == ["", "", ""]
        ranks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ranks == [1, 2, 3, 4, 5, 6]

    def test_table(self, capsys):
        code, out, _ = run(capsys, "hydrogen", "--n", "2", "--format", "table")
        assert code == 0
        assert out.startswith("level n=2: least to most entangled")
        assert "V_3/2" in out
        assert "S_0" in out

    def test_domain(self, capsys):
        code, _, err = run(capsys, "hydrogen", "--n", "0")
        assert code == 2
        assert "input error" in err

    def test_requires_n(self, capsys):
        code, _, err = run(capsys, "hydrogen")
        assert code == 2

    def test_over_the_byte_budget(self, capsys):
        # refused from n alone, before the level is built
        n = 10**20
        code, out, err, peak = traced_run(capsys, "hydrogen", "--n", str(n))
        need = f"{4 * (2 * n) ** 2:,}"
        message = f"input error: n={n} needs about {need} bytes, budget 1,000,000,000\n"
        assert (code, out, err) == (2, "", message)
        assert peak < 1_000_000

    def test_chain_that_is_not_total_is_exit_3(self, capsys, monkeypatch):
        # (0.6, 0.4, 0, 0) and V_3/2 = (2/3, 1/9, 1/9, 1/9) are incomparable
        def limiting_string():
            return SchmidtString.from_probs([0.6, 0.4], length=4)

        monkeypatch.setattr(cli_module, "limiting_string", limiting_string)
        code, out, err = run(capsys, "hydrogen", "--n", "2")
        assert (code, out) == (3, "")
        assert err == (
            "numerical error: hydrogen chain for n=2 is not totally ordered: "
            "incomparable pairs (('V_3/2', 'S_0'),)\n"
        )


@pytest.mark.parametrize(
    "argv, name",
    [
        (["hydrogen", "--n", "3", "--format", "csv"], "hydrogen_n3.csv"),
        (["hydrogen", "--n", "3", "--format", "table"], "hydrogen_n3_table.txt"),
        (["compare", "antisym:3", "sym:2"], "compare_antisym3_sym2.txt"),
        (
            ["schmidt", "--preset", "spin", "--two-j", "7", "--branch", "minus"],
            "schmidt_spin7_minus.json",
        ),
        (
            ["schmidt", "--preset", "antisym", "--n", "4", "--format", "csv"],
            "schmidt_antisym4.csv",
        ),
        (["verify", "--family", "spin", "--max-two-j", "3"], "verify_spin_max3.txt"),
        (
            ["schmidt", "--preset", "spin", "--two-j", "1000", "--branch", "plus"],
            "schmidt_spin1000_plus.json",
        ),
        (
            ["schmidt", "--preset", "sym", "--n", "8", "--format", "csv"],
            "schmidt_sym8.csv",
        ),
    ],
)
def test_golden_output(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / name).read_bytes().decode("utf-8")


HYDROGEN_PINS = [
    line.split(maxsplit=1)
    for line in (GOLDEN / "hydrogen_sha256.txt").read_text().splitlines()
]


@pytest.mark.parametrize(
    "digest, argv", HYDROGEN_PINS, ids=[argv for _, argv in HYDROGEN_PINS]
)
def test_hydrogen_output_sha256(capsys, argv, digest):
    # the pins hold sha256 of whole outputs too long to keep as golden files
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


SCHMIDT_PINS = [
    line.split(maxsplit=1)
    for line in (GOLDEN / "schmidt_sha256.txt").read_text().splitlines()
]


@pytest.mark.parametrize(
    "digest, argv", SCHMIDT_PINS, ids=[argv for _, argv in SCHMIDT_PINS]
)
def test_preset_output_sha256(capsys, argv, digest):
    # the json output carries the strings, measures and projector defects
    # at 17 significant digits
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["schmidt", "--preset", "antisym", "--n", "1"],
            "n must be an integer >= 2, got 1",
        ),
        (
            ["schmidt", "--preset", "sym", "--n", "0"],
            "n must be an integer >= 1, got 0",
        ),
        (
            ["schmidt", "--preset", "spin", "--two-j", "0", "--branch", "plus"],
            "two_j must be an integer >= 1, got 0",
        ),
        (["compare", "antisym:1", "sym:2"], "n must be an integer >= 2, got 1"),
        (["hydrogen", "--n", "0"], "n must be an integer >= 1, got 0"),
        (
            ["verify", "--family", "spin", "--max-two-j", "0"],
            "max_two_j must be an integer >= 1, got 0",
        ),
        (
            ["verify", "--family", "hydrogen", "--max-n", "0"],
            "max_n must be an integer >= 1, got 0",
        ),
    ],
)
def test_count_errors_share_one_form(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"d1": 0, "d2": 2, "basis": [[[1.0, 0.0]]]},
            "d1 must be an integer >= 1, got 0",
        ),
        ({"d1": 2, "d2": 2.0, "basis": []}, "d2 must be an integer >= 1, got 2.0"),
        ({"d1": "2", "basis": []}, "missing required key 'd2'"),
    ],
)
def test_document_count_errors(capsys, tmp_path, doc, message):
    path = write_doc(tmp_path, "doc.json", doc)
    assert run(capsys, "schmidt", path) == (2, "", f"input error: {message}\n")


class TestVerify:
    def test_single_family(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "antisym", "--max-n", "6"
        )
        assert code == 0
        assert out.startswith("antisym")
        assert "pass" in out
        assert "FAIL" not in out

    def test_all_families_small(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--max-n", "4", "--max-two-j", "4"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert [line.split()[0] for line in lines] == [
            "antisym", "sym", "spin", "hydrogen",
        ]

    def test_bad_family(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "bogus")
        assert code == 2

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "antisym", "--max-n", "1")
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--family", "spin", "--max-n", "3"],
                "--max-n does not apply to --family spin",
            ),
            (
                ["--family", "hydrogen", "--max-two-j", "3"],
                "--max-two-j does not apply to --family hydrogen",
            ),
            (
                ["--family", "antisym", "--max-two-j", "3"],
                "--max-two-j does not apply to --family antisym",
            ),
        ],
    )
    def test_range_the_family_does_not_sweep(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("max_n", [1962, 7906, 10**20])
    def test_hydrogen_range_over_the_byte_budget(self, capsys, max_n):
        # refused from max_n alone, before level 1 runs
        argv = ["verify", "--family", "hydrogen", "--max-n", str(max_n)]
        code, out, err, peak = traced_run(capsys, *argv)
        need = f"{65 * (2 * max_n) ** 2:,}"
        message = f"input error: max_n={max_n} needs about {need} bytes, budget 1,000,000,000\n"
        assert (code, out, err) == (2, "", message)
        assert peak < 1_000_000

    @pytest.mark.parametrize("family", ["antisym", "sym"])
    @pytest.mark.parametrize("max_n", [75, 10**20, 10**40])
    def test_exchange_range_over_the_byte_budget(self, capsys, monkeypatch, family, max_n):
        # refused from the largest basis's 33 max_n^4 bytes, before any basis
        def no_basis(n):
            raise AssertionError(f"basis n={n} was built")

        monkeypatch.setattr("subent.verify.antisymmetric_subspace", no_basis)
        monkeypatch.setattr("subent.verify.symmetric_subspace", no_basis)
        argv = ["verify", "--family", family, "--max-n", str(max_n)]
        code, out, err, peak = traced_run(capsys, *argv)
        need = f"{33 * max_n**4:,}"
        message = f"input error: max_n={max_n} needs about {need} bytes, budget 1,000,000,000\n"
        assert (code, out, err) == (2, "", message)
        assert peak < 1_000_000

    @pytest.mark.parametrize("max_two_j", [1290, 10**20, 10**40])
    def test_spin_range_over_the_byte_budget(self, capsys, monkeypatch, max_two_j):
        # refused from the largest 2j's 150 (2 max_two_j + 2)^2 bytes, before
        # 2j = 1 runs
        def no_projector(s, branch):
            raise AssertionError(f"projector 2j={s.two_j} was built")

        monkeypatch.setattr("subent.verify.spin_projector", no_projector)
        argv = ["verify", "--family", "spin", "--max-two-j", str(max_two_j)]
        start = time.perf_counter()
        code, out, err, peak = traced_run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        need = f"{150 * (2 * max_two_j + 2) ** 2:,}"
        message = f"input error: max_two_j={max_two_j} needs about {need} bytes, budget 1,000,000,000\n"
        assert (code, out, err) == (2, "", message)
        assert peak < 1_000_000

    def test_spin_range_is_read(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "spin", "--max-two-j", "3")
        assert code == 0
        assert "checks=21" in out

    def test_failed_check_is_exit_1(self, capsys, monkeypatch):
        # at a tolerance of 0 a computed string off its closed form by any
        # rounding fails; sym n=1 is exact
        monkeypatch.setattr("subent.verify.STRING_TOL", 0.0)
        code, out, err = run(capsys, "verify", "--family", "sym", "--max-n", "2")
        assert (code, err) == (1, "")
        head, *fails = out.splitlines()
        assert head.startswith("sym       FAIL  checks=4    max deviation=")
        assert fails
        for line in fails:
            assert line.startswith("  FAIL sym n=2 string: deviation ")
            assert line.endswith(" exceeds tolerance 0.000e+00")

    def test_max_n_zero_is_not_the_default(self, capsys):
        code, out, err = run(capsys, "verify", "--max-n", "0")
        assert code == 2
        assert out == ""
        assert "max_n must be an integer >= 2, got 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "antisym:3", "sym:2", "--tol", "nan"],
        ["compare", "antisym:3", "antisym:3", "--tol", "-1"],
        ["compare", "antisym:3", "sym:2", "--tol", "inf"],
        ["compare", "antisym:3", "sym:2", "--zero-threshold", "nan"],
        ["schmidt", "--preset", "antisym", "--n", "3", "--zero-threshold", "nan"],
        ["schmidt", "--preset", "antisym", "--n", "3", "--zero-threshold", "-1"],
        ["schmidt", "--preset", "antisym", "--n", "3", "--zero-threshold", "inf"],
    ],
)
def test_bad_tolerance_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be finite and >= 0" in err


class TestExitCodes:
    def test_numerical_error_is_exit_3(self, capsys, monkeypatch):
        def boom(projector, zero_threshold=0.0):
            raise NumericalError("synthetic accuracy loss")

        monkeypatch.setattr(cli_module, "schmidt_string", boom)
        code, _, err = run(
            capsys, "schmidt", "--preset", "antisym", "--n", "2"
        )
        assert code == 3
        assert "numerical error: synthetic accuracy loss" in err

    @pytest.mark.parametrize(
        "ascending, message",
        [
            ([0.0, 0.0, 0.2, 0.7], "eigenvalue sum"),
            ([-0.2, 0.0, 0.0, 1.2], "clamping floor"),
        ],
    )
    def test_faulty_eigensolver_is_exit_3(
        self, capsys, monkeypatch, ascending, message
    ):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: np.array(ascending))
        code, out, err = run(capsys, "schmidt", "--preset", "antisym", "--n", "2")
        assert code == 3
        assert out == ""
        assert message in err

    def test_faulty_blockwise_eigensolver_is_exit_3(self, capsys, monkeypatch):
        # the antisym n=3 Gram has blocks of sizes 1 and 3, solved as two
        # stacks; each stack losing a tenth of its weight trips the sum gate
        original = np.linalg.eigvalsh
        stacks = []

        def lossy(h):
            stacks.append(h.shape)
            return 0.9 * original(h)

        monkeypatch.setattr(np.linalg, "eigvalsh", lossy)
        code, out, err = run(capsys, "schmidt", "--preset", "antisym", "--n", "3")
        assert code == 3
        assert out == ""
        assert "eigenvalue sum" in err
        assert stacks == [(6, 1, 1), (1, 3, 3)]

    def test_unit_norm_defect_prints_no_string(self, capsys, monkeypatch, tmp_path):
        # 2*I in 2x2 infers dim 8, and 2*I / sqrt(8) has norm sqrt(2)
        from subent import ProjectorReport, spaces

        two_eye = [[[2.0 if i == k else 0.0, 0.0] for k in range(4)] for i in range(4)]
        path = write_doc(tmp_path, "p.json", {"d1": 2, "d2": 2, "projector": two_eye})
        code, out, err = run(capsys, "schmidt", path)
        assert code == 2
        assert out == ""
        assert "norm defect=4.142e-01" in err
        # a validator that lets it through, with the dim its trace rounds
        # to, still gets no string printed
        monkeypatch.setattr(
            spaces,
            "validate_projector",
            lambda m, dim=None: ProjectorReport(0.0, 0.0, 0.0, 8, True, 0.0),
        )
        code, out, err = run(capsys, "schmidt", path)
        assert code != 0
        assert out == ""

    def test_norm_defect_within_entrywise_tolerances_is_exit_2(
        self, capsys, tmp_path
    ):
        m = off_norm_projector()
        pairs = np.stack([m.real, m.imag], axis=-1).tolist()
        path = write_doc(tmp_path, "p.json", {"d1": 10, "d2": 10, "projector": pairs})
        code, out, err = run(capsys, "schmidt", path)
        assert code == 2
        assert out == ""
        assert "norm defect=5.000e-09" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # each over the byte budget, so refused from n alone before
            # anything is allocated, up to shapes numpy cannot represent
            ["schmidt", "--preset", "antisym", "--n", "3000"],
            ["compare", "antisym:3000", "sym:2"],
            ["schmidt", "--preset", "sym", "--n", "99999999999"],
            ["schmidt", "--preset", "antisym", "--n", "4000000000"],
            ["compare", "sym:99999999999", "sym:2"],
        ],
    )
    def test_size_that_cannot_fit_is_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["schmidt", "--preset", "antisym", "--n", "3000"],
                "n=3000 needs about 3,600,000,000 bytes, budget 1,000,000,000",
            ),
            (
                ["schmidt", "--preset", "sym", "--n", "1582"],
                "n=1582 needs about 1,001,089,600 bytes, budget 1,000,000,000",
            ),
            (
                ["compare", "sym:2", "antisym:1582"],
                "n=1582 needs about 1,001,089,600 bytes, budget 1,000,000,000",
            ),
        ],
    )
    def test_exchange_preset_over_the_byte_budget(self, capsys, argv, message):
        # refused from n alone, before anything near the budget is allocated
        code, out, err, peak = traced_run(capsys, *argv)
        assert (code, out, err) == (2, "", f"input error: {message}\n")
        assert peak < 1_000_000

    @pytest.mark.parametrize("two_j", [10**15, 10**40])
    @pytest.mark.parametrize("schmidt", [True, False])
    def test_spin_preset_over_the_byte_budget(self, capsys, two_j, schmidt):
        # refused from 2j alone, before numpy is asked for its arrays
        if schmidt:
            argv = ["schmidt", "--preset", "spin", "--two-j", str(two_j), "--branch", "plus"]
        else:
            argv = ["compare", "sym:2", f"spin:{two_j}:minus"]
        code, out, err, peak = traced_run(capsys, *argv)
        need = f"{720 * (two_j + 1):,}"
        message = f"input error: 2j={two_j} needs about {need} bytes, budget 1,000,000,000\n"
        assert (code, out, err) == (2, "", message)
        assert peak < 1_000_000

    @pytest.mark.parametrize("command", ["schmidt", "compare"])
    @pytest.mark.parametrize("d1, d2", [(1, 3923), (63, 63)])
    def test_basis_document_over_the_byte_budget(self, capsys, tmp_path, command, d1, d2):
        # 65 (d1 d2)^2 estimated bytes for the projector: d1 d2 = 3922 is
        # within BYTE_BUDGET, 3923 not.  Refused once the document is read,
        # before the vectors are orthonormalized
        assert 65 * 3922**2 <= BYTE_BUDGET < 65 * 3923**2
        vector = [[1.0, 0.0]] + [[0.0, 0.0]] * (d1 * d2 - 1)
        path = write_doc(tmp_path, "big.json", {"d1": d1, "d2": d2, "basis": [vector]})
        argv = [command, path] if command == "schmidt" else [command, "sym:2", path]
        code, out, err, peak = traced_run(capsys, *argv)
        need = f"{65 * (d1 * d2) ** 2:,}"
        message = f"input error: d1={d1}, d2={d2} needs about {need} bytes, budget 1,000,000,000\n"
        assert (code, out, err) == (2, "", message)
        assert peak < 1_000_000

    @pytest.mark.parametrize("command", ["schmidt", "compare"])
    @pytest.mark.parametrize("size", [250_000_001, 10**12])
    def test_document_over_the_byte_budget(self, capsys, tmp_path, command, size):
        # 4 estimated bytes per byte of file before it is read: 250,000,000
        # bytes is within BYTE_BUDGET, 250,000,001 not.  A sparse file is
        # refused unread
        assert 4 * 250_000_000 <= BYTE_BUDGET < 4 * 250_000_001
        path = tmp_path / "sparse.json"
        with open(path, "wb") as fh:
            fh.truncate(size)
        argv = [command, str(path)] if command == "schmidt" else [command, "sym:2", str(path)]
        code, out, err, peak = traced_run(capsys, *argv)
        message = f"input error: {path} needs about {4 * size:,} bytes, budget 1,000,000,000\n"
        assert (code, out, err) == (2, "", message)
        assert peak < 1_000_000

    @pytest.mark.parametrize("command", ["schmidt", "compare"])
    def test_document_charged_by_its_syntax_once_read(
        self, capsys, tmp_path, monkeypatch, command
    ):
        # once read, a document is charged 4 bytes per byte and, per byte
        # of its syntax, 96 per `[`, 56 per `{`, 30 per `,`, 80 per `:`, 14
        # per quote and 144 per backslash: a `dumps_json` projector document
        # runs in a budget of exactly its charge, two thirds of the 80 per
        # byte of syntax it was once charged, and is refused in one less
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        p = spaces.Projector(spaces.Factorization(2, 3), q @ q.conj().T, 3)
        text = dumps_json(projector_document(p, label="[[["))
        path = tmp_path / "projector.json"
        path.write_text(text)
        rates = {"[": 96, "{": 56, ",": 30, ":": 80, '"': 14, "\\": 144}
        charge = 4 * len(text) + sum(rate * text.count(c) for c, rate in rates.items())
        assert 3 * charge < 2 * (80 * sum(map(text.count, '"\\/bfnrtu[{]},:')) + 4 * len(text))
        argv = [command, str(path)] if command == "schmidt" else [command, "sym:2", str(path)]
        monkeypatch.setattr(tolerances, "BYTE_BUDGET", charge)
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(tolerances, "BYTE_BUDGET", charge - 1)
        code, out, err = run(capsys, *argv)
        message = f"input error: {path} needs about {charge:,} bytes, budget {charge - 1:,}\n"
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize(
        "value",
        [
            "[" + ", ".join(["0.5"] * 20_000) + "]",
            "[" + ",".join(["{}"] * 20_000) + "]",
            "[" + ",".join(['{"a": 1}'] * 20_000) + "]",
            "{" + ",".join(f'"k{i}": 0' for i in range(20_000)) + "}",
            '"' + "\\n" * 20_000 + '"',
            '"' + "bfnrtu" * 4_000 + '"',
            '"' + "a" * 80_000 + '\\ud83d\\ude00"',
            '"' + "\U0001F600" * 20_000 + '"',
        ],
        ids=[
            "numbers", "empty-objects", "objects", "keys", "escapes", "letters",
            "ascii-astral", "astral",
        ],
    )
    def test_document_charged_over_what_reading_it_takes(
        self, capsys, tmp_path, monkeypatch, value
    ):
        # whatever a document holds, its charge once read is over the traced
        # peak of the op that reads and refuses it: in a budget of that peak
        # it is refused, with exit 2, before it is decoded
        path = tmp_path / "doc.json"
        path.write_text('{"d1": 2, "d2": 2, "projector": ' + value + "}", encoding="utf-8")
        code, out, err, peak = traced_run(capsys, "schmidt", str(path))
        assert (code, out) == (2, "") and "needs about" not in err
        monkeypatch.setattr(tolerances, "BYTE_BUDGET", peak)
        code, out, err = run(capsys, "schmidt", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: {path} needs about ")

    def test_allocation_that_fails_is_exit_2(self, capsys, monkeypatch):
        # numpy's message names the allocation that failed
        def no_room(projector, zero_threshold=0.0):
            raise MemoryError("Unable to allocate 7.11 PiB for an array")

        monkeypatch.setattr(cli_module, "schmidt_string", no_room)
        code, out, err = run(capsys, "schmidt", "--preset", "sym", "--n", "2")
        assert (code, out) == (2, "")
        assert err == "input error: Unable to allocate 7.11 PiB for an array\n"

        def no_memory(projector, zero_threshold=0.0):
            raise MemoryError

        monkeypatch.setattr(cli_module, "schmidt_string", no_memory)
        code, out, err = run(capsys, "schmidt", "--preset", "sym", "--n", "2")
        assert (code, out, err) == (2, "", "input error: out of memory\n")

    def test_keyboard_interrupt_is_exit_130(self, capsys, monkeypatch):
        # click turns an interrupt inside a subcommand into Abort
        def interrupted(projector, zero_threshold=0.0):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "schmidt_string", interrupted)
        code, out, err = run(capsys, "schmidt", "--preset", "sym", "--n", "2")
        assert (code, out) == (130, "")
        assert err.splitlines()[-1] == "aborted"

    def test_no_args_shows_usage(self, capsys):
        # a bare invocation is treated as invalid input
        code, _, err = run(capsys)
        assert code == 2
        assert "Usage" in err

    def test_help_flag(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "schmidt" in out
        assert "compare" in out

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2


def _nested_label_doc(tmp_path, depth: int) -> str:
    path = tmp_path / "deep.json"
    label = "[" * depth + "]" * depth
    path.write_text(f'{{"label": {label}, "d1": 1, "d2": 1, "basis": [[[1, 0]]]}}')
    return str(path)


def _module_env() -> dict:
    """The environment that runs `python -m subent.cli` on this checkout."""
    src = str(Path(cli_module.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return {**os.environ, "PYTHONPATH": path}


def test_document_nested_past_the_recursion_limit(capsys, tmp_path):
    # json raises RecursionError past about 1,000 levels: invalid input
    path = _nested_label_doc(tmp_path, 1_100)
    code, out, err = run(capsys, "schmidt", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: {path} is not valid JSON: maximum recursion depth")


def test_document_nested_200000_deep():
    # orjson 3.8 segfaults on text this deep, so the depth guard keeps it
    # from orjson; in a subprocess, a crash fails this test alone
    with tempfile.TemporaryDirectory() as tmp:
        path = _nested_label_doc(Path(tmp), 200_000)
        done = subprocess.run(
            [sys.executable, "-m", "subent.cli", "schmidt", path],
            capture_output=True,
            text=True,
            env=_module_env(),
            timeout=120,
        )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(
        f"input error: {path} is not valid JSON: maximum recursion depth"
    )


def test_module_entry_point_runs_verify():
    # `python -m subent.cli` goes through `entry`, as the installed script does
    done = subprocess.run(
        [sys.executable, "-m", "subent.cli", "verify"],
        capture_output=True,
        text=True,
        env=_module_env(),
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [
        [family, "pass"] for family in ("antisym", "sym", "spin", "hydrogen")
    ]
