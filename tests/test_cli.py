import json
import math
from pathlib import Path

import numpy as np
import pytest

from subent import NumericalError
from subent.cli import main

from .helpers import off_norm_projector
from subent import cli as cli_module

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    ],
)
def test_golden_output(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / name).read_bytes().decode("utf-8")


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

    def test_spin_range_is_read(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "spin", "--max-two-j", "3")
        assert code == 0
        assert "checks=21" in out

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
        # a validator that lets it through still gets no string printed
        monkeypatch.setattr(
            spaces,
            "validate_projector",
            lambda m, dim=None: ProjectorReport(0.0, 0.0, 0.0, int(dim), True, 0.0),
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
            # 589 TiB for the basis alone, beyond any 128 TiB address space,
            # so the allocation fails before it touches memory
            ["schmidt", "--preset", "antisym", "--n", "3000"],
            ["compare", "antisym:3000", "sym:2"],
        ],
    )
    def test_size_that_cannot_fit_is_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1

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
