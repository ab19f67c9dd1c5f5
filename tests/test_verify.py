import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from subent import (
    Branch,
    Check,
    FamilyReport,
    InputError,
    hermitian_eigenvalues,
    hydrogen_chain_expected,
    spin_projector,
    spin_x_operator,
    verify_antisym,
    verify_hydrogen,
    verify_spin,
    verify_sym,
)
from subent import schmidt
from subent import verify as verify_module
from subent.spaces import _entries_of

from .helpers import verify_hydrogen_reference


# sha256 of each sweep's checks, one `repr` a line: the deviations at full
# precision, so a change that moves any last bit of a check shows
CHECK_PINS = [
    line.split(maxsplit=1)
    for line in (Path(__file__).parent / "golden" / "verify_checks_sha256.txt")
    .read_text()
    .splitlines()
]


@pytest.mark.parametrize("digest, call", CHECK_PINS, ids=[c for _, c in CHECK_PINS])
def test_check_reprs_sha256(digest, call):
    name, args = call.rstrip(")").split("(")
    report = getattr(verify_module, name)(*(int(a) for a in args.split(", ") if a))
    text = "\n".join(repr(c) for c in report.checks)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestCheck:
    def test_ok_boundary(self):
        assert Check("x", 1e-10, 1e-10).ok
        assert not Check("x", 1.1e-10, 1e-10).ok

    def test_report_helpers(self):
        good = Check("a", 1e-12, 1e-9)
        bad = Check("b", 1e-3, 1e-9)
        report = FamilyReport(family="demo", checks=(good, bad))
        assert not report.passed
        assert report.worst.deviation == 1e-3
        assert report.worst is bad
        assert report.failures() == (bad,)
        assert FamilyReport(family="demo", checks=(good,)).passed


class TestFamilies:
    def test_antisym_small(self):
        report = verify_antisym(max_n=6)
        assert report.family == "antisym"
        assert report.passed, report.failures()
        # one string and one measure check per n
        assert len(report.checks) == 2 * 5
        assert report.worst.deviation < 1e-9

    def test_sym_small(self):
        report = verify_sym(max_n=6)
        assert report.passed, report.failures()
        assert len(report.checks) == 2 * 6

    def test_spin_small(self):
        report = verify_spin(max_two_j=8)
        assert report.passed, report.failures()
        # per two_j: 2 strings + 2 measures + Q + spectrum + completeness
        assert len(report.checks) == 7 * 8
        names = [c.name for c in report.checks]
        assert "spin 2j=1 Q matrix" in names
        assert "spin 2j=8 completeness" in names

    def test_hydrogen_small(self):
        report = verify_hydrogen(max_n=4)
        assert report.passed, report.failures()
        # per n: 2n-1 entry strings + 1 chain check
        assert len(report.checks) == sum(2 * n for n in range(1, 5))

    def test_hydrogen_runs_each_eigenspace_once(self, monkeypatch):
        want = verify_hydrogen_reference(8)
        batches = []

        def counted(items, *args, **kwargs):
            batches.append(list(items))
            return schmidt._spectra(batches[-1], *args, **kwargs)

        monkeypatch.setattr(verify_module, "_spectra", counted)
        assert verify_hydrogen(max_n=8).checks == want
        # one batch: l = 0, and both branches of l = 1..7
        assert [len(b) for b in batches] == [15]

    @pytest.mark.parametrize(
        "sweep", [verify_antisym, verify_sym, verify_spin, verify_hydrogen]
    )
    def test_default_range_is_one_chunk(self, monkeypatch, sweep):
        chunks = []
        original = schmidt._chunk

        def counted(items, zero_threshold):
            chunks.append(len(items))
            return original(items, zero_threshold)

        monkeypatch.setattr(schmidt, "_chunk", counted)
        assert sweep().passed
        assert len(chunks) == 1

    def test_spin_sweep_keeps_no_dense_copy(self, monkeypatch):
        built = []

        def collected(s, branch):
            built.append(spin_projector(s, branch))
            return built[-1]

        monkeypatch.setattr(verify_module, "spin_projector", collected)
        assert verify_spin(max_two_j=12).passed
        assert len(built) == 24
        assert not any("matrix" in vars(p) for p in built)

    @pytest.mark.parametrize("two_j", [1, 2, 7, 20, 41])
    def test_completeness_from_entries_is_the_dense_defect(self, two_j):
        plus = spin_projector(two_j, Branch.PLUS)
        minus = spin_projector(two_j, Branch.MINUS)
        eye = np.eye(plus.matrix.shape[0])
        dense = float(np.max(np.abs(plus.matrix + minus.matrix - eye)))
        assert verify_module._completeness(plus, minus) == dense

    @pytest.mark.parametrize("two_j", [1, 5, 10, 20, 100])
    def test_x_spectrum_from_blocks_is_the_dense_one(self, two_j):
        # X's 1 x 1 and 2 x 2 blocks give the dense solve's spectrum, bit
        # for bit, which keeps the pinned X spectrum deviations
        x = spin_x_operator(two_j)
        (w,) = schmidt._spectra([_entries_of(x.shape[0], x.ravel())])
        assert np.array_equal(w, hermitian_eigenvalues(x))

    def test_range_validation(self):
        with pytest.raises(InputError):
            verify_antisym(max_n=1)
        with pytest.raises(InputError):
            verify_sym(max_n=0)
        with pytest.raises(InputError):
            verify_spin(max_two_j=0)
        with pytest.raises(InputError):
            verify_hydrogen(max_n=0)

    @pytest.mark.parametrize("max_n", [1962, 7906, 10**20, 10**40])
    def test_hydrogen_range_over_the_byte_budget(self, monkeypatch, max_n):
        # refused from the whole sweep's 65 (2 max_n)^2 bytes, before level 1
        def no_level(n):
            raise AssertionError(f"level {n} was built")

        monkeypatch.setattr(verify_module, "hydrogen_level", no_level)
        tracemalloc.start()
        try:
            with pytest.raises(InputError) as info:
                verify_hydrogen(max_n=max_n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        need = 65 * (2 * max_n) ** 2
        assert str(info.value) == (
            f"max_n={max_n} needs about {need:,} bytes, budget 1,000,000,000"
        )
        assert peak < 1_000_000

    def test_hydrogen_range_within_the_byte_budget_runs(self, monkeypatch):
        # 1961 is the largest max_n within BYTE_BUDGET, so its sweep starts
        # with the eigenspaces: the doublet, then 2j = 2
        def first_projector(s, branch):
            raise LookupError(f"2j={s.two_j} {branch.value}")

        monkeypatch.setattr(verify_module, "spin_projector", first_projector)
        with pytest.raises(LookupError, match="^2j=2 plus$"):
            verify_hydrogen(max_n=1961)
        with pytest.raises(InputError, match="^max_n=1962 needs about "):
            verify_hydrogen(max_n=1962)

    def test_hydrogen_sweep_peaks_under_its_estimate(self):
        # the whole sweep, eigenspaces, levels and checks: 57.8 traced bytes
        # per (2 max_n)^2 measured at max_n = 200
        tracemalloc.start()
        try:
            report = verify_hydrogen(max_n=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 65 * (2 * 200) ** 2

    def test_spin_range_within_the_byte_budget_runs(self, monkeypatch):
        # 1289 is the largest max_two_j within BYTE_BUDGET, so its sweep starts
        def first_projector(s, branch):
            raise LookupError(f"2j={s.two_j}")

        monkeypatch.setattr(verify_module, "spin_projector", first_projector)
        with pytest.raises(LookupError, match="^2j=1$"):
            verify_spin(max_two_j=1289)
        with pytest.raises(InputError, match="^max_two_j=1290 needs about "):
            verify_spin(max_two_j=1290)

    @pytest.mark.parametrize(
        "sweep, build, least",
        [
            (verify_antisym, "antisymmetric_subspace", 2),
            (verify_sym, "symmetric_subspace", 1),
        ],
    )
    def test_exchange_range_within_the_byte_budget_runs(
        self, monkeypatch, sweep, build, least
    ):
        # 74 is the largest max_n within BYTE_BUDGET, so its sweep starts
        def first_basis(n):
            raise LookupError(f"basis {n}")

        monkeypatch.setattr(verify_module, build, first_basis)
        with pytest.raises(LookupError, match=f"^basis {least}$"):
            sweep(max_n=74)
        with pytest.raises(InputError, match="^max_n=75 needs about "):
            sweep(max_n=75)

    def test_tightened_tolerance_fails(self, monkeypatch):
        # machine noise exceeds an absurd tolerance, proving checks are live
        monkeypatch.setattr("subent.verify.STRING_TOL", 0.0)
        report = verify_antisym(max_n=8)
        assert not report.passed
        assert report.failures()


class TestChainExpected:
    def test_n1(self):
        assert hydrogen_chain_expected(1) == ("V_1/2", "S_0")

    def test_n2(self):
        assert hydrogen_chain_expected(2) == ("V_1/2", "V_3/2", "S_0", "Vt_1/2")

    def test_n4(self):
        assert hydrogen_chain_expected(4) == (
            "V_1/2",
            "V_3/2",
            "V_5/2",
            "V_7/2",
            "S_0",
            "Vt_5/2",
            "Vt_3/2",
            "Vt_1/2",
        )

    def test_counts(self):
        for n in range(1, 9):
            assert len(hydrogen_chain_expected(n)) == 2 * n

    def test_domain(self):
        with pytest.raises(InputError):
            hydrogen_chain_expected(0)
