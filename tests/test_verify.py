import pytest

from subent import (
    Check,
    FamilyReport,
    InputError,
    hydrogen_chain_expected,
    verify_antisym,
    verify_hydrogen,
    verify_spin,
    verify_sym,
)


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

    def test_range_validation(self):
        with pytest.raises(InputError):
            verify_antisym(max_n=1)
        with pytest.raises(InputError):
            verify_sym(max_n=0)
        with pytest.raises(InputError):
            verify_spin(max_two_j=0)
        with pytest.raises(InputError):
            verify_hydrogen(max_n=0)

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
