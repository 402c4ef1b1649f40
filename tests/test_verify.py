import pytest

from harmap import verify
from harmap.classes import ClassId, ClassName, MembershipResult, sample_member
from harmap.verify import SuiteReport, _Recorder, run_suite, suite_ids


class TestCounted:
    def test_counts_failures_and_keeps_first_witness(self):
        rec = _Recorder(".")
        rec.counted("odd items pass", range(6), lambda k: None if k % 2 else f"item {k}")
        (check,) = rec.checks
        assert not check.passed
        assert check.measured == "3 (first: item 0)"
        assert check.expected == "0"

    def test_all_passing(self):
        rec = _Recorder(".")
        rec.counted("everything passes", iter(range(4)), lambda k: None)
        (check,) = rec.checks
        assert check.passed
        assert check.measured == "0"

    def test_empty_witness_counts_as_failure(self):
        rec = _Recorder(".")
        rec.counted("no witness text", [1, 2], lambda k: "")
        assert rec.checks[0].measured == "2 (first: )"


class TestDraws:
    def test_members_and_pairs_equal_fresh_draws(self):
        rec = _Recorder(".")
        cid = ClassId(ClassName.R_H0)
        drawn = list(rec.members(cid, 5, 3, order=16)) + [f for pair in rec.pairs(cid, 5, 2) for f in pair]
        seeds_orders = [(5, 16), (6, 16), (7, 16), (5, 64), (6, 64), (7, 64), (8, 64)]
        for f, (seed, order) in zip(drawn, seeds_orders, strict=True):
            fresh = sample_member(cid, seed, order)
            assert f.h.coeffs.tobytes() == fresh.h.coeffs.tobytes()
            assert f.g.coeffs.tobytes() == fresh.g.coeffs.tobytes()

    def test_relative_suite_twice_gives_identical_lines(self, tmp_path, monkeypatch):
        # T4.7 draws the same seeds under three reference maps
        monkeypatch.setattr(verify, "RADIUS_MEMBERS", 4)
        first, second = (run_suite("T4.7", 42, tmp_path) for _ in range(2))
        assert first.passed
        assert first.lines() == second.lines()


class TestRunSuite:
    @pytest.mark.parametrize("suite_id", ["T2.12", "T3.10", "T2.16", "FIG1", "FIG2"])
    def test_repeatable_and_passing(self, suite_id, tmp_path):
        runs = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            runs.append(run_suite(suite_id, 42, tmp_path / name))
        assert runs[0].passed
        assert runs[0].lines() == runs[1].lines()

    @pytest.mark.parametrize("which", ["FIG1", "FIG2"])
    def test_figures_written_to_out_dir(self, which, tmp_path):
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            run_suite(which, 42, tmp_path / name)
        svg = f"{which.lower()}.svg"
        assert (tmp_path / "a" / svg).read_bytes() == (tmp_path / "b" / svg).read_bytes()
        assert (tmp_path / "a" / svg).read_bytes().startswith(b"<?xml")

    def test_envelope_suite_passes(self, monkeypatch):
        # T2.6 evaluates its three circles at once and checks each slice
        # against that radius's envelope
        monkeypatch.setattr(verify, "CLASS_SAMPLES", 20)
        report = run_suite("T2.6")
        assert report.passed
        assert report.lines()[-1].endswith("measured=0 | tol=0 | PASS")

    def test_run_all_calls_the_module_run_suite(self, monkeypatch):
        # the benchmark times each suite by replacing verify.run_suite
        calls = []

        def fake_suite(suite_id, seed, out_dir):
            calls.append((suite_id, seed, out_dir))
            return SuiteReport(suite_id, seed)

        monkeypatch.setattr(verify, "run_suite", fake_suite)
        reports = verify.run_all(7, "OUT")
        assert calls == [(suite_id, 7, "OUT") for suite_id in suite_ids()]
        assert [r.suite_id for r in reports] == list(suite_ids())

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("T9.99")

    def test_suite_ids_in_report_order(self):
        assert suite_ids() == (
            "T2.5",
            "T2.6",
            "T2.9",
            "T2.11",
            "T2.12",
            "R2.14",
            "T2.16",
            "T3.3",
            "T3.5",
            "T3.7-C3.8",
            "T3.9",
            "T3.10",
            "D4.1-C4.5",
            "FIG1",
            "FIG2",
            "T4.7",
            "T4.8",
        )


class TestMembershipWitnesses:
    @pytest.mark.parametrize(
        "suite_id, description, count",
        [
            ("T3.10", "real-coefficient generator accepted", 100),
            ("T4.7", "relative class membership holds", 10),
            ("T4.8", "relative class membership holds", 10),
        ],
    )
    def test_rejected_members_are_named(self, suite_id, description, count, monkeypatch):
        monkeypatch.setattr(verify, "RADIUS_MEMBERS", 10)
        monkeypatch.setattr(verify, "membership", lambda f, cid: MembershipResult(False, -0.25, 0, "rejected"))
        checks = [c for c in run_suite(suite_id).checks if c.description.startswith(description)]
        assert checks
        for check in checks:
            assert not check.passed
            assert check.measured.startswith(f"{count} (first: h[:4]=")
            assert check.measured.endswith("margin=-2.500e-01)")

    def test_t3_9_rejections_name_the_margin(self, monkeypatch):
        monkeypatch.setattr(verify, "PAIR_SAMPLES", 3)
        monkeypatch.setattr(verify, "RADIUS_MEMBERS", 3)
        monkeypatch.setattr(verify, "membership", lambda f, cid: MembershipResult(False, -0.25, 0, "rejected"))
        report = run_suite("T3.9")
        counted = [c for c in report.checks if "lands in" in c.description or "kernel" in c.description]
        assert len(counted) == 4
        for check in counted:
            assert not check.passed
            assert check.measured.endswith("margin=-2.500e-01)")
