import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import harmap
from harmap import verify
from harmap.harmonic import tilde_convolve
from harmap.classes import ClassId, ClassName, MembershipResult, sample_member
from harmap.verify import SuiteReport, _Recorder, run_suite, suite_ids


class TestCounted:
    def test_counts_failures_and_keeps_first_witness(self):
        rec = _Recorder(".")
        rec.counted("odd items pass", (None if k % 2 else f"item {k}" for k in range(6)))
        (check,) = rec.checks
        assert not check.passed
        assert check.measured == "3 (first: item 0)"
        assert check.expected == "0"

    def test_all_passing(self):
        rec = _Recorder(".")
        rec.counted("everything passes", iter([None] * 4))
        (check,) = rec.checks
        assert check.passed
        assert check.measured == "0"

    def test_empty_witness_counts_as_failure(self):
        rec = _Recorder(".")
        rec.counted("no witness text", ["", ""])
        assert rec.checks[0].measured == "2 (first: )"


class TestDraws:
    def test_members_and_pairs_equal_fresh_draws(self):
        rec = _Recorder(".")
        cid = ClassId(ClassName.R_H0)
        drawn = [f for chunk in rec.members(cid, 5, 3, order=16) for f in chunk]
        drawn += [f for chunk in rec.pairs(cid, 5, 2) for pair in chunk for f in pair]
        seeds_orders = [(5, 16), (6, 16), (7, 16), (5, 64), (6, 64), (7, 64), (8, 64)]
        for f, (seed, order) in zip(drawn, seeds_orders, strict=True):
            fresh = sample_member(cid, seed, order)
            assert f.h.coeffs.tobytes() == fresh.h.coeffs.tobytes()
            assert f.g.coeffs.tobytes() == fresh.g.coeffs.tobytes()

    @pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 70])
    def test_members_come_in_chunks(self, count):
        # a sampled check holds one chunk of maps at a time; T2.12 splits a
        # chunk into 4-member groups
        assert verify.MEMBER_CHUNK % 4 == 0
        rec = _Recorder(".")
        chunks = list(rec.members(ClassId(ClassName.U_H0), 9, count, order=4))
        assert [len(chunk) for chunk in chunks[:-1]] == [verify.MEMBER_CHUNK] * (len(chunks) - 1)
        assert sum(map(len, chunks)) == count
        assert all(0 < len(chunk) <= verify.MEMBER_CHUNK for chunk in chunks)
        pairs = list(rec.pairs(ClassId(ClassName.U_H0), 9, count))
        assert sum(map(len, pairs)) == count
        assert all(0 < len(chunk) <= verify.MEMBER_CHUNK // 2 for chunk in pairs)

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


#: (suite, description, member count) of every counted check that certifies
#: membership, at CLASS_SAMPLES = 8, PAIR_SAMPLES = 4 and RADIUS_MEMBERS = 10
MEMBERSHIP_CHECKS = [
    ("T2.11", "closed under the product with the convex strip kernel", 8),
    ("T2.12", "convex combinations of members stay inside", 2),
    ("T3.3", "generator always passes membership", 8),
    ("T3.3", "second-part rotations stay in the class", 100),
    ("T3.5", "class closed under convolution", 2),
    ("T3.5", "closed under product with", 4),
    ("T3.7-C3.8", "per-part coefficient bounds", 8),
    ("T3.9", "lands in", 4),
    ("T3.9", "convex kernel preserves both classes", 8),
    ("T3.10", "real-coefficient generator accepted", 100),
    ("D4.1-C4.5", "operator lands R_H0 in W_H0 and U_H0 in V_H0", 8),
    ("T4.7", "relative class membership holds", 10),
    ("T4.8", "relative class membership holds", 10),
]


class TestMembershipWitnesses:
    @pytest.mark.parametrize("suite_id, description, count", MEMBERSHIP_CHECKS)
    def test_rejected_members_are_named(self, suite_id, description, count, monkeypatch):
        # every counted membership check certifies through verify.memberships,
        # so rejecting there fails each with its full member count, and fails
        # nothing else
        monkeypatch.setattr(verify, "CLASS_SAMPLES", 8)
        monkeypatch.setattr(verify, "PAIR_SAMPLES", 4)
        monkeypatch.setattr(verify, "RADIUS_MEMBERS", 10)
        monkeypatch.setattr(
            verify, "memberships", lambda fs, cid: [MembershipResult(False, -0.25, 0, "rejected") for _ in fs]
        )
        report = run_suite(suite_id)
        known = [d for s, d, _ in MEMBERSHIP_CHECKS if s == suite_id]
        assert all(any(d in c.description for d in known) for c in report.checks if not c.passed)
        checks = [c for c in report.checks if description in c.description]
        assert checks
        for check in checks:
            assert not check.passed
            assert check.measured.startswith(f"{count} (first: h[:4]=")
            assert check.measured.endswith("margin=-2.500e-01)")


class TestClosureKernels:
    def test_each_closure_kernel_changes_a_drawn_member(self, tmp_path, monkeypatch):
        # the [exact] identity check of T2.11 applies the all-ones series to
        # one map on purpose; every kernel applied to several maps is a
        # closure kernel, and one that changes no member tests nothing
        monkeypatch.setattr(verify, "CLASS_SAMPLES", 8)
        monkeypatch.setattr(verify, "PAIR_SAMPLES", 8)
        monkeypatch.setattr(verify, "RADIUS_MEMBERS", 2)
        uses, changed = {}, {}

        def recording(phi, f):
            out = tilde_convolve(phi, f)
            key = phi.coeffs.tobytes()
            uses[key] = uses.get(key, 0) + 1
            moved = not (np.array_equal(out.h.coeffs, f.h.coeffs) and np.array_equal(out.g.coeffs, f.g.coeffs))
            changed[key] = changed.get(key, False) or moved
            return out

        monkeypatch.setattr(verify, "tilde_convolve", recording)
        for suite_id in ("T2.11", "T3.5", "T3.9"):
            assert run_suite(suite_id, 42, tmp_path).passed
        kernels = [key for key, count in uses.items() if count > 1]
        assert len(kernels) >= 3
        assert all(changed[key] for key in kernels)


class TestQuarticRoot:
    def test_t4_8_root_agrees_with_brentq(self, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, "RADIUS_MEMBERS", 2)
        floors = {}
        relative_floors = verify._relative_floors

        def recording(rec, seed, name, floor, configs):
            floors.update((label, bound) for label, _, bound in configs)
            relative_floors(rec, seed, name, floor, configs)

        monkeypatch.setattr(verify, "_relative_floors", recording)
        assert run_suite("T4.8", 42, tmp_path).passed
        root = floors["Re G' > 1/2 reference"]
        p = partial(np.polyval, (1.0, 2.0, 13.0, 4.0, -4.0))
        assert abs(root - brentq(p, 0.0, 1.0, xtol=1e-15)) <= 1e-15
        assert p(root - 1e-15) < 0.0 < p(root + 1e-15)


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports harmap from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(harmap.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)


def test_import_loads_no_scipy():
    code = (
        "import sys, harmap\n"
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n"
        "import harmap.cli\n"
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))\n"
    )
    out = _python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n") == ["[]", "[]", ""]


def test_suites_reaching_the_dilogarithm_run_with_scipy_blocked(tmp_path):
    # an import of scipy or any scipy.* module raises ImportError here
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from harmap.cli import main\n"
        "for suite in ('T2.5', 'T2.6', 'T3.5', 'D4.1-C4.5'):\n"
        "    code = main(['verify', '--suite', suite, '--seed', '42', '--out-dir', sys.argv[1]])\n"
        "    if code:\n"
        "        sys.exit(f'{suite}: exit {code}')\n"
    )
    out = _python(code, str(tmp_path))
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.count("overall: PASS") == 4
