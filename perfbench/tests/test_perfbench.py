"""Tests of the benchmark itself: output contract, oracles, traced counts.

Run with ``python3 -m pytest perfbench/tests``.  The workload runs use
each workload's smallest size (one pass); the verify-all ones take about
two minutes in all.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from harmap import (  # noqa: E402
    ClassId,
    ClassName,
    GeometryReport,
    HarmonicMap,
    MembershipResult,
    RadiusEstimate,
    SuiteReport,
)
from harmap.verify import CheckResult  # noqa: E402

from perfbench import calibrate, oracles  # noqa: E402
from perfbench.workloads import Op, PassResult, Stream, known_answer_map  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRIC_LINE = re.compile(r"^(\S+) = (\S+) (\S+)")


def run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path | None = None):
    script = script or ROOT / "perfbench" / "run.py"
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def printed_metrics(stdout: str) -> dict[str, str]:
    return {m.group(1): m.group(3) for m in map(METRIC_LINE.match, stdout.splitlines()) if m}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in record["metrics"].values())
    printed = printed_metrics(proc.stdout)
    for name, unit in {**expected, "fail_ratio": "ratio", "setup.build_s": "s"}.items():
        assert printed.get(name) == unit, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = [run_bench(workload, 1) for _ in range(2)]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = []
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout.splitlines()[-1])
        assert record["correct"], proc.stdout
        assert {k: v["unit"] for k, v in record["metrics"].items()} == expected
        assert printed_metrics(proc.stdout).items() >= expected.items()
        counts.append({k: v["value"] for k, v in record["metrics"].items()
                       if v["unit"] != "s" and not k.startswith("trace.overhead")})
    assert counts[0] == counts[1]
    assert counts[0]["trace.spans"] > 0


def test_refuses_to_run_without_harmap_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("classify-stream", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ----------------------------------------------------------------- oracles

@pytest.mark.parametrize(
    "closed_form, r",
    [
        (oracles.koebe_starlike, 0.95),
        (oracles.half_plane_convex, 0.99),
        (oracles.half_plane_starlike, 0.9),
        (oracles.koebe_convex, 0.98),
    ],
)
def test_margin_oracle_rejects_a_wrong_margin(closed_form, r):
    right = closed_form(r)
    assert oracles.check_margin(GeometryReport("convex", r, right, 0.0), right) is None
    wrong = right + 2e-9 * max(1.0, abs(right))
    assert oracles.check_margin(GeometryReport("convex", r, wrong, 0.0), right) is not None


def test_positive_margin_oracle_rejects_zero():
    assert oracles.check_positive_margin(GeometryReport("starlike", 0.9, 1e-3, 0.0)) is None
    assert oracles.check_positive_margin(GeometryReport("starlike", 0.9, 0.0, 0.0)) is not None


def test_bool_oracle_rejects_the_other_answer():
    assert oracles.check_bool(True, True) is None
    assert oracles.check_bool(True, False) is not None
    assert oracles.check_bool(False, True) is not None


def test_radius_oracles_reject_a_wrong_bracket():
    target = oracles.KOEBE_CONVEX_RADIUS
    tol = 1e-4
    good = RadiusEstimate("convex", target - tol / 2, target + tol, tol)
    assert oracles.check_radius_near(good, target) is None
    off = RadiusEstimate("convex", target + 2 * tol, target + 3 * tol, tol)
    assert oracles.check_radius_near(off, target) is not None

    floor = oracles.CONVEX_RADIUS_FLOOR["R_H0"]
    assert oracles.check_radius_at_least(RadiusEstimate("convex", 0.6, 0.6002, tol), floor) is None
    low = RadiusEstimate("convex", floor - 0.01, floor - 0.0098, tol)
    assert oracles.check_radius_at_least(low, floor) is not None


def test_member_oracle_rejects_a_rejection():
    assert oracles.check_member(MembershipResult(True, 0.2, 0.5 + 0j, "member")) is None
    assert oracles.check_member(MembershipResult(False, -0.1, 0.5 + 0j, "rejected")) is not None


@pytest.mark.parametrize("expected", [0.3, 5e-10, -0.2])
def test_known_margin_oracle_rejects_margin_status_and_verdict(expected):
    status = oracles.expected_status(expected)
    member = status != "rejected"
    assert oracles.check_known_margin(MembershipResult(member, expected, 0j, status), expected) is None
    wrong_margin = MembershipResult(member, expected + 1e-11, 0j, status)
    assert oracles.check_known_margin(wrong_margin, expected) is not None
    other = "rejected" if status != "rejected" else "member"
    assert oracles.check_known_margin(MembershipResult(member, expected, 0j, other), expected) is not None
    assert oracles.check_known_margin(MembershipResult(not member, expected, 0j, status), expected) is not None


def test_expected_status_bands():
    assert [oracles.expected_status(m) for m in (0.1, 5e-10, 0.0, -1e-15)] == [
        "member", "boundary", "boundary", "rejected"]


def test_failed_checks_names_every_failure():
    clock = CheckResult("the two coefficient transforms take under 1 ms [oracle]", False, "0.002", "<=0.001", 0.0)
    ok = CheckResult("operator sends coefficients n to the all-ones map [exact]", True, "0", "0", 1e-14)
    reports = [SuiteReport("D4.1-C4.5", 42, [ok, clock], 1.0), SuiteReport("T2.5", 42, [ok], 1.0)]
    failed = oracles.failed_checks(reports)
    assert len(failed) == 1
    assert failed[0].startswith("D4.1-C4.5 | the two coefficient transforms take under 1 ms")


def test_stream_counts_wrong_answers_and_exceptions_as_failed():
    f = known_answer_map(0.25)
    cid = ClassId(ClassName.R_H0)
    right = 1.0 - 1.98 * 0.25
    ops = [
        Op("right", "membership", (f, cid), lambda res: oracles.check_known_margin(res, right)),
        Op("wrong", "membership", (f, cid), lambda res: oracles.check_known_margin(res, right + 0.01)),
        Op("raises", "membership", (HarmonicMap(f.g, f.g), cid), oracles.check_member),
    ]
    result = Stream(ops).run_pass()
    assert len(result.latencies_ms) == 3
    assert [msg.split(":")[0] for msg in result.failures] == ["wrong", "raises"]


def test_calibration_scales_each_time_by_its_own_factor():
    assert calibrate.factor(calibrate.REFERENCE_S, calibrate.REFERENCE_S) == 1.0
    assert calibrate.factor(2 * calibrate.REFERENCE_S, 2 * calibrate.REFERENCE_S) == 0.5
    assert PassResult([1.0, 2.0], [0.5, 2.0], []).calibrated_ms() == [0.5, 4.0]
    assert calibrate.loop_time() > 0.0
    assert calibrate.setup_factor(calibrate.REFERENCE_SETUP_S) == 1.0
    assert calibrate.setup_factor(2 * calibrate.REFERENCE_SETUP_S) == 0.5
    assert calibrate.setup_reference_time() > 0.0
