"""The benchmark's workloads: inputs built from a seed, timed passes, oracles.

Every workload is a fixed list of operations (one *pass*) that a single
caller runs in a closed loop: the next call starts when the previous one
has returned.  Inputs are built before timing starts, through harmap's
own constructors, and every answer is checked by an oracle from
:mod:`perfbench.oracles` outside the timed call.

``verify-all``
    ``harmap.run_all(seed)``; one operation is one verify check.  The
    end-to-end number of the roadmap, mixing grid evaluation, sampling
    and suites that only do coefficient algebra.
``classify-stream``
    ``membership(f, class)`` calls on low-order maps over the 11 x 256
    default grid, plus coefficient classes that never evaluate a series.
``circle-geometry``
    Circle margins of catalog maps of order 1536-4096, the univalence
    test at 2048 angles, and radius estimates of order-64 maps: high
    order on one circle, the opposite of ``classify-stream``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import harmap
import harmap.verify
from harmap import AnalyticSeries, CatalogTag, ClassId, ClassName, HarmonicMap

from . import calibrate, oracles

NAMES = ("verify-all", "classify-stream", "circle-geometry")

#: longest stretch of calls that one pair of calibration loop timings covers
CALIBRATION_SEGMENT_S = 0.25


@dataclass(frozen=True)
class Op:
    """One timed call ``harmap.<fn>(*args)`` and the oracle for its answer.

    The function is looked up on the package at call time, so a traced
    run sees the wrapped version.
    """

    kind: str
    fn: str
    args: tuple
    check: Callable[[object], str | None]


@dataclass
class PassResult:
    """One pass: each op's latency with the calibration factor of the time
    it ran (see :mod:`perfbench.calibrate`), every failure, and verify's
    suite times."""

    latencies_ms: list[float]
    factors: list[float]
    failures: list[str]
    suite_elapsed: dict[str, float] = field(default_factory=dict)

    def calibrated_ms(self) -> list[float]:
        return [t * k for t, k in zip(self.latencies_ms, self.factors)]


class Stream:
    """A fixed list of calls, run in order.

    The calibration loop runs before the pass and then whenever at least
    CALIBRATION_SEGMENT_S of calls have gone by; each call gets the factor
    of the loop timings on either side of its segment.
    """

    def __init__(self, ops: list[Op]) -> None:
        self.ops = ops
        self._loop_s: float | None = None  # calibration loop time after the last segment

    def run_pass(self) -> PassResult:
        if self._loop_s is None:
            self._loop_s = calibrate.loop_time()
        latencies: list[float] = []
        factors: list[float] = []
        failures = []
        segment_start = perf_counter()
        for k, op in enumerate(self.ops):
            t0 = perf_counter()
            try:
                result = getattr(harmap, op.fn)(*op.args)
            except Exception as exc:  # a raising call is a failed op; the stream goes on
                result = None
                failures.append(f"{op.kind}: raised {type(exc).__name__}: {exc}")
            latencies.append((perf_counter() - t0) * 1e3)
            if result is not None:
                problem = op.check(result)
                if problem is not None:
                    failures.append(f"{op.kind}: {problem}")
            if k == len(self.ops) - 1 or perf_counter() - segment_start >= CALIBRATION_SEGMENT_S:
                before, self._loop_s = self._loop_s, calibrate.loop_time()
                factor = calibrate.factor(before, self._loop_s)
                factors += [factor] * (len(latencies) - len(factors))
                segment_start = perf_counter()
        return PassResult(latencies, factors, failures)

    def close(self) -> None:
        pass


class VerifyAll:
    """``run_all(seed)`` with figures written to a temporary directory.

    Checks are not timed one by one: each check's latency is its suite's
    ``elapsed`` divided by the suite's check count.  Each suite is
    calibrated on its own, by timing the calibration loop around the
    ``run_suite`` calls that ``run_all`` makes.
    """

    def __init__(self, seed: int, work_dir: Path) -> None:
        work_dir.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self._tmp = tempfile.TemporaryDirectory(prefix="verify-", dir=work_dir)

    def run_pass(self) -> PassResult:
        factors = {}
        run_suite = harmap.verify.run_suite

        def calibrated_suite(suite_id, *args, **kwargs):
            before = calibrate.loop_time()
            report = run_suite(suite_id, *args, **kwargs)
            factors[suite_id] = calibrate.factor(before, calibrate.loop_time())
            return report

        harmap.verify.run_suite = calibrated_suite
        start = perf_counter()
        try:
            reports = harmap.run_all(self.seed, out_dir=self._tmp.name)
        except Exception as exc:  # the whole pass is lost; count every suite as failed
            wall = perf_counter() - start
            suites = len(harmap.suite_ids())
            failure = f"run_all raised {type(exc).__name__}: {exc}"
            return PassResult([wall * 1e3 / suites] * suites, [1.0] * suites, [failure] * suites)
        finally:
            harmap.verify.run_suite = run_suite
        per_check = [(report, check) for report in reports for check in report.checks]
        return PassResult(
            [report.elapsed * 1e3 / len(report.checks) for report, _ in per_check],
            [factors[report.suite_id] for report, _ in per_check],
            oracles.failed_checks(reports),
            {report.suite_id: report.elapsed for report in reports},
        )

    def close(self) -> None:
        self._tmp.cleanup()


# ------------------------------------------------------------ classify-stream

GRID_MEMBERS = 32  # per class R_H0, W_H0, F_H0 at order 64
RELATIVE_MEMBERS = 4  # per relative class and reference map, order 200
COEFFICIENT_MEMBERS = 32  # per class U_H0, V_H0, S_R
KNOWN_ANSWERS = (6, 6, 4)  # per grid class: member side, rejected side, boundary band
LOW_ORDER = 64
REFERENCE_ORDER = 200

#: margin of z + conj(c z^2) on the default grid (outer radius 0.99) is 1 - slope * c
KNOWN_SLOPE = {ClassName.R_H0: 1.98, ClassName.F_H0: 1.98, ClassName.W_H0: 3.96}


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def known_answer_map(c: float, order: int = LOW_ORDER) -> HarmonicMap:
    """f(z) = z + conj(c z^2)."""
    h = np.zeros(order, dtype=np.complex128)
    g = np.zeros(order, dtype=np.complex128)
    h[0] = 1.0
    g[1] = c
    return HarmonicMap(AnalyticSeries(h), AnalyticSeries(g))


def _known_answer_ops(rng: np.random.Generator, name: ClassName) -> list[Op]:
    slope = KNOWN_SLOPE[name]
    edge = 1.0 / slope
    member_side, rejected_side, boundary = KNOWN_ANSWERS
    cs = list(rng.uniform(0.05, 0.95, member_side) * edge)
    cs += list(rng.uniform(1.05, 1.5, rejected_side) * edge)
    cs += list((1.0 - rng.uniform(1e-10, 9e-10, boundary)) / slope)
    ops = []
    for c in cs:
        expected = 1.0 - slope * float(c)
        ops.append(
            Op(
                f"known-answer {name.value}",
                "membership",
                (known_answer_map(float(c)), ClassId(name)),
                lambda res, expected=expected: oracles.check_known_margin(res, expected),
            )
        )
    return ops


def classify_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for name in (ClassName.R_H0, ClassName.W_H0, ClassName.F_H0):
        cid = ClassId(name)
        for s in _seeds(rng, GRID_MEMBERS):
            f = harmap.sample_member(cid, s, LOW_ORDER)
            ops.append(Op(f"grid {name.value}", "membership", (f, cid), oracles.check_member))
    for tag in (CatalogTag.KOEBE, CatalogTag.HALF_PLANE, CatalogTag.MACGREGOR_R):
        reference = harmap.make(tag, REFERENCE_ORDER).h
        for name in (ClassName.R_H0_G, ClassName.F_H0_G):
            cid = ClassId(name, reference_map=reference)
            for s in _seeds(rng, RELATIVE_MEMBERS):
                f = harmap.sample_member(cid, s, REFERENCE_ORDER)
                ops.append(Op(f"relative {name.value}", "membership", (f, cid), oracles.check_member))
    for name in (ClassName.U_H0, ClassName.V_H0, ClassName.S_R):
        cid = ClassId(name)
        for s in _seeds(rng, COEFFICIENT_MEMBERS):
            f = harmap.sample_member(cid, s, LOW_ORDER)
            ops.append(Op(f"coefficient {name.value}", "membership", (f, cid), oracles.check_member))
    for name in (ClassName.R_H0, ClassName.W_H0, ClassName.F_H0):
        ops += _known_answer_ops(rng, name)
    order = rng.permutation(len(ops))
    return [ops[k] for k in order]


# ------------------------------------------------------------ circle-geometry

#: (r range, truncation order) of each closed-form margin draw.  Every
#: order makes the catalog series accurate to 1e-10 on its whole range.
#: Fixed orders keep the cost of a pass the same for every seed, and the
#: many order-1536 draws put the median op among ops of one cost.
_LOW = (0.9, 0.97, 1536)
MARGIN_BANDS = (_LOW,) * 4 + ((0.97, 0.985, 3072), (0.985, 0.99, 4096))
#: above r = 0.98 the Koebe convex margin (below -50) loses digits to cancellation
KOEBE_CONVEX_BANDS = (_LOW,) * 4 + ((0.97, 0.98, 3072),) * 2
MEMBER_MARGINS = 8  # per class U_H0 (starlike) and V_H0 (convex)
UNIVALENCE_REPEATS = 7  # per univalence answer
HARMONIC_KOEBE_ORDER = 400
SLICE_ORDER = 4096


def geometry_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    orders = sorted({order for *_, order in MARGIN_BANDS + KOEBE_CONVEX_BANDS})
    koebe = {n: harmap.make(CatalogTag.KOEBE, n) for n in orders}
    # the Alexander operator maps the Koebe coefficients n to the half-plane's 1
    half_plane = {n: harmap.alexander_plus(koebe[n]) for n in orders}
    closed_forms = [
        ("Koebe starlike", koebe, "starlike_margin", oracles.koebe_starlike, MARGIN_BANDS),
        ("half-plane convex", half_plane, "convex_margin", oracles.half_plane_convex, MARGIN_BANDS),
        ("half-plane starlike", half_plane, "starlike_margin", oracles.half_plane_starlike, MARGIN_BANDS),
        ("Koebe convex", koebe, "convex_margin", oracles.koebe_convex, KOEBE_CONVEX_BANDS),
    ]
    ops = []
    for label, maps, fn, closed_form, bands in closed_forms:
        for lo, hi, order in bands:
            r = float(rng.uniform(lo, hi))
            ops.append(
                Op(
                    f"margin {label}",
                    fn,
                    (maps[order], r),
                    lambda rep, expected=closed_form(r): oracles.check_margin(rep, expected),
                )
            )

    for name, fn in ((ClassName.U_H0, "starlike_margin"), (ClassName.V_H0, "convex_margin")):
        cid = ClassId(name)
        for s, r in zip(_seeds(rng, MEMBER_MARGINS), rng.uniform(0.9, 0.99, MEMBER_MARGINS)):
            f = harmap.sample_member(cid, s, LOW_ORDER)
            ops.append(Op(f"member {name.value} {fn}", fn, (f, float(r)), oracles.check_positive_margin))

    harmonic_koebe = harmap.make(CatalogTag.HARMONIC_KOEBE, HARMONIC_KOEBE_ORDER)
    unit_slice = harmap.analytic_map(
        harmap.slice_map(harmap.make(CatalogTag.HARMONIC_KOEBE, SLICE_ORDER), 1.0)
    )
    for _ in range(UNIVALENCE_REPEATS):
        ops.append(Op("univalent harmonic Koebe", "univalent_on_circle", (harmonic_koebe, 0.9),
                      lambda ok: oracles.check_bool(ok, True)))
        ops.append(Op("univalent unit slice", "univalent_on_circle", (unit_slice, 0.99),
                      lambda ok: oracles.check_bool(ok, False)))

    koebe_64 = harmap.make(CatalogTag.KOEBE, LOW_ORDER)
    for _ in range(2):
        ops.append(Op("radius Koebe convex", "radius_estimate", (koebe_64, "convex"),
                      lambda est: oracles.check_radius_near(est, oracles.KOEBE_CONVEX_RADIUS)))
    for name in (ClassName.R_H0, ClassName.U_H0):
        floor = oracles.CONVEX_RADIUS_FLOOR[name.value]
        for s in _seeds(rng, 3):
            f = harmap.sample_member(ClassId(name), s, LOW_ORDER)
            ops.append(Op(f"radius {name.value} convex", "radius_estimate", (f, "convex"),
                          lambda est, floor=floor: oracles.check_radius_at_least(est, floor)))
    order = rng.permutation(len(ops))
    return [ops[k] for k in order]


def build(name: str, seed: int, work_dir: Path):
    """Set up a workload: every input map is built here, before timing."""
    if name == "verify-all":
        return VerifyAll(seed, work_dir)
    if name == "classify-stream":
        return Stream(classify_ops(seed))
    if name == "circle-geometry":
        return Stream(geometry_ops(seed))
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
