"""Reproducible verification suites binding the whole library together.

Each suite packs related checks under one key and reports one line per
check.  Expected values carry a provenance tag in the description:
[exact] for algebraic identities, [constant] for sharp constants being
reproduced, [oracle] for independently computed numerical expectations,
[sampled] for seeded statistical checks.
"""

from __future__ import annotations

import math
import time
import timeit
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .catalog import CatalogTag, eval_closed, make
from .classes import (
    ClassId,
    ClassName,
    coefficient_bound_check,
    growth_envelope,
    membership,
    sample_member,
)
from .geometry import (
    convex_margins,
    radius_estimate,
    smallest_positive_root,
    starlike_margin,
    starlike_margins,
    univalent_on_circle,
)
from .harmonic import (
    HarmonicMap,
    alexander_minus,
    alexander_plus,
    analytic_map,
    convex_combination,
    harmonic_convolve,
    slice_map,
    tilde_convolve,
)
from .render import render_image
from .series import AnalyticSeries, alexander, circle_scan, convolve, linear_combine

CLASS_SAMPLES = 500
PAIR_SAMPLES = 200
SWEEP_POINTS = 16
RADIUS_MEMBERS = 50
ONE_SIDED_GAP = 1e-3
ONE_SIDED_TOL = 1e-6

#: truncation orders high enough for the default certifying circle |z| = 0.99
BOUNDARY_ORDER = 2048
SLICE_ORDER = 6000


@dataclass(frozen=True)
class CheckResult:
    description: str
    passed: bool
    measured: str
    expected: str
    tolerance: float


@dataclass
class SuiteReport:
    suite_id: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            out.append(
                f"{self.suite_id} | {c.description} | expected={c.expected} | "
                f"measured={c.measured} | tol={_fmt(c.tolerance)} | {status}"
            )
        return out

    def __str__(self) -> str:
        head = f"== suite {self.suite_id} (seed={self.seed}): " + (
            "PASS" if self.passed else "FAIL"
        )
        return "\n".join([head] + self.lines() + [f"   elapsed {self.elapsed:.2f}s"])


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


class _Recorder:
    """The checks of one suite, its figure directory, and its member draws."""

    def __init__(self, out_dir) -> None:
        self.checks: list[CheckResult] = []
        self.out_dir = Path(out_dir)

    def members(self, cid: ClassId, seed: int, count: int, order: int = 64):
        """Members drawn lazily at seeds seed, seed + 1, ..., seed + count - 1."""
        return (sample_member(cid, seed + k, order) for k in range(count))

    def pairs(self, cid: ClassId, seed: int, count: int):
        """Member pairs drawn lazily at seeds (seed + 2k, seed + 2k + 1), k < count."""
        return ((sample_member(cid, seed + 2 * k), sample_member(cid, seed + 2 * k + 1)) for k in range(count))

    def close(self, description: str, measured: float, expected: float, tol: float) -> None:
        ok = abs(measured - expected) <= tol
        self.checks.append(
            CheckResult(description, ok, _fmt(float(measured)), _fmt(float(expected)), tol)
        )

    def at_least(self, description: str, measured: float, floor: float) -> None:
        ok = measured >= floor
        self.checks.append(
            CheckResult(description, ok, _fmt(float(measured)), f">={_fmt(floor)}", 0.0)
        )

    def at_most(self, description: str, measured: float, ceil: float) -> None:
        ok = measured <= ceil
        self.checks.append(
            CheckResult(description, ok, _fmt(float(measured)), f"<={_fmt(ceil)}", 0.0)
        )

    def boolean(self, description: str, measured: bool, expected: bool = True) -> None:
        self.checks.append(
            CheckResult(description, measured == expected, str(measured), str(expected), 0.0)
        )

    def counted(self, description: str, items, failure) -> None:
        """One check over ``items``: how many fail, with the first failure's witness.

        ``failure(item)`` returns None when the item passes, else a witness string.
        """
        failures = 0
        witness = ""
        for item in items:
            found = failure(item)
            if found is not None:
                failures += 1
                witness = witness or found
        measured = str(failures) if not failures else f"{failures} (first: {witness})"
        self.checks.append(CheckResult(description, failures == 0, measured, "0", 0.0))


def _witness(f: HarmonicMap, extra: str = "") -> str:
    h = np.array2string(f.h.coeffs[:4], precision=6)
    g = np.array2string(f.g.coeffs[:4], precision=6)
    return f"h[:4]={h} g[:4]={g} {extra}".strip()


def _random_map(rng: np.random.Generator, order: int = 32) -> HarmonicMap:
    n = np.arange(1, order + 1)
    h = (rng.standard_normal(order) + 1j * rng.standard_normal(order)) / n**2
    g = (rng.standard_normal(order) + 1j * rng.standard_normal(order)) / n**2
    h[0] = 1.0
    g[0] = 0.0
    return HarmonicMap(AnalyticSeries(h), AnalyticSeries(g))


def _unit_roots(m: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(m) / m)


def _rejection(f: HarmonicMap, cid: ClassId, shown: HarmonicMap) -> str | None:
    """None when f is a class member, else a witness of ``shown`` with f's margin."""
    res = membership(f, cid)
    return None if res.is_member else _witness(shown, f"margin={res.margin:.3e}")


def _worst(margins, maps, radii) -> float:
    """The least ``min_margin`` of ``margins(f, radii)`` over the maps f."""
    return min(rep.min_margin for f in maps for rep in margins(f, radii))


def _one_sided_convex(rec: _Recorder, label: str, members, bound: float) -> None:
    radii = [frac * (bound - ONE_SIDED_GAP) for frac in (0.25, 0.5, 0.75, 1.0)]
    worst, k, r = min(
        ((rep.min_margin, k, rep.r) for k, f in enumerate(members) for rep in convex_margins(f, radii)),
        key=lambda item: item[0],
    )
    witness = _witness(members[k], f"member={k} r={r:.6f}")
    rec.at_least(
        f"{label}: min convex margin of {len(members)} members at radii <= "
        f"{_fmt(bound)}-{ONE_SIDED_GAP} [constant]{'' if worst >= -ONE_SIDED_TOL else ' ' + witness}",
        worst,
        -ONE_SIDED_TOL,
    )


def _re_half_reference() -> AnalyticSeries:
    # G'(z) = 1 + 0.45 * sum 2^-m z^m keeps Re G' > 0.55 > 1/2 on the disk
    n = np.arange(2, 201, dtype=np.float64)
    return AnalyticSeries(np.concatenate(([1.0], 0.45 * (0.5 ** (n - 1)) / n)))


# ----------------------------------------------------------------- suites

def _suite_t2_5(rec: _Recorder, seed: int) -> None:
    specs = [
        (ClassName.R_H0, "2/n"),
        (ClassName.W_H0, "2/n^2"),
        (ClassName.U_H0, "1/n"),
        (ClassName.V_H0, "1/n^2"),
    ]
    for name, bound_label in specs:
        cid = ClassId(name)

        def violation(f):
            report = coefficient_bound_check(f, cid, n_max=32)
            return None if report.ok else _witness(f, f"violations={report.violations[:2]}")

        rec.counted(
            f"{name.value}: gap bound {bound_label} over {CLASS_SAMPLES} members, n<=32 [sampled]",
            rec.members(cid, seed, CLASS_SAMPLES),
            violation,
        )
    for tag, rule in [(CatalogTag.MACGREGOR_R, 1), (CatalogTag.CHICHRA_W, 2)]:
        f = make(tag, 64)
        n = np.arange(2, 33)
        gaps = np.abs(np.abs(f.h.coeffs[1:32]) - np.abs(f.g.coeffs[1:32]))
        dev = float(np.max(np.abs(gaps - 2.0 / n**rule)))
        rec.close(f"{tag.value}: gap equals 2/n^{rule} for n<=32 [exact]", dev, 0.0, 1e-12)
    for tag, val in [(CatalogTag.U_SHARP, 0.5), (CatalogTag.V_SHARP, 0.25)]:
        f = make(tag, 8)
        rec.close(
            f"{tag.value}: extremal gap at n=2 [exact]",
            float(abs(abs(f.h.coeffs[1]) - abs(f.g.coeffs[1]))),
            val,
            1e-12,
        )
    # a map pairing the tight coefficient function with a nonzero g side
    # must fall outside the class
    base = make(CatalogTag.MACGREGOR_R, BOUNDARY_ORDER)
    g = np.zeros(BOUNDARY_ORDER, dtype=np.complex128)
    g[1] = 0.05
    spoiled = HarmonicMap(base.h, AnalyticSeries(g))
    res = membership(spoiled, ClassId(ClassName.R_H0))
    rec.boolean(
        "tight coefficient map with nonzero second part is rejected [oracle]",
        res.is_member,
        False,
    )


def _suite_t2_6(rec: _Recorder, seed: int) -> None:
    lo, _ = growth_envelope(ClassId(ClassName.R_H0), 1.0)
    rec.close("R_H0 covering constant 2 log 2 - 1 [constant]", lo, 2 * math.log(2) - 1, 1e-9)
    lo, _ = growth_envelope(ClassId(ClassName.W_H0), 1.0)
    rec.close("W_H0 covering constant pi^2/6 - 1 via quadrature [constant]", lo, math.pi**2 / 6 - 1, 1e-6)
    rec.close("U_H0 covering constant [constant]", growth_envelope(ClassId(ClassName.U_H0), 1.0)[0], 0.5, 0.0)
    rec.close("V_H0 covering constant [constant]", growth_envelope(ClassId(ClassName.V_H0), 1.0)[0], 0.75, 0.0)

    radii = (0.25, 0.5, 0.75)
    for name in (ClassName.R_H0, ClassName.W_H0, ClassName.U_H0):
        cid = ClassId(name)
        envelopes = [growth_envelope(cid, r) for r in radii]

        def outside(f):
            # the circle scan is within 1e-13 of Horner here, far inside the 1e-9 allowance
            (h, g), _ = circle_scan((f.h, f.g), radii, 128)
            for r, (lo, hi), on_circle in zip(radii, envelopes, np.abs(h + np.conj(g))):
                if on_circle.min() < lo - 1e-9 or on_circle.max() > hi + 1e-9:
                    return _witness(f, f"r={r}")
            return None

        rec.counted(
            f"{name.value}: modulus envelope at r in (0.25, 0.5, 0.75) over "
            f"{CLASS_SAMPLES} members [sampled]",
            rec.members(cid, seed, CLASS_SAMPLES),
            outside,
        )


def _suite_t2_9(rec: _Recorder, seed: int) -> None:
    rng = np.random.default_rng(seed)
    eps_grid = _unit_roots(SWEEP_POINTS)
    worst_self = 0.0
    worst_pair = 0.0
    worst_slice = 0.0
    for _ in range(100):
        f = _random_map(rng)
        F = _random_map(rng)
        for eps in eps_grid:
            nu = np.sqrt(eps)
            lhs = linear_combine([(1.0, convolve(f.h, f.h)), (eps, convolve(f.g, f.g))])
            plus = linear_combine([(1.0, f.h), (1j * nu, f.g)])
            minus = linear_combine([(1.0, f.h), (-1j * nu, f.g)])
            rhs = convolve(plus, minus)
            worst_self = max(worst_self, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))

            f1 = convolve(
                linear_combine([(1.0, f.h), (-1.0, f.g)]),
                linear_combine([(1.0, F.h), (-eps, F.g)]),
            )
            f2 = convolve(
                linear_combine([(1.0, f.h), (1.0, f.g)]),
                linear_combine([(1.0, F.h), (eps, F.g)]),
            )
            pair_lhs = linear_combine([(0.5, f1), (0.5, f2)])
            pair_rhs = linear_combine([(1.0, convolve(f.h, F.h)), (eps, convolve(f.g, F.g))])
            worst_pair = max(worst_pair, float(np.max(np.abs(pair_lhs.coeffs - pair_rhs.coeffs))))

            conv = harmonic_convolve(f, F)
            sliced = slice_map(conv, eps)
            direct = linear_combine([(1.0, convolve(f.h, F.h)), (eps, convolve(f.g, F.g))])
            worst_slice = max(worst_slice, float(np.max(np.abs(sliced.coeffs - direct.coeffs))))
    rec.at_most(
        "self-convolution square-root factorization, 100 maps x 16 eps [exact]",
        worst_self,
        1e-12,
    )
    rec.at_most("pair factorization via (F1+F2)/2, 100 pairs x 16 eps [exact]", worst_pair, 1e-12)
    rec.at_most("slice linearity of the harmonic convolution [exact]", worst_slice, 1e-13)


def _suite_t2_11(rec: _Recorder, seed: int) -> None:
    rng = np.random.default_rng(seed)
    eps_grid = _unit_roots(SWEEP_POINTS)
    worst = 0.0
    for _ in range(100):
        f = _random_map(rng)
        phi = AnalyticSeries((rng.standard_normal(32) + 1j * rng.standard_normal(32)))
        tilded = tilde_convolve(phi, f)
        for eps in eps_grid:
            lhs = slice_map(tilded, eps)
            rhs = convolve(phi, slice_map(f, eps))
            worst = max(worst, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
    rec.at_most("slice commutes with the analytic product, 100 maps x 16 eps [exact]", worst, 1e-13)

    phi = make(CatalogTag.HALF_PLANE, 64).h  # all-ones coefficients
    f = _random_map(rng, order=64)
    out = tilde_convolve(phi, f)
    dev = float(np.max(np.abs(out.h.coeffs - f.h.coeffs) + np.abs(out.g.coeffs - f.g.coeffs)))
    rec.close("all-ones series is the product identity [exact]", dev, 0.0, 0.0)

    cid = ClassId(ClassName.R_H0)
    rec.counted(
        f"R_H0 closed under the product with the convex half-plane kernel, "
        f"{CLASS_SAMPLES} members [sampled]",
        rec.members(cid, seed, CLASS_SAMPLES),
        lambda f: _rejection(tilde_convolve(phi, f), cid, f),
    )


def _suite_t2_12(rec: _Recorder, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for name in (ClassName.U_H0, ClassName.R_H0):
        cid = ClassId(name)
        # one weight draw per combination, in order: the suite's only random stream
        combos = (
            convex_combination(
                rng.dirichlet(np.ones(4)),
                [sample_member(cid, seed + 4 * k + j) for j in range(4)],
            )
            for k in range(CLASS_SAMPLES // 4)
        )
        rec.counted(
            f"{name.value}: convex combinations of members stay inside, "
            f"{CLASS_SAMPLES // 4} draws x 4 members [sampled]",
            combos,
            lambda combo: _rejection(combo, cid, combo),
        )
    u = make(CatalogTag.U_SHARP, 8)
    uc = make(CatalogTag.U_SHARP_CONJ, 8)
    combo = convex_combination([0.5, 0.5], [u, uc])
    total = float(
        np.sum(np.arange(1, 9)[1:] * (np.abs(combo.h.coeffs[1:]) + np.abs(combo.g.coeffs[1:])))
    )
    rec.close("half/half mix of the two quadratic extremals has unit sum [exact]", total, 1.0, 1e-12)


def _suite_r2_14(rec: _Recorder, seed: int) -> None:
    z0 = 1j / math.sqrt(3)

    def collision(z):
        return (z + z**3 / 3) / (1 - z) ** 3

    delta = abs(collision(z0) - collision(-z0))
    rec.at_most("two symmetric points share one image value [oracle]", float(delta), 1e-9)

    K = make(CatalogTag.HARMONIC_KOEBE, SLICE_ORDER)
    sliced = analytic_map(slice_map(K, 1.0))
    zs = 0.9 * _unit_roots(64)
    dev = float(np.max(np.abs(sliced.h.evaluate(zs) - collision(zs))))
    rec.at_most("unit slice of the extremal map matches its closed form at r=0.9 [exact]", dev, 1e-6)

    rec.boolean(
        "circle test rejects the unit slice at r=0.99 [oracle]",
        univalent_on_circle(sliced, 0.99),
        False,
    )
    K_mid = make(CatalogTag.HARMONIC_KOEBE, 400)
    rec.boolean(
        "the harmonic extremal map itself passes the circle test at r=0.9 [oracle]",
        univalent_on_circle(K_mid, 0.9),
        True,
    )


def _suite_t2_16(rec: _Recorder, seed: int) -> None:
    K = make(CatalogTag.HARMONIC_KOEBE, 64)
    n = np.arange(2, 33)
    gaps = np.abs(K.h.coeffs[1:32]) - np.abs(K.g.coeffs[1:32])
    rec.close(
        "harmonic extremal coefficient gaps equal n for n<=32 [exact]",
        float(np.max(np.abs(gaps - n))),
        0.0,
        1e-12,
    )
    L = make(CatalogTag.HARMONIC_HALF_PLANE, 64)
    gapsL = np.abs(L.h.coeffs[1:32]) - np.abs(L.g.coeffs[1:32])
    rec.close(
        "half-plane extremal coefficient gaps equal 1 for n<=32 [exact]",
        float(np.max(np.abs(gapsL - 1.0))),
        0.0,
        1e-12,
    )
    for r in (0.25, 0.5, 0.75):
        rec.close(
            f"growth sharpness |k(r)| = r/(1-r)^2 at r={r} [exact]",
            float(abs(eval_closed(CatalogTag.KOEBE, r))),
            r / (1 - r) ** 2,
            0.0,
        )
        rec.close(
            f"lower growth sharpness |k(-r)| = r/(1+r)^2 at r={r} [exact]",
            float(abs(eval_closed(CatalogTag.KOEBE, -r))),
            r / (1 + r) ** 2,
            0.0,
        )
    # |k(-r)| and |l(-r)| fall short of 1/4 and 1/2 by (1-r)^2/(4(2-r)^2) ~ (1-r)^2/16
    # and (1-r)/(2(2-r)) ~ (1-r)/4; the tolerances are twice those gaps
    gap = 1e-6
    r = 1 - gap
    rec.close(
        "quarter covering constant |k(-r)| -> 1/4 at r=1-1e-6 [constant]",
        float(abs(eval_closed(CatalogTag.KOEBE, -r))),
        0.25,
        gap**2 / 8,
    )
    rec.close(
        "half covering constant |l(-r)| -> 1/2 at r=1-1e-6 [constant]",
        float(abs(eval_closed(CatalogTag.HALF_PLANE, -r))),
        0.5,
        gap / 2,
    )

    koebe = make(CatalogTag.KOEBE, 64)
    est = radius_estimate(koebe, "convex", tol=1e-4)
    rec.close(
        "convexity radius of the quadratic-growth extremal [constant]",
        est.value,
        2 - math.sqrt(3),
        1e-3,
    )
    big = make(CatalogTag.KOEBE, 4096)
    rec.at_least(
        "starlikeness persists at r=0.99 for the same extremal [oracle]",
        starlike_margin(big, 0.99).min_margin,
        1e-6,
    )


def _suite_t3_3(rec: _Recorder, seed: int) -> None:
    ext = make(CatalogTag.MACGREGOR_R, BOUNDARY_ORDER)
    res = membership(ext, ClassId(ClassName.R_H0))
    rec.boolean("logarithmic extremal is a class member [oracle]", res.is_member, True)

    cid = ClassId(ClassName.R_H0)
    rec.counted(
        f"R_H0 generator always passes membership, {CLASS_SAMPLES} members [sampled]",
        rec.members(cid, seed, CLASS_SAMPLES),
        lambda f: _rejection(f, cid, f),
    )

    lam = _unit_roots(SWEEP_POINTS)

    def rotation_rejected(f):
        for l in lam:
            if not membership(HarmonicMap(f.h, AnalyticSeries(l * f.g.coeffs)), cid).is_member:
                return _witness(f, f"lambda={l:.3f}")
        return None

    rec.counted(
        "second-part rotations stay in the class, 100 members x 16 [sampled]",
        rec.members(cid, seed + 7000, 100),
        rotation_rejected,
    )

    members = list(rec.members(cid, seed + 31000, RADIUS_MEMBERS))
    _one_sided_convex(rec, "convexity radius floor sqrt(2)-1", members, math.sqrt(2) - 1)


def _suite_t3_5(rec: _Recorder, seed: int) -> None:
    ext = make(CatalogTag.CHICHRA_W, BOUNDARY_ORDER)
    rec.boolean(
        "dilogarithmic extremal is a class member [oracle]",
        membership(ext, ClassId(ClassName.W_H0)).is_member,
        True,
    )

    cid = ClassId(ClassName.W_H0)
    rec.counted(
        f"class closed under convolution, {PAIR_SAMPLES // 2} pairs [sampled]",
        rec.pairs(cid, seed, PAIR_SAMPLES // 2),
        lambda pair: _rejection(harmonic_convolve(*pair), cid, pair[0]),
    )

    phi_half = make(CatalogTag.HALF_PLANE, 64).h
    n = np.arange(1, 65, dtype=np.float64)
    c = np.zeros(64, dtype=np.complex128)
    c[0] = 1.0
    c[1:] = 0.45 * (0.5 ** (n[1:] - 1))  # sum of moduli < 1/2: Re phi/z > 1/2
    phi_cheby = AnalyticSeries(c)
    for phi, label in [(phi_half, "convex kernel"), (phi_cheby, "Re phi/z > 1/2 kernel")]:
        rec.counted(
            f"closed under product with {label}, {PAIR_SAMPLES} members [sampled]",
            rec.members(cid, seed + 5000, PAIR_SAMPLES),
            lambda f: _rejection(tilde_convolve(phi, f), cid, f),
        )

    chich = make(CatalogTag.CHICHRA_W, 64)
    worst = _worst(
        convex_margins,
        (tilde_convolve(chich.h, f) for f in rec.members(cid, seed + 9000, RADIUS_MEMBERS)),
        (0.3, 0.6, 0.9),
    )
    rec.at_least(
        "product of two in-class functions is convex on sampled circles [sampled]", worst, 1e-9
    )


def _suite_t3_7(rec: _Recorder, seed: int) -> None:
    u = make(CatalogTag.U_SHARP, 16)
    res = membership(u, ClassId(ClassName.U_H0))
    rec.boolean("quadratic extremal accepted at the boundary [exact]", res.is_member, True)
    rec.close("its margin is exactly zero [exact]", res.margin, 0.0, 0.0)
    rec.boolean("its status reads boundary [exact]", res.status == "boundary", True)
    rec.boolean(
        "conjugate variant accepted too [exact]",
        membership(make(CatalogTag.U_SHARP_CONJ, 16), ClassId(ClassName.U_H0)).is_member,
        True,
    )
    rec.boolean(
        "quadratic extremal is rejected from the heavier class [exact]",
        membership(u, ClassId(ClassName.V_H0)).is_member,
        False,
    )
    rec.boolean(
        "quarter-quadratic extremal accepted there [exact]",
        membership(make(CatalogTag.V_SHARP, 16), ClassId(ClassName.V_H0)).is_member,
        True,
    )

    for name, bound_pow in [(ClassName.U_H0, 1), (ClassName.V_H0, 2)]:
        cid = ClassId(name)

        def out_of_bounds(f):
            n = np.arange(2, f.order + 1, dtype=np.float64)
            ok = (
                np.all(np.abs(f.h.coeffs[1:]) <= 1.0 / n**bound_pow + 1e-12)
                and np.all(np.abs(f.g.coeffs[1:]) <= 1.0 / n**bound_pow + 1e-12)
                and membership(f, cid).is_member
            )
            return None if ok else _witness(f)

        rec.counted(
            f"{name.value}: per-part coefficient bounds 1/n^{bound_pow} over "
            f"{CLASS_SAMPLES} members [sampled]",
            rec.members(cid, seed, CLASS_SAMPLES),
            out_of_bounds,
        )

    u_cid, v_cid = ClassId(ClassName.U_H0), ClassId(ClassName.V_H0)
    members = list(rec.members(u_cid, seed + 17000, RADIUS_MEMBERS))
    _one_sided_convex(rec, "convexity radius floor 1/2", members, 0.5)

    radii = (0.3, 0.6, 0.9)
    worst_star = _worst(starlike_margins, rec.members(u_cid, seed + 23000, 100), radii)
    worst_conv = _worst(convex_margins, rec.members(v_cid, seed + 29000, 100), radii)
    rec.at_least("U_H0 members fully starlike on sampled circles [sampled]", worst_star, 1e-9)
    rec.at_least("V_H0 members fully convex on sampled circles [sampled]", worst_conv, 1e-9)


def _suite_t3_9(rec: _Recorder, seed: int) -> None:
    u_cid = ClassId(ClassName.U_H0)
    v_cid = ClassId(ClassName.V_H0)
    for cid, label in ((u_cid, "U*U lands in U"), (v_cid, "U*U lands in V")):
        rec.counted(
            f"{label}, {PAIR_SAMPLES} pairs [sampled]",
            (harmonic_convolve(f, F) for f, F in rec.pairs(u_cid, seed, PAIR_SAMPLES)),
            lambda conv: _rejection(conv, cid, conv),
        )

    rec.counted(
        f"V*V lands in V, {PAIR_SAMPLES} pairs [sampled]",
        rec.pairs(v_cid, seed + 100000, PAIR_SAMPLES),
        lambda pair: _rejection(harmonic_convolve(*pair), v_cid, pair[0]),
    )

    def quadratic_sum(s: AnalyticSeries) -> float:
        n = np.arange(2, s.order + 1, dtype=np.float64)
        return float(np.sum(n**2 * np.abs(s.coeffs[1:]) ** 2))

    eps_grid = _unit_roots(SWEEP_POINTS)
    worst = max(
        quadratic_sum(slice_map(f, eps))
        for f in rec.members(v_cid, seed + 300000, PAIR_SAMPLES)
        for eps in eps_grid
    )
    rec.at_most(
        f"quadratic coefficient sum of slices stays below 1, {PAIR_SAMPLES} members x 16 [sampled]",
        worst,
        1.0 + 1e-12,
    )

    phi = make(CatalogTag.HALF_PLANE, 64).h

    rec.counted(
        "convex kernel preserves both classes [sampled]",
        (
            (sample_member(cid, seed + offset + k), cid)
            for k in range(PAIR_SAMPLES)
            for offset, cid in ((400000, u_cid), (500000, v_cid))
        ),
        lambda item: _rejection(tilde_convolve(phi, item[0]), item[1], item[0]),
    )

    worst_conv = _worst(
        convex_margins,
        (harmonic_convolve(f, F) for f, F in rec.pairs(u_cid, seed + 600000, RADIUS_MEMBERS)),
        (0.3, 0.6, 0.9, 0.95),
    )
    rec.at_least("U*U convolutions convex on sampled circles [sampled]", worst_conv, 1e-9)


def _suite_t3_10(rec: _Recorder, seed: int) -> None:
    cid = ClassId(ClassName.S_R)
    rec.counted(
        "real-coefficient generator accepted, 100 members [sampled]",
        rec.members(cid, seed, 100),
        lambda f: _rejection(f, cid, f),
    )

    h = np.zeros(16, dtype=np.complex128)
    h[0] = 1.0
    h[1] = 0.2 + 0.1j
    bad = HarmonicMap(AnalyticSeries(h), AnalyticSeries(np.zeros(16, dtype=np.complex128)))
    res = membership(bad, cid)
    rec.boolean("complex coefficient rejected [exact]", res.is_member, False)
    rec.boolean("witness points at the offending index [exact]", res.witness == 2, True)
    rec.boolean(
        "nonzero second part rejected [exact]",
        membership(make(CatalogTag.U_SHARP_CONJ, 16), cid).is_member,
        False,
    )
    rec.boolean(
        "analytic real extremal accepted [exact]",
        membership(make(CatalogTag.KOEBE, 16), cid).is_member,
        True,
    )


def _suite_d4(rec: _Recorder, seed: int) -> None:
    def transforms():
        return alexander_plus(make(CatalogTag.KOEBE, 64)), alexander_plus(make(CatalogTag.MACGREGOR_R, 64))

    lam, lam2 = transforms()
    # best of five single runs: one scheduling stall must not fail the bound
    op_elapsed = min(timeit.repeat(transforms, number=1, repeat=5))

    half = make(CatalogTag.HALF_PLANE, 64)
    chich = make(CatalogTag.CHICHRA_W, 64)
    rec.close(
        "operator sends coefficients n to the all-ones map [exact]",
        float(np.max(np.abs(lam.h.coeffs - half.h.coeffs))),
        0.0,
        1e-14,
    )
    rec.close(
        "operator sends 2/n coefficients to 2/n^2 [exact]",
        float(np.max(np.abs(lam2.h.coeffs - chich.h.coeffs))),
        0.0,
        1e-14,
    )
    rec.boolean("the two coefficient transforms take under 1 ms [oracle]", op_elapsed <= 1e-3, True)

    def slice_gap(f: HarmonicMap, eps: complex) -> float:
        lhs = slice_map(alexander_plus(f), eps)
        rhs = alexander(slice_map(f, eps))
        return float(np.max(np.abs(lhs.coeffs - rhs.coeffs)))

    rng = np.random.default_rng(seed)
    eps_grid = _unit_roots(SWEEP_POINTS)
    worst = max(slice_gap(f, eps) for f in (_random_map(rng) for _ in range(50)) for eps in eps_grid)
    rec.at_most("slices commute with the operator, 50 maps x 16 eps [exact]", worst, 1e-15)

    f = _random_map(rng)
    mm = alexander_minus(alexander_minus(f))
    pp = alexander_plus(alexander_plus(f))
    dev = float(
        np.max(np.abs(mm.h.coeffs - pp.h.coeffs)) + np.max(np.abs(mm.g.coeffs - pp.g.coeffs))
    )
    rec.close("double negative operator equals double positive [exact]", dev, 0.0, 0.0)

    zs = np.concatenate([r * _unit_roots(32) for r in (0.3, 0.6, 0.9)])
    for tag, base_tag in [
        (CatalogTag.ALEXANDER_PLUS_K, CatalogTag.HARMONIC_KOEBE),
        (CatalogTag.ALEXANDER_PLUS_L, CatalogTag.HARMONIC_HALF_PLANE),
    ]:
        mapped = alexander_plus(make(base_tag, 400))
        dev = float(
            np.max(
                np.abs(
                    mapped.h.evaluate(zs)
                    + np.conj(mapped.g.evaluate(zs))
                    - eval_closed(tag, zs)
                )
            )
        )
        rec.at_most(f"series for {tag.value} agrees with its closed form, |z|<=0.9 [oracle]", dev, 1e-6)
    rec.close(
        "closed form of the transformed half-plane map at z=0.5 [oracle]",
        float(np.real(eval_closed(CatalogTag.ALEXANDER_PLUS_L, 0.5))),
        math.log(2.0),
        1e-12,
    )

    r_cid, u_cid = ClassId(ClassName.R_H0), ClassId(ClassName.U_H0)
    r_images = map(alexander_plus, rec.members(r_cid, seed, 100))
    u_images = map(alexander_plus, rec.members(u_cid, seed, 100))
    worst_star = _worst(starlike_margins, r_images, (0.3, 0.6, 0.9))
    worst_conv = _worst(convex_margins, u_images, (0.3, 0.6, 0.9, 0.95))
    rec.at_least("operator images of R_H0 members starlike on circles [sampled]", worst_star, 1e-9)
    rec.at_least("operator images of U_H0 members convex on circles, r<=0.95 [sampled]", worst_conv, 1e-9)

    def off_target(pair):
        fr, fu = pair
        ok = (
            membership(alexander_plus(fr), ClassId(ClassName.W_H0)).is_member
            and membership(alexander_plus(fu), ClassId(ClassName.V_H0)).is_member
            and membership(alexander_minus(fu), ClassId(ClassName.V_H0)).is_member
        )
        return None if ok else _witness(fr)

    rec.counted(
        f"operator lands R_H0 in W_H0 and U_H0 in V_H0 (both signs), {CLASS_SAMPLES} members [sampled]",
        zip(
            rec.members(r_cid, seed, CLASS_SAMPLES),
            rec.members(u_cid, seed, CLASS_SAMPLES),
        ),
        off_target,
    )


FIG_RADII = (0.3, 0.5, 0.7, 0.85, 0.95)
FIG_SAMPLES = 512
FIG_MARGIN_RADII = (0.90, 0.93, 0.96)
FIG_SERIES_ORDER = 1536


def _suite_fig(rec: _Recorder, seed: int, which: str) -> None:
    tag, margin_fn, functional = {
        "FIG1": (CatalogTag.ALEXANDER_PLUS_K, starlike_margins, "starlike"),
        "FIG2": (CatalogTag.ALEXANDER_PLUS_L, convex_margins, "convex"),
    }[which]
    fname = f"{which.lower()}.svg"
    big = make(tag, FIG_SERIES_ORDER)
    worst = _worst(margin_fn, [big], FIG_MARGIN_RADII)
    rec.at_most(
        f"{tag.value}: {functional} margin goes negative on r in {FIG_MARGIN_RADII} [oracle]",
        worst,
        -1e-6,
    )
    out = rec.out_dir / fname
    render_image(make(tag, 256), FIG_RADII, FIG_SAMPLES, out)
    data = out.read_bytes()
    rec.boolean(f"{fname} written ({len(data)} bytes) [exact]", len(data) > 0, True)
    rec.close(
        f"{fname} has one closed path per radius [exact]",
        float(data.count(b"<path")),
        float(len(FIG_RADII)),
        0.0,
    )


def _relative_floors(rec: _Recorder, seed: int, name: ClassName, floor: str, configs) -> None:
    """Membership of 10 sampled members and the one-sided convexity floor per reference."""
    for label, ref, bound in configs:
        cid = ClassId(name, reference_map=ref)
        members = list(rec.members(cid, seed, RADIUS_MEMBERS, order=200))
        rec.counted(
            f"relative class membership holds ({label}) [sampled]",
            members[:10],
            lambda f: _rejection(f, cid, f),
        )
        _one_sided_convex(rec, f"{floor} with {label}", members, bound)


def _suite_t4_7(rec: _Recorder, seed: int) -> None:
    configs = [
        ("starlike reference", make(CatalogTag.KOEBE, 200).h, 3 - 2 * math.sqrt(2)),
        ("convex reference", make(CatalogTag.HALF_PLANE, 200).h, 2 - math.sqrt(3)),
        ("positive-derivative reference", make(CatalogTag.MACGREGOR_R, 200).h, math.sqrt(5) - 2),
    ]
    _relative_floors(rec, seed, ClassName.R_H0_G, "relative convexity floor", configs)


def _suite_t4_8(rec: _Recorder, seed: int) -> None:
    quartic = [-4.0, 4.0, 13.0, 2.0, 1.0]
    root = smallest_positive_root(quartic)
    (r_np,) = [r.real for r in np.roots(quartic[::-1]) if r.imag == 0.0 and 0.0 < r.real < 1.0]
    rec.close("quartic root agrees with numpy.roots [oracle]", root, r_np, 1e-11)
    residual = abs(np.polyval(quartic[::-1], root))
    rec.at_most("quartic residual at the root [oracle]", float(residual), 1e-10)

    configs = [
        ("starlike reference", make(CatalogTag.KOEBE, 200).h, 0.2),
        ("convex reference", make(CatalogTag.HALF_PLANE, 200).h, 1.0 / 3.0),
        ("positive-derivative reference", make(CatalogTag.MACGREGOR_R, 200).h, (math.sqrt(17) - 3) / 4),
        ("Re G' > 1/2 reference", _re_half_reference(), root),
    ]
    _relative_floors(rec, seed, ClassName.F_H0_G, "bounded-distortion convexity floor", configs)


_SUITES = {
    "T2.5": _suite_t2_5,
    "T2.6": _suite_t2_6,
    "T2.9": _suite_t2_9,
    "T2.11": _suite_t2_11,
    "T2.12": _suite_t2_12,
    "R2.14": _suite_r2_14,
    "T2.16": _suite_t2_16,
    "T3.3": _suite_t3_3,
    "T3.5": _suite_t3_5,
    "T3.7-C3.8": _suite_t3_7,
    "T3.9": _suite_t3_9,
    "T3.10": _suite_t3_10,
    "D4.1-C4.5": _suite_d4,
    "FIG1": partial(_suite_fig, which="FIG1"),
    "FIG2": partial(_suite_fig, which="FIG2"),
    "T4.7": _suite_t4_7,
    "T4.8": _suite_t4_8,
}


def suite_ids() -> tuple[str, ...]:
    return tuple(_SUITES)


def run_suite(suite_id: str, seed: int = 42, out_dir=".") -> SuiteReport:
    """Run one suite deterministically under the seed."""
    if suite_id not in _SUITES:
        raise ValueError(f"unknown suite {suite_id!r}; known: {', '.join(_SUITES)}")
    rec = _Recorder(out_dir)
    t0 = time.perf_counter()
    _SUITES[suite_id](rec, seed)
    return SuiteReport(suite_id, seed, rec.checks, time.perf_counter() - t0)


def run_all(seed: int = 42, out_dir=".") -> list[SuiteReport]:
    """Every suite in order, through the module-level :func:`run_suite`."""
    return [run_suite(sid, seed, out_dir) for sid in suite_ids()]
