import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from harmap.catalog import CatalogTag, make
from harmap.classes import RELATIVE_CLASSES, ClassId, ClassName, sample_member, sample_members
import harmap.geometry
from harmap.geometry import (
    DEGENERACY_TOL,
    LOCKSTEP_CIRCLES,
    MARGIN_ANGLES,
    PAIR_CHUNK,
    DegenerateCurveError,
    GRID_ANGLES,
    RADIUS_SCAN_RADII,
    RadiusEstimate,
    SamplingGrid,
    UNIVALENCE_ANGLES,
    convex_margin,
    convex_margins_of,
    radius_estimate,
    starlike_margin,
    starlike_margins_of,
    _circle,
    _crosses,
    _polygon_is_simple,
    _refinement,
    _unit_circle,
    _winding_number,
    univalent_on_circle,
)
from harmap.harmonic import HarmonicMap, analytic_map, eval_map, jacobian, slice_map
from harmap.series import AnalyticSeries


def identity_map(order=8):
    return analytic_map(AnalyticSeries(np.eye(1, order, 0).ravel()))


def rotate(f, alpha):
    """e^{-i a} f(e^{i a} z): h_n -> h_n e^{i(n-1)a}, g_n -> g_n e^{i(n+1)a}."""
    n = np.arange(1, f.order + 1)
    h = f.h.coeffs * np.exp(1j * (n - 1) * alpha)
    g = f.g.coeffs * np.exp(1j * (n + 1) * alpha)
    return HarmonicMap(AnalyticSeries(h), AnalyticSeries(g))


class TestMargins:
    def test_identity_starlike(self):
        for r in (0.2, 0.5, 0.9):
            rep = starlike_margin(identity_map(), r)
            assert rep.min_margin == pytest.approx(1.0)
            assert rep.functional == "starlike"

    def test_identity_convex(self):
        for r in (0.2, 0.5, 0.9):
            assert convex_margin(identity_map(), r).min_margin == pytest.approx(1.0)

    def test_harmonic_koebe_starlike_inside(self):
        K = make(CatalogTag.HARMONIC_KOEBE, 400)
        assert starlike_margin(K, 0.5).min_margin > 0

    def test_koebe_convexity_bracket(self):
        # crossing between 0.2 and 0.3 pins the convexity radius 2 - sqrt(3)
        k = make(CatalogTag.KOEBE, 64)
        assert convex_margin(k, 0.2).min_margin > 0
        assert convex_margin(k, 0.3).min_margin < 0

    def test_transformed_map_loses_starlikeness(self):
        lam = make(CatalogTag.ALEXANDER_PLUS_K, 1536)
        assert starlike_margin(lam, 0.93).min_margin < 0

    def test_transformed_half_plane_loses_convexity(self):
        lam = make(CatalogTag.ALEXANDER_PLUS_L, 1536)
        assert convex_margin(lam, 0.93).min_margin < 0

    def test_witness_attains_margin(self):
        k = make(CatalogTag.KOEBE, 64)
        rep = convex_margin(k, 0.3)
        z = 0.3 * np.exp(1j * rep.witness_angle)
        hp = k.h.derivative()
        val = np.real(1 + z * hp.derivative().evaluate(z) / hp.evaluate(z))
        assert val == pytest.approx(rep.min_margin, abs=1e-12)

    def test_degenerate_curve_error(self):
        # f(z) = z - z^2/0.3 vanishes on the circle r = 0.3 at angle 0
        f = analytic_map(AnalyticSeries([1.0, -1.0 / 0.3]))
        with pytest.raises(DegenerateCurveError):
            starlike_margin(f, 0.3)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            starlike_margin(identity_map(), 1.2)


def one_circle_minimum(kind, f, r):
    """The margin of one circle as computed before margins took several radii.

    The series are evaluated on this circle alone; the functionals, the
    sampled argmin and the refinement, driven point by point by its own
    loop, are the one-radius code the library used, so the several-radii
    margins must match it bit for bit.
    """
    if kind == "starlike":
        series = (f.h, f.h.derivative(), f.g, f.g.derivative())

        def functional(z, h, hp, g, gp):
            fval = h + g.conjugate()
            if np.min(np.abs(fval)) < DEGENERACY_TOL:
                raise DegenerateCurveError(f"curve passes through the origin at r={r}")
            return ((z * hp - (z * gp).conjugate()) / fval).real

    else:
        hp, gp = f.h.derivative(), f.g.derivative()
        series = (hp, hp.derivative(), gp, gp.derivative())

        def functional(z, hp, hpp, gp, gpp):
            T = 1j * (z * hp - (z * gp).conjugate())
            if np.min(np.abs(T)) < DEGENERACY_TOL:
                raise DegenerateCurveError(f"tangent vanishes on the circle r={r}")
            Tp = -(z * hp + z**2 * hpp + (z * gp + z**2 * gpp).conjugate())
            return (Tp / T).imag

    angles = MARGIN_ANGLES
    theta = np.arange(angles) * (2.0 * np.pi / angles)
    z = r * np.exp(1j * theta)
    margin = functional(z, *(s.evaluate(z) for s in series))
    k = int(np.argmin(margin))

    def margin_at(t):
        zt = r * cmath.exp(1j * t)
        return float(functional(zt, *(s.evaluate(zt) for s in series)))

    steps = _refinement(
        float(theta[k]),
        2.0 * np.pi / angles,
        float(margin[k - 1]),
        float(margin[k]),
        float(margin[(k + 1) % angles]),
    )
    try:
        t = next(steps)
        while True:
            t = steps.send(margin_at(t))
    except StopIteration as done:
        angle, value = done.value
    return value, angle % (2.0 * np.pi)


def assert_margins_match_one_circle(f, radii):
    for kind, margins_of in (("starlike", starlike_margins_of), ("convex", convex_margins_of)):
        expected = []
        try:
            for r in radii:
                expected.append(one_circle_minimum(kind, f, r))
        except DegenerateCurveError as exc:
            # the first degenerate radius in order raises, with its own message
            with pytest.raises(DegenerateCurveError) as raised:
                margins_of([f], radii)
            assert str(raised.value) == str(exc)
            continue
        reports = margins_of([f], radii)[0]
        assert [rep.r for rep in reports] == list(radii)
        assert all(rep.functional == kind for rep in reports)
        got = [(rep.min_margin.hex(), rep.witness_angle.hex()) for rep in reports]
        assert got == [(float(v).hex(), float(t).hex()) for v, t in expected]


radius_lists = st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=1, max_size=4)


class TestSeveralRadii:
    @given(
        name=st.sampled_from(
            [ClassName.R_H0, ClassName.W_H0, ClassName.F_H0, ClassName.U_H0, ClassName.V_H0]
        ),
        seed=st.integers(min_value=0, max_value=10**6),
        order=st.integers(min_value=2, max_value=400),
        radii=radius_lists,
    )
    @settings(max_examples=40, deadline=None)
    def test_sampled_members_match_one_circle(self, name, seed, order, radii):
        assert_margins_match_one_circle(sample_member(ClassId(name), seed, order), radii)

    @given(
        tag=st.sampled_from(list(CatalogTag)),
        order=st.integers(min_value=2, max_value=400),
        radii=radius_lists,
    )
    @settings(max_examples=40, deadline=None)
    def test_catalog_maps_match_one_circle(self, tag, order, radii):
        assert_margins_match_one_circle(make(tag, order), radii)

    def test_verify_radii_on_members(self):
        # the (map, radius) lists the verify suites ask for
        for seed in range(3):
            f = sample_member(ClassId(ClassName.U_H0), seed)
            assert_margins_match_one_circle(f, (0.3, 0.6, 0.9, 0.95))
        assert_margins_match_one_circle(make(CatalogTag.ALEXANDER_PLUS_K, 400), (0.90, 0.93, 0.96))

    # The circle scan chooses the points that Horner evaluates; these cases
    # are where its window must be widest.  At orders in the thousands and
    # r near 1 the scanned margin is off by up to 1.6e-3 relative at the
    # minimum (harmonic Koebe, order 4096, convex, r = 0.99), and the scan's
    # own argmin differs from Horner's in 14 of these 96 margins (Koebe,
    # harmonic Koebe, harmonic half-plane and both Alexander maps).
    @pytest.mark.parametrize("order", [1536, 4096])
    def test_ill_conditioned_catalog_maps_match_one_circle(self, order):
        for tag in CatalogTag:
            assert_margins_match_one_circle(make(tag, order), (0.98, 0.99))

    # Real coefficients make the margin even in the angle, so the grid
    # minimum is tied between mirrored points that round differently: for
    # the starlike margin of the half-plane map at order 3, r = 0.5 the
    # scan's argmin is grid point 344 and Horner's 680, so the window must
    # keep both.
    @pytest.mark.parametrize("order", [2, 3, 4, 5, 8, 64])
    def test_mirror_tied_real_maps_match_one_circle(self, order):
        for tag in CatalogTag:
            assert_margins_match_one_circle(make(tag, order), (0.3, 0.5, 0.7, 0.9))
        rng = np.random.default_rng(order)
        n = np.arange(1, order + 1)
        for _ in range(4):
            h = np.concatenate(([1.0], rng.uniform(-0.3, 0.3, order - 1) / n[1:] ** 2))
            g = np.concatenate(([0.0], rng.uniform(-0.3, 0.3, order - 1) / n[1:] ** 2))
            f = HarmonicMap(AnalyticSeries(h), AnalyticSeries(g))
            assert_margins_match_one_circle(f, (0.5, 0.9))

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_degeneracy_near_the_threshold_decided_by_horner(self, side):
        # f = z - (1 + d) z^2 / 0.5 and h' = 1 - (1 + d) z / 0.5 come within
        # 5e-13 < DEGENERACY_TOL of 0 at the grid point z = 0.5, where the
        # margin is far from the minimum when d > 0; d < 0 flips its sign
        d = side * 1e-12
        for c2 in (-2.0 * (1.0 + d), -(1.0 + d)):
            f = analytic_map(AnalyticSeries([1.0, c2]))
            assert_margins_match_one_circle(f, (0.3, 0.5))
        with pytest.raises(DegenerateCurveError, match="r=0.5$"):
            starlike_margins_of([analytic_map(AnalyticSeries([1.0, -2.0 * (1.0 + d)]))], (0.3, 0.5))
        with pytest.raises(DegenerateCurveError, match="r=0.5$"):
            convex_margins_of([analytic_map(AnalyticSeries([1.0, -(1.0 + d)]))], (0.3, 0.5))

    def test_first_degenerate_radius_raises(self):
        # f(z) = z - z^2/r0 vanishes on |z| = r0 at angle 0, for r0 = 0.3 and 0.5
        f = analytic_map(AnalyticSeries([1.0, -1.0 / 0.3]))
        with pytest.raises(DegenerateCurveError, match="r=0.3$"):
            starlike_margins_of([f], (0.2, 0.3, 0.4))
        g = analytic_map(AnalyticSeries([1.0, -1.0 / 0.5]))
        with pytest.raises(DegenerateCurveError, match="r=0.5$"):
            starlike_margins_of([g], (0.5, 0.3))

    def test_one_radius_forms(self):
        f = make(CatalogTag.HARMONIC_KOEBE, 128)
        assert starlike_margin(f, 0.6) == starlike_margins_of([f], [0.6])[0][0]
        assert convex_margin(f, 0.6) == convex_margins_of([f], [0.6])[0][0]

    def test_radius_validation_and_empty_list(self):
        with pytest.raises(ValueError):
            convex_margins_of([identity_map()], (0.5, 1.0))
        assert starlike_margins_of([identity_map()], ())[0] == []


def assert_set_matches_one_by_one(maps, radii):
    """The margins of a set equal the one-circle margins map by map, or raise
    the error the map-by-map loop raises first."""
    for kind, margins_of in (("starlike", starlike_margins_of), ("convex", convex_margins_of)):
        try:
            expected = [[one_circle_minimum(kind, f, r) for r in radii] for f in maps]
        except DegenerateCurveError as exc:
            with pytest.raises(DegenerateCurveError) as raised:
                margins_of(maps, radii)
            assert str(raised.value) == str(exc)
            continue
        got = margins_of(maps, radii)
        assert [[(rep.functional, rep.r) for rep in reps] for reps in got] == [[(kind, r) for r in radii]] * len(maps)
        assert [[(rep.min_margin.hex(), rep.witness_angle.hex()) for rep in reps] for reps in got] == [
            [(float(v).hex(), float(t).hex()) for v, t in row] for row in expected
        ]


MARGIN_CLASSES = [ClassName.R_H0, ClassName.W_H0, ClassName.F_H0, ClassName.U_H0, ClassName.V_H0]


@st.composite
def map_sets(draw, min_size=1, max_size=24):
    """``min_size`` to ``max_size`` maps (1 to 24 by default): sampled members, catalog maps and
    members with g = 0, of orders 2 to 300."""
    maps = []
    for _ in range(draw(st.integers(min_value=min_size, max_value=max_size))):
        kind = draw(st.sampled_from(["member", "catalog", "analytic"]))
        order = draw(st.integers(min_value=2, max_value=300))
        if kind == "catalog":
            maps.append(make(draw(st.sampled_from(list(CatalogTag))), order))
        else:
            f = sample_member(ClassId(draw(st.sampled_from(MARGIN_CLASSES))), draw(st.integers(0, 10**6)), order)
            maps.append(analytic_map(f.h) if kind == "analytic" else f)
    return maps


class TestMarginSets:
    """``starlike_margins_of``/``convex_margins_of`` against the one-circle code, map by map."""

    @given(maps=map_sets(), radii=radius_lists)
    @settings(max_examples=25, deadline=None)
    def test_random_sets_match_one_circle(self, maps, radii):
        assert_set_matches_one_by_one(maps, radii)

    @given(maps=map_sets(min_size=2, max_size=3), radii=radius_lists)
    @settings(max_examples=25, deadline=None)
    def test_small_random_sets_match_one_circle(self, maps, radii):
        # the smallest sets: a row of each map, padding at its end
        assert_set_matches_one_by_one(maps, radii)

    def test_verify_sets_match_one_circle(self):
        # a member chunk as verify passes it: 32 maps at 4 radii
        members = sample_members(ClassId(ClassName.U_H0), range(32), 64)
        assert_set_matches_one_by_one(members, (0.3, 0.6, 0.9, 0.95))

    @pytest.mark.parametrize("lockstep", [1, LOCKSTEP_CIRCLES, 10**9])
    def test_refinement_paths_agree(self, lockstep, monkeypatch):
        # 1: every round batched; the default: large rounds batched, the tail
        # point by point; 10**9: every round point by point
        maps = sample_members(ClassId(ClassName.R_H0), range(10), 64) + sample_members(
            ClassId(ClassName.V_H0), range(10), 200
        )
        maps += [make(CatalogTag.KOEBE, 64), analytic_map(maps[0].h)]
        monkeypatch.setattr(harmap.geometry, "LOCKSTEP_CIRCLES", lockstep)
        assert_set_matches_one_by_one(maps, (0.2, 0.5, 0.8))

    @pytest.mark.parametrize("good", [1, 12])
    def test_degenerate_map_raises_as_the_loop_does(self, good):
        # f = z - z^2/r0 passes through 0 and f' = 1 - z/r0 vanishes at z = r0;
        # the later map's degenerate radius 0.3 comes first in radius order,
        # but the loop over maps raises for the earlier map's 0.5
        members = sample_members(ClassId(ClassName.U_H0), range(good), 64)
        for margins_of, scale in ((starlike_margins_of, 1.0), (convex_margins_of, 0.5)):
            first = analytic_map(AnalyticSeries([1.0, -scale / 0.5]))
            second = analytic_map(AnalyticSeries([1.0, -scale / 0.3]))
            maps = members + [first] + members + [second]
            with pytest.raises(DegenerateCurveError) as loop:
                for f in maps:
                    margins_of([f], (0.3, 0.5, 0.7))
            with pytest.raises(DegenerateCurveError, match="r=0.5$") as whole:
                margins_of(maps, (0.3, 0.5, 0.7))
            assert str(whole.value) == str(loop.value)

    def test_numpy_radii_give_the_python_float_bits(self):
        # a numpy radius once made the point r * exp(i t) a numpy scalar, so the
        # refinement ran in numpy arithmetic and the last bits moved
        radii = (0.3, 0.6, 0.9)
        for seed in range(8):
            f = sample_member(ClassId(ClassName.R_H0), seed, 64)
            for margins_of in (starlike_margins_of, convex_margins_of):
                plain = margins_of([f], radii)[0]
                numpy_radii = margins_of([f], np.array(radii))[0]
                assert all(type(rep.r) is float for rep in numpy_radii)
                assert [(rep.r, rep.min_margin.hex(), rep.witness_angle.hex()) for rep in numpy_radii] == [
                    (rep.r, rep.min_margin.hex(), rep.witness_angle.hex()) for rep in plain
                ]

    def test_empty_sets(self):
        assert starlike_margins_of([], (0.5,)) == []
        assert convex_margins_of([identity_map(), identity_map()], ()) == [[], []]


class TestMarginCrossChecks:
    def test_rotation_invariance(self):
        K = make(CatalogTag.HARMONIC_KOEBE, 128)
        for alpha in (math.pi / 7, math.pi / 3):
            rot = rotate(K, alpha)
            for r in (0.3, 0.6):
                assert starlike_margin(rot, r).min_margin == pytest.approx(
                    starlike_margin(K, r).min_margin, abs=1e-10
                )
                assert convex_margin(rot, r).min_margin == pytest.approx(
                    convex_margin(K, r).min_margin, abs=1e-10
                )

    def test_analytic_specialization(self):
        # for g = 0 the margins reduce to the classical functionals, minimised
        # over the circle: the sampled argmin's bracket is searched by Brent
        rng = np.random.default_rng(5)
        h = (rng.standard_normal(24) + 1j * rng.standard_normal(24)) / np.arange(1, 25) ** 2
        h[0] = 1.0
        f = analytic_map(AnalyticSeries(h))
        hp = f.h.derivative()
        hpp = hp.derivative()
        m = 1024
        theta = np.arange(m) * 2 * np.pi / m

        def circle_min(functional, r):
            k = int(np.argmin(functional(r * np.exp(1j * theta))))
            res = minimize_scalar(
                lambda t: float(functional(r * np.exp(1j * t))),
                bounds=(theta[k] - 2 * np.pi / m, theta[k] + 2 * np.pi / m),
                method="bounded",
                options={"xatol": 1e-12},
            )
            return res.fun

        def star(z):
            return np.real(z * hp.evaluate(z) / f.h.evaluate(z))

        def conv(z):
            return np.real(1 + z * hpp.evaluate(z) / hp.evaluate(z))

        for r in (0.3, 0.6, 0.9):
            assert starlike_margin(f, r).min_margin == pytest.approx(circle_min(star, r), abs=1e-10)
            assert convex_margin(f, r).min_margin == pytest.approx(circle_min(conv, r), abs=1e-10)

    def test_finite_difference_agreement(self):
        # margins equal centered differences of arg f and arg T in theta
        f = make(CatalogTag.HARMONIC_KOEBE, 600)
        r = 0.6
        m = 512
        # the centred difference errs by O(delta^2): about 1e-6 here
        delta = 1e-5
        theta = np.arange(m) * 2 * np.pi / m

        def fval(t):
            z = r * np.exp(1j * t)
            return f.h.evaluate(z) + np.conj(f.g.evaluate(z))

        def tangent(t):
            z = r * np.exp(1j * t)
            hp = f.h.derivative().evaluate(z)
            gp = f.g.derivative().evaluate(z)
            return 1j * (z * hp - np.conj(z * gp))

        star_fd = np.angle(fval(theta + delta) / fval(theta - delta)) / (2 * delta)
        conv_fd = np.angle(tangent(theta + delta) / tangent(theta - delta)) / (2 * delta)

        z = r * np.exp(1j * theta)
        hp = f.h.derivative().evaluate(z)
        gp = f.g.derivative().evaluate(z)
        star = np.real((z * hp - np.conj(z * gp)) / fval(theta))
        hpp = f.h.derivative().derivative().evaluate(z)
        gpp = f.g.derivative().derivative().evaluate(z)
        T = tangent(theta)
        Tp = -(z * hp + z**2 * hpp + np.conj(z * gp + z**2 * gpp))
        conv = np.imag(Tp / T)

        assert np.max(np.abs(star - star_fd)) < 1e-5
        assert np.max(np.abs(conv - conv_fd)) < 1e-5


class TestUnivalence:
    def test_identity_true_everywhere(self):
        for r in (0.1, 0.5, 0.9):
            assert univalent_on_circle(identity_map(), r)

    def test_harmonic_koebe_true_inside(self):
        K = make(CatalogTag.HARMONIC_KOEBE, 400)
        assert univalent_on_circle(K, 0.9)

    def test_collapsed_slice_rejected(self):
        K = make(CatalogTag.HARMONIC_KOEBE, 6000)
        sliced = analytic_map(slice_map(K, 1.0))
        assert not univalent_on_circle(sliced, 0.99)

    def test_collapsed_slice_rejected_inside(self):
        # the unit slice collapses two points, so the circle r = 0.95 fails too
        K = make(CatalogTag.HARMONIC_KOEBE, 3000)
        assert not univalent_on_circle(analytic_map(slice_map(K, 1.0)), 0.95)

    def test_folded_map_rejected(self):
        # h = z + 2 z^2 folds the circle r = 0.9 (derivative vanishes inside)
        f = analytic_map(AnalyticSeries([1.0, 2.0]))
        assert not univalent_on_circle(f, 0.9)

    def test_order_two_koebe_judged_by_its_series(self):
        # make(KOEBE, 2) is the polynomial z + 2 z^2, whose h' vanishes at
        # |z| = 1/4; the Koebe function it truncates is univalent on r = 0.9
        assert not univalent_on_circle(make(CatalogTag.KOEBE, 2), 0.9)

    @pytest.mark.parametrize("r", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_radius_outside_the_disk(self, r):
        with pytest.raises(ValueError):
            univalent_on_circle(identity_map(), r)

    @pytest.mark.parametrize("tag", list(CatalogTag), ids=lambda t: t.value)
    def test_tagged_map_is_judged_as_its_series(self, tag):
        for order in UNIVALENCE_CATALOG_ORDERS:
            f = make(tag, order)
            untagged = HarmonicMap(f.h, f.g)
            for r in UNIVALENCE_RADII:
                assert univalent_on_circle(f, r) == univalent_on_circle(untagged, r), (order, r)

    @pytest.mark.parametrize("source", list(CatalogTag) + list(ClassName), ids=lambda s: s.value)
    def test_scan_matches_horner_reference(self, source):
        answers = [
            (univalent_on_circle(f, r), horner_univalent(f, r))
            for f in univalence_battery(source)
            for r in UNIVALENCE_RADII
        ]
        assert [scan for scan, _ in answers] == [horner for _, horner in answers]


UNIVALENCE_RADII = (0.3, 0.6, 0.9, 0.95, 0.99)
UNIVALENCE_CATALOG_ORDERS = (2, 8, 64, 400)


def horner_univalent(f, r):
    """Reference: the univalence test on Horner values of the untagged map
    at the points of the circle table, through eval_map and jacobian."""
    f = HarmonicMap(f.h, f.g)
    _, z = _circle(r, UNIVALENCE_ANGLES)
    w = eval_map(f, z)
    if np.min(np.abs(w)) < DEGENERACY_TOL:
        return False
    if np.any(jacobian(f, z) <= 0):
        return False
    if abs(_winding_number(w, 0.0) - 1.0) > 0.5:
        return False
    return _polygon_is_simple(w)


def univalence_battery(source):
    """Untagged series of a catalog tag at ``UNIVALENCE_CATALOG_ORDERS``, or
    members of a class at orders 16, 64 and 200 (Koebe reference for the _G
    classes) beside two stretches of each that can break univalence: h's
    nonlinear part times 4, and g times 3."""
    if isinstance(source, CatalogTag):
        return [HarmonicMap(f.h, f.g) for f in (make(source, n) for n in UNIVALENCE_CATALOG_ORDERS)]
    ref = make(CatalogTag.KOEBE, 200).h if source in RELATIVE_CLASSES else None
    maps = []
    for order in (16, 64, 200):
        for f in sample_members(ClassId(source, reference_map=ref), range(2), order):
            h = f.h.coeffs.copy()
            h[1:] *= 4.0
            maps += [f, HarmonicMap(AnalyticSeries(h), f.g), HarmonicMap(f.h, AnalyticSeries(3.0 * f.g.coeffs))]
    return maps


def exact_side(p, q, r):
    """(q - p) x (r - p) in exact rational arithmetic on the float coordinates."""
    (px, py), (qx, qy), (rx, ry) = ((Fraction(z.real), Fraction(z.imag)) for z in (p, q, r))
    return (qx - px) * (ry - py) - (qy - py) * (rx - px)


def exact_crossing(a, b, c, d):
    """Segments ab and cd cross strictly, in exact arithmetic."""
    return exact_side(a, b, c) * exact_side(a, b, d) < 0 and exact_side(c, d, a) * exact_side(c, d, b) < 0


def float_crossing(a, b, c, d):
    return bool(_crosses(*(v for z in (a, b, c, d) for v in (z.real, z.imag))))


def pairwise_is_simple(w):
    """Reference: the strict sign test on every non-adjacent segment pair, one segment at a time.

    A pair that the float test flags counts only if it crosses in exact
    arithmetic too.
    """
    m = w.size
    x, y = w.real, w.imag
    x2, y2 = np.roll(x, -1), np.roll(y, -1)

    def cross(ax, ay, bx, by):
        return ax * by - ay * bx

    for i in range(m - 2):
        j0 = i + 2
        j1 = m if i > 0 else m - 1  # segment (m-1, 0) is adjacent to segment 0
        js = np.arange(j0, j1)
        if js.size == 0:
            continue
        axv, ayv = x[i], y[i]
        bxv, byv = x2[i], y2[i]
        cxv, cyv = x[js], y[js]
        dxv, dyv = x2[js], y2[js]
        d1 = cross(cxv - axv, cyv - ayv, bxv - axv, byv - ayv)
        d2 = cross(dxv - axv, dyv - ayv, bxv - axv, byv - ayv)
        d3 = cross(axv - cxv, ayv - cyv, dxv - cxv, dyv - cyv)
        d4 = cross(bxv - cxv, byv - cyv, dxv - cxv, dyv - cyv)
        flagged = js[(d1 * d2 < 0) & (d3 * d4 < 0)]
        if any(exact_crossing(w[i], w[i + 1], w[j], w[(j + 1) % m]) for j in flagged):
            return False
    return True


def zigzag(n):
    """Integer zig-zag between x = -n and x = n (n even), closed round the right and below.

    Vertex k sits at (s n, s n + k) with s = -1 for even k and +1 for odd
    k: consecutive up and down strokes are parallel and shifted by 2, so
    the chain is simple, and each stroke spans x in [-n, n] and y over
    more than half of [-n, 2n], so the strokes' boxes all overlap.
    """
    k = np.arange(n)
    s = np.where(k % 2, 1, -1)
    chain = s * n + 1j * (s * n + k)
    loop = [2 * n + 2j * n, 2 * n - 3j * n, -2 * n - 3j * n]
    return np.concatenate([chain, loop])


_MEMBER_CLASSES = [ClassId(name) for name in (ClassName.R_H0, ClassName.F_H0, ClassName.U_H0, ClassName.V_H0)]


class TestPolygonTest:
    def test_square_is_simple(self):
        assert _polygon_is_simple(np.array([0, 1, 1 + 1j, 1j]))

    def test_bow_tie_is_not_simple(self):
        assert not _polygon_is_simple(np.array([0, 1 + 1j, 1, 1j]))

    def test_vertex_touching_an_edge_is_not_a_crossing(self):
        # vertex 2 + 0j lies inside edge (0, 4): a tangential contact
        w = np.array([0, 4, 4 + 3j, 2, 3j])
        assert _polygon_is_simple(w)
        assert pairwise_is_simple(w)

    def test_overlapping_boxes_run_through_several_chunks(self):
        n = 1024
        w = zigzag(n)
        for part in (np.real, np.imag):
            ends = part(w[: n - 1]), part(w[1:n])
            assert np.minimum(*ends).max() <= np.maximum(*ends).min()  # the strokes' boxes all overlap
        assert (n - 1) * (n - 2) // 2 > 4 * PAIR_CHUNK
        assert _polygon_is_simple(w) and pairwise_is_simple(w)
        # pull one late vertex down across the strokes below it
        w[n - 5] -= 8j
        assert not _polygon_is_simple(w) and not pairwise_is_simple(w)

    def test_box_disjoint_pair_is_not_tested(self):
        # four points on the line y = x/3, up to rounding: exactly, no two
        # segments cross, but the sign test rounds segments (0, 1) and (2, 3),
        # whose boxes are disjoint, into a crossing; the sweep never tests them
        t = np.array([-8.0, 5.0, 5.5, 6.75])
        w = t + 1j * (t * (1 / 3))
        a, b, c, d = w
        assert not exact_crossing(a, b, c, d)
        assert float_crossing(a, b, c, d)
        assert _polygon_is_simple(w)

    def test_rounded_crossing_of_overlapping_pair_is_retested_exactly(self):
        # w = t + i*pi*t with t sorted as (a, c, b, d) and joined in the
        # order a, b, c, d: segments (b, c) and (d, a) overlap along the
        # line, and the float sign test rounds them into a crossing
        hexes = ("-0x1.2086678b7376cp+1", "0x1.5fcc36841f728p+1", "0x1.2a6361f7f60e0p+0", "0x1.c1f6f364a8c0cp+1")
        t = np.array([float.fromhex(h) for h in hexes])
        a, c, b, d = np.sort(t)
        v = np.array([a, b, c, d])
        w = v + 1j * np.pi * v
        assert float_crossing(w[1], w[2], w[3], w[0])
        assert not exact_crossing(w[1], w[2], w[3], w[0]) and not exact_crossing(*w)
        assert _polygon_is_simple(w)
        # off the line by rounding, such polygons can cross for real; a
        # reported crossing is always an exact one
        rng = np.random.default_rng(0)
        for _ in range(2000):
            a, c, b, d = np.sort(rng.uniform(-10, 10, 4))
            v = np.array([a, b, c, d])
            w = v + 1j * np.pi * v
            if not _polygon_is_simple(w):
                assert exact_crossing(*w) or exact_crossing(w[1], w[2], w[3], w[0])

    @given(
        m=st.integers(3, 400),
        seed=st.integers(0, 2**32 - 1),
        span=st.integers(1, 12),
        star=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_lattice_polygons_agree_exactly(self, m, seed, span, star):
        # small integers: every cross product is exact, and collinear and
        # touching contacts are common; ordering the points by angle about
        # the origin gives polygons that are mostly simple
        p = np.random.default_rng(seed).integers(-span, span + 1, (m, 2)).astype(float)
        w = p[:, 0] + 1j * p[:, 1]
        if star:
            w = w[np.argsort(np.angle(w), kind="stable")]
        assert _polygon_is_simple(w) == pairwise_is_simple(w)

    @given(m=st.integers(3, 400), seed=st.integers(0, 2**32 - 1), star=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_random_walks_agree(self, m, seed, star):
        rng = np.random.default_rng(seed)
        w = np.cumsum(rng.standard_normal(m) + 1j * rng.standard_normal(m))
        if star:
            w = w[np.argsort(np.angle(w - w.mean()), kind="stable")]
        assert _polygon_is_simple(w) == pairwise_is_simple(w)

    @given(
        m=st.integers(3, 400),
        seed=st.integers(0, 2**16),
        cls=st.sampled_from(_MEMBER_CLASSES),
        r=st.floats(0.3, 0.99),
        stretch=st.floats(1.0, 6.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_member_circle_images_agree(self, m, seed, cls, r, stretch):
        # stretch 1 is the member itself; stretching every coefficient past the
        # leading one folds some circle images, so both answers occur
        f = sample_member(cls, seed, 16)
        scale = np.full(f.order, stretch)
        scale[0] = 1.0
        f = HarmonicMap(AnalyticSeries(f.h.coeffs * scale), AnalyticSeries(f.g.coeffs * scale))
        w = np.asarray(eval_map(f, _circle(r, m)[1]))
        assert _polygon_is_simple(w) == pairwise_is_simple(w)


class TestCircleTable:
    @pytest.mark.parametrize("angles", [3, 64, 256, 2048])
    def test_bitwise_equal_to_direct_evaluation(self, angles):
        for r in (0.1, 0.5, 0.9, 0.99, 0.2 + 1e-9):
            theta, z = _circle(r, angles)
            direct = np.arange(angles) * (2.0 * np.pi / angles)
            assert theta.tobytes() == direct.tobytes()
            assert z.tobytes() == (r * np.exp(1j * direct)).tobytes()

    def test_cached_table_is_read_only(self):
        theta, unit = _unit_circle(128)
        assert _unit_circle(128)[0] is theta
        for table in (theta, unit, _circle(0.5, 128)[0]):
            with pytest.raises(ValueError):
                table[0] = 1.0
        assert _circle(0.5, 128)[1].flags.writeable


def sequential_radius_estimate(f, prop, tol=1e-4):
    """``radius_estimate`` as it ran with one margin call per radius: the
    scan, then bisection, each radius asked alone and in the rule's order."""
    holds = {
        "starlike": lambda r: starlike_margin(f, r).min_margin > 0.0,
        "convex": lambda r: convex_margin(f, r).min_margin > 0.0,
        "univalent": lambda r: univalent_on_circle(f, r),
    }[prop]
    if not holds(RADIUS_SCAN_RADII[0]):
        raise ValueError(f"property {prop!r} fails already at the smallest grid radius")
    for lo, hi in zip(RADIUS_SCAN_RADII, RADIUS_SCAN_RADII[1:]):
        if not holds(hi):
            break
    else:
        return RadiusEstimate(prop, 1.0, 1.0, tol)
    while hi - lo > 2.0 * tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return RadiusEstimate(prop, lo, hi, tol)


def assert_estimate_matches_sequential(f, prop, tol=1e-4):
    """The same bracket, bit for bit, or the same error the sequential rule raises."""
    try:
        expected = sequential_radius_estimate(f, prop, tol)
    except (ValueError, DegenerateCurveError) as exc:
        with pytest.raises(type(exc)) as raised:
            radius_estimate(f, prop, tol)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    got = radius_estimate(f, prop, tol)
    assert (got.property, got.lo.hex(), got.hi.hex(), got.tol) == (prop, expected.lo.hex(), expected.hi.hex(), tol)


class TestRadiusEstimate:
    @pytest.mark.parametrize("name", [ClassName.R_H0, ClassName.U_H0, ClassName.V_H0, ClassName.F_H0])
    @pytest.mark.parametrize("order", [2, 16, 64])
    def test_members_match_the_sequential_rule(self, name, order):
        for f in sample_members(ClassId(name), range(2), order):
            for prop in ("starlike", "convex"):
                assert_estimate_matches_sequential(f, prop)

    @pytest.mark.parametrize("tag", [CatalogTag.KOEBE, CatalogTag.HALF_PLANE])
    def test_catalog_maps_match_the_sequential_rule(self, tag):
        for order in (2, 16, 64):
            for prop in ("starlike", "convex", "univalent"):
                assert_estimate_matches_sequential(make(tag, order), prop)
        assert_estimate_matches_sequential(make(tag, 64), "convex", tol=1e-300)

    def test_three_circles_per_margin_call(self, monkeypatch):
        asked = []
        circle_minima = harmap.geometry._circle_minima

        def counted(functional, stacks, radii):
            asked.append(radii)
            return circle_minima(functional, stacks, radii)

        monkeypatch.setattr(harmap.geometry, "_circle_minima", counted)
        radius_estimate(make(CatalogTag.KOEBE, 64), "convex", tol=1e-4)
        # the scan fails at 0.3 (radius 2 - sqrt(3)), then 8 halvings in pairs
        assert asked[:2] == [RADIUS_SCAN_RADII[:3], RADIUS_SCAN_RADII[3:6]]
        assert len(asked) == 6 and all(len(radii) == 3 for radii in asked)

    def test_degenerate_circle_asked_ahead_raises_nothing(self):
        # h = z + z^2/0.3 has h' = 0 at z = -0.15, on the scan radius 0.15 that
        # the scan asks with 0.05 and 0.10; convexity fails at 0.10 first
        f = analytic_map(AnalyticSeries([1.0, 1.0 / 0.3]))
        with pytest.raises(DegenerateCurveError, match="r=0.15$"):
            convex_margin(f, 0.15)
        est = radius_estimate(f, "convex")
        assert (est.lo, est.hi) == (0.07480468750000001, 0.07500000000000001)
        assert_estimate_matches_sequential(f, "convex")

    def test_degenerate_circle_before_the_first_failure_raises(self):
        # f = z + conj(b z^20), b = -1e19, vanishes at z = 0.1 and is starlike on
        # |z| = 0.05, so the rule reaches the degenerate scan radius 0.10
        g = np.zeros(20, dtype=np.complex128)
        g[19] = -1e19
        f = HarmonicMap(AnalyticSeries(np.eye(1, 20, 0).ravel()), AnalyticSeries(g))
        assert starlike_margin(f, 0.05).min_margin > 0.0
        with pytest.raises(DegenerateCurveError, match="r=0.1$"):
            radius_estimate(f, "starlike")
        assert_estimate_matches_sequential(f, "starlike")

    def test_koebe_convexity_radius(self):
        est = radius_estimate(make(CatalogTag.KOEBE, 64), "convex", tol=1e-4)
        assert est.value == pytest.approx(2 - math.sqrt(3), abs=1e-3)
        assert est.hi - est.lo <= 2e-4
        assert est.property == "convex"

    def test_identity_degenerate_full_disk(self):
        est = radius_estimate(identity_map(), "starlike", tol=1e-3)
        assert est.value == 1.0

    def test_tolerance_below_double_spacing_ends_at_adjacent_doubles(self):
        # below the spacing of doubles the midpoint of the last bracket rounds
        # onto an endpoint, so halving until hi - lo <= 2 tol would not end
        est = radius_estimate(make(CatalogTag.KOEBE, 64), "convex", tol=1e-300)
        assert est.hi == np.nextafter(est.lo, 1.0)
        assert est.lo == pytest.approx(2 - math.sqrt(3), abs=1e-3)

    def test_macgregor_convexity_one_sided(self):
        est = radius_estimate(make(CatalogTag.MACGREGOR_R, 256), "convex", tol=1e-4)
        assert est.value >= math.sqrt(2) - 1 - 1e-3

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            radius_estimate(identity_map(), "convex", tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="positive and finite"):
            radius_estimate(make(CatalogTag.KOEBE, 64), "convex", tol=tol)

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            radius_estimate(identity_map(), "bounded", tol=1e-3)

    def test_fails_at_min_radius(self):
        # h = z + 15 z^2 has a critical point at |z| = 1/30, inside the first
        # scan radius 0.05, where Re(z h'/h) = -2 at z = -0.05
        h = np.zeros(8, dtype=np.complex128)
        h[0], h[1] = 1.0, 15.0
        f = analytic_map(AnalyticSeries(h))
        assert starlike_margin(f, 0.05).min_margin < 0
        with pytest.raises(ValueError, match="smallest grid radius"):
            radius_estimate(f, "starlike", tol=1e-3)
        assert_estimate_matches_sequential(f, "starlike", tol=1e-3)


class TestSamplingGrid:
    def test_validation(self):
        for radius in (0.0, -0.5, 1.0, 1.5):
            with pytest.raises(ValueError):
                SamplingGrid(radius=radius)
        assert SamplingGrid(radius=1 / 2).radius == 0.5

    def test_points_layout(self):
        grid = SamplingGrid(radius=0.25)
        pts = grid.points()
        assert pts.shape == (GRID_ANGLES,) == (256,)
        assert pts[0] == pytest.approx(0.25)
        assert pts[64] == pytest.approx(0.25j)
        assert pts.tobytes() == _circle(0.25, GRID_ANGLES)[1].tobytes()
