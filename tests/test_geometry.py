import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from harmap.catalog import CatalogTag, make
from harmap.classes import ClassId, ClassName, sample_member
from harmap.geometry import (
    DEGENERACY_TOL,
    MARGIN_ANGLES,
    PAIR_CHUNK,
    DegenerateCurveError,
    RootNotFoundError,
    GRID_ANGLES,
    SamplingGrid,
    convex_margin,
    convex_margins,
    radius_estimate,
    smallest_positive_root,
    starlike_margin,
    starlike_margins,
    _circle,
    _crosses,
    _polygon_is_simple,
    _refine_minimum,
    _unit_circle,
    univalent_on_circle,
)
from harmap.harmonic import HarmonicMap, analytic_map, eval_map, slice_map
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
    sampled argmin and ``_refine_minimum`` are the one-radius code the
    library used, so the several-radii margins must match it bit for bit.
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

    angle, value = _refine_minimum(
        margin_at,
        float(theta[k]),
        2.0 * np.pi / angles,
        float(margin[k - 1]),
        float(margin[k]),
        float(margin[(k + 1) % angles]),
    )
    return value, angle % (2.0 * np.pi)


def assert_margins_match_one_circle(f, radii):
    for kind, margins in (("starlike", starlike_margins), ("convex", convex_margins)):
        expected = []
        try:
            for r in radii:
                expected.append(one_circle_minimum(kind, f, r))
        except DegenerateCurveError as exc:
            # the first degenerate radius in order raises, with its own message
            with pytest.raises(DegenerateCurveError) as raised:
                margins(f, radii)
            assert str(raised.value) == str(exc)
            continue
        reports = margins(f, radii)
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
            starlike_margins(analytic_map(AnalyticSeries([1.0, -2.0 * (1.0 + d)])), (0.3, 0.5))
        with pytest.raises(DegenerateCurveError, match="r=0.5$"):
            convex_margins(analytic_map(AnalyticSeries([1.0, -(1.0 + d)])), (0.3, 0.5))

    def test_first_degenerate_radius_raises(self):
        # f(z) = z - z^2/r0 vanishes on |z| = r0 at angle 0, for r0 = 0.3 and 0.5
        f = analytic_map(AnalyticSeries([1.0, -1.0 / 0.3]))
        with pytest.raises(DegenerateCurveError, match="r=0.3$"):
            starlike_margins(f, (0.2, 0.3, 0.4))
        g = analytic_map(AnalyticSeries([1.0, -1.0 / 0.5]))
        with pytest.raises(DegenerateCurveError, match="r=0.5$"):
            starlike_margins(g, (0.5, 0.3))

    def test_one_radius_forms(self):
        f = make(CatalogTag.HARMONIC_KOEBE, 128)
        assert starlike_margin(f, 0.6) == starlike_margins(f, [0.6])[0]
        assert convex_margin(f, 0.6) == convex_margins(f, [0.6])[0]

    def test_radius_validation_and_empty_list(self):
        with pytest.raises(ValueError):
            convex_margins(identity_map(), (0.5, 1.0))
        assert starlike_margins(identity_map(), ()) == []


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


class TestRadiusEstimate:
    def test_koebe_convexity_radius(self):
        est = radius_estimate(make(CatalogTag.KOEBE, 64), "convex", tol=1e-4)
        assert est.value == pytest.approx(2 - math.sqrt(3), abs=1e-3)
        assert est.hi - est.lo <= 2e-4
        assert est.property == "convex"

    def test_identity_degenerate_full_disk(self):
        est = radius_estimate(identity_map(), "starlike", tol=1e-3)
        assert est.value == 1.0

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


def scan_bisect_root(poly_coeffs, scan_step=1e-3, tol=1e-12):
    """Reference root finder: the same scan, then a bisection loop of its own."""
    coeffs = np.asarray(poly_coeffs, dtype=np.float64)

    def p(x):
        return np.polynomial.polynomial.polyval(x, coeffs)

    xs = np.arange(0.0, 1.0 + scan_step / 2, scan_step)
    vals = p(xs)
    for x, v in zip(xs[1:-1], vals[1:-1]):
        if v == 0.0:
            return float(x)
    bracket = None
    for k in range(len(xs) - 1):
        if vals[k] * vals[k + 1] < 0.0:
            bracket = (xs[k], xs[k + 1])
            break
    if bracket is None:
        raise RootNotFoundError("no sign change in (0, 1)")
    lo, hi = bracket
    flo = p(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = p(mid)
        if fm == 0.0:
            return float(mid)
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def root_or_none(finder, coeffs):
    try:
        return finder(coeffs)
    except RootNotFoundError:
        return None


class TestRootFinding:
    def test_matches_the_scan_bisect_reference_bitwise(self):
        rng = np.random.default_rng(20)
        polys = []
        for _ in range(600):
            # a random factor times (x - r), r in (0, 1): a root is always bracketed
            factor = rng.standard_normal(rng.integers(1, 7))
            polys.append(np.polynomial.polynomial.polymul(factor, [-rng.uniform(0.0, 1.0), 1.0]))
        polys += [rng.standard_normal(rng.integers(2, 9)) for _ in range(400)]
        # roots at bisection midpoints are met exactly: x - m vanishes at m
        xs = np.arange(0.0, 1.0005, 1e-3)
        for k in rng.integers(0, 1000, 50):
            lo, hi = xs[k], xs[k + 1]
            for _ in range(rng.integers(1, 6)):
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if rng.random() < 0.5 else (mid, hi)
            polys.append([-0.5 * (lo + hi), 1.0])
        found = 0
        for coeffs in polys:
            got = root_or_none(smallest_positive_root, coeffs)
            want = root_or_none(scan_bisect_root, coeffs)
            if want is None:
                assert got is None
                continue
            found += 1
            assert type(got) is type(want)
            assert float(got).hex() == float(want).hex()
        assert found > 700

    def test_quartic_root(self):
        coeffs = [-4.0, 4.0, 13.0, 2.0, 1.0]
        root = smallest_positive_root(coeffs)
        assert 0.40 < root < 0.42
        assert abs(np.polyval(coeffs[::-1], root)) < 1e-10
        # independent oracle: companion-matrix roots
        np_roots = np.roots(coeffs[::-1])
        target = min(r.real for r in np_roots if abs(r.imag) < 1e-9 and 0 < r.real < 1)
        assert root == pytest.approx(target, abs=1e-10)

    def test_simple_quadratic(self):
        assert smallest_positive_root([-0.25, 0.0, 1.0]) == pytest.approx(0.5, abs=1e-12)

    def test_endpoint_root_excluded(self):
        with pytest.raises(RootNotFoundError):
            smallest_positive_root([-1.0, 1.0])  # root exactly at x = 1

    def test_no_root(self):
        with pytest.raises(RootNotFoundError):
            smallest_positive_root([1.0, 1.0])


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
