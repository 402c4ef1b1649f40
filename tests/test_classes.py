import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import spence

from harmap.catalog import CatalogTag, make
from harmap import classes
from harmap.classes import (
    ClassId,
    ClassName,
    SingularReferenceError,
    coefficient_bound_check,
    growth_envelope,
    membership,
    memberships,
    sample_member,
    sample_members,
)
from harmap.harmonic import HarmonicMap, analytic_map, harmonic_convolve, slice_map
from harmap.series import AnalyticSeries


def quad_conj_map(order=8, c=0.5):
    """z + conj(c z^2), by default z + conj(z^2)/2."""
    h = np.zeros(order, dtype=np.complex128)
    g = np.zeros(order, dtype=np.complex128)
    h[0], g[1] = 1.0, c
    return HarmonicMap(AnalyticSeries(h), AnalyticSeries(g))


def grid_slack(f, cid, z):
    """The slack of f's defining pair at the points z, evaluated by Horner at all of them."""
    u, v = (s.evaluate(z) for s in classes._defining_pair(f, cid))
    if cid.reference_map is not None:
        gref = cid.reference_map.derivative().evaluate(z)
        u, v = u / gref, v / gref
    return classes._slack(cid, u, v)


class TestMembership:
    def test_quad_conj_in_R(self):
        # h' = 1, g' = z: slack is 1 - |z|, minimized at the outer radius
        res = membership(quad_conj_map(), ClassId(ClassName.R_H0))
        assert res.is_member
        assert res.margin == pytest.approx(0.01, abs=1e-12)
        assert abs(res.witness) == pytest.approx(0.99)

    def test_u_sharp_boundary(self):
        res = membership(make(CatalogTag.U_SHARP, 8), ClassId(ClassName.U_H0))
        assert res.is_member
        assert res.margin == 0.0
        assert res.status == "boundary"
        assert res.witness == 2

    def test_u_sharp_not_in_V(self):
        res = membership(make(CatalogTag.U_SHARP, 8), ClassId(ClassName.V_H0))
        assert not res.is_member
        assert res.margin == pytest.approx(-1.0)

    def test_F_class(self):
        res = membership(quad_conj_map(), ClassId(ClassName.F_H0))
        assert res.is_member
        assert res.margin == pytest.approx(0.01, abs=1e-12)

    def test_W_class_extremal(self):
        res = membership(make(CatalogTag.CHICHRA_W, 2048), ClassId(ClassName.W_H0))
        assert res.is_member

    def test_W_class_order_two(self):
        # (z h')' = 1 + 0.4z and (z g')' = 0.2z: slack 1 - 4 (0.1 + 0.05) 0.99 at z = -0.99
        f = HarmonicMap(AnalyticSeries([1.0, 0.1]), AnalyticSeries([0.0, 0.05]))
        res = membership(f, ClassId(ClassName.W_H0))
        assert res.status == "member"
        assert res.margin == pytest.approx(1 - 4 * (0.1 + 0.05) * 0.99, abs=1e-12)
        assert res.witness == pytest.approx(-0.99)

    def test_S_R_semantics(self):
        assert membership(make(CatalogTag.KOEBE, 8), ClassId(ClassName.S_R)).is_member
        assert not membership(quad_conj_map(), ClassId(ClassName.S_R)).is_member
        h = np.zeros(8, dtype=np.complex128)
        h[0], h[2] = 1.0, 0.3j
        res = membership(analytic_map(AnalyticSeries(h)), ClassId(ClassName.S_R))
        assert not res.is_member
        assert res.witness == 3

    @pytest.mark.parametrize(
        "name", [ClassName.R_H0, ClassName.W_H0, ClassName.F_H0, ClassName.R_H0_G, ClassName.F_H0_G]
    )
    def test_identity_of_order_one_in_grid_classes(self, name):
        # h' = 1 and g' = 0: the pair is (1, 0), slack 1 everywhere
        ref = AnalyticSeries([1.0]) if name in classes.RELATIVE_CLASSES else None
        res = membership(analytic_map(AnalyticSeries([1.0])), ClassId(name, reference_map=ref))
        assert (res.status, res.margin) == ("member", 1.0)

    @pytest.mark.parametrize("name", [ClassName.U_H0, ClassName.V_H0])
    def test_order_one_witness_within_the_order(self, name):
        res = membership(analytic_map(AnalyticSeries([1.0])), ClassId(name))
        assert (res.status, res.margin, res.witness) == ("member", 1.0, 1)

    def test_S_R_zero_margin_is_positive_zero(self):
        for f in (analytic_map(AnalyticSeries([1.0])), make(CatalogTag.KOEBE, 8)):
            res = membership(f, ClassId(ClassName.S_R))
            assert res.status == "member"
            assert math.copysign(1.0, res.margin) == 1.0

    def test_requires_normalized(self):
        h = np.zeros(4, dtype=np.complex128)
        h[0] = 2.0
        with pytest.raises(ValueError):
            membership(analytic_map(AnalyticSeries(h)), ClassId(ClassName.R_H0))

    def test_relative_class_needs_reference(self):
        with pytest.raises(ValueError):
            ClassId(ClassName.R_H0_G)

    def test_singular_reference(self):
        # G' = 1 - 5z vanishes at z = 0.2, inside the certifying circle |z| = 0.75
        for name in (ClassName.R_H0_G, ClassName.F_H0_G):
            cid = ClassId(name, reference_map=AnalyticSeries([1.0, -2.5]))
            with pytest.raises(SingularReferenceError, match="on or inside"):
                membership(quad_conj_map(), cid)

    @pytest.mark.parametrize("name", [ClassName.R_H0_G, ClassName.F_H0_G])
    def test_reference_zero_between_grid_points(self, name):
        # G' = 1 - z/z0 vanishes at z0, off every circle and angle of a
        # polar grid; only the winding of G' about 0 along |z| = 0.75 sees it
        z0 = 0.45 * np.exp(0.3j)
        cid = ClassId(name, reference_map=AnalyticSeries([1.0, -0.5 / z0]))
        assert np.min(np.abs(cid.reference_map.derivative().evaluate(classes.G_VARIANT_GRID.points()))) > 0.5
        for f in (quad_conj_map(), sample_member(cid, 3)):
            with pytest.raises(SingularReferenceError):
                membership(f, cid)

    def test_relative_class_reduces_to_plain_for_identity_reference(self):
        ref = AnalyticSeries(np.eye(1, 8, 0).ravel())  # G(z) = z
        cid = ClassId(ClassName.R_H0_G, reference_map=ref)
        z = classes.G_VARIANT_GRID.points()
        plain = grid_slack(quad_conj_map(), ClassId(ClassName.R_H0), z)
        relative = membership(quad_conj_map(8), cid)
        assert relative.is_member
        assert relative.margin == pytest.approx(plain.min(), abs=1e-12)
        assert relative.margin == pytest.approx(0.25, abs=1e-12)


#: polar grids of the closed disks of DEFAULT_GRID and G_VARIANT_GRID, 11 and 8 circles
POLAR_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
RELATIVE_POLAR_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75)


class TestMinimumPrinciple:
    """The margin on the certifying circle equals the minimum over a polar grid of the disk, bit for bit."""

    @staticmethod
    def polar_minimum(f, cid, radii):
        grid = classes._certifying_grid(cid)
        z = np.concatenate([grid.circle(r) for r in radii])
        return float(np.min(grid_slack(f, cid, z)))

    @pytest.mark.parametrize("name", [ClassName.R_H0, ClassName.W_H0, ClassName.F_H0])
    def test_sampled_members(self, name):
        cid = ClassId(name)
        for seed in range(40):
            f = sample_member(cid, seed, 64)
            assert membership(f, cid).margin == self.polar_minimum(f, cid, POLAR_RADII)

    @pytest.mark.parametrize("name", [ClassName.R_H0_G, ClassName.F_H0_G])
    def test_sampled_relative_members(self, name):
        # the four reference maps of the T4.7/T4.8 suites
        n = np.arange(2, 201)
        re_half = np.concatenate(([1.0], 0.45 * 0.5 ** (n - 1) / n))
        refs = [make(tag, 200).h for tag in (CatalogTag.KOEBE, CatalogTag.HALF_PLANE, CatalogTag.MACGREGOR_R)]
        for ref in refs + [AnalyticSeries(re_half)]:
            cid = ClassId(name, reference_map=ref)
            for seed in range(8):
                f = sample_member(cid, seed, 200)
                assert membership(f, cid).margin == self.polar_minimum(f, cid, RELATIVE_POLAR_RADII)


class TestDefiningPair:
    """The W_H0 pair ((z h')', (z g')') against h' + z h'' and g' + z g'' summed as four series."""

    @staticmethod
    def four_series_slack(f, z):
        hp, gp = f.h.derivative(), f.g.derivative()
        hval = hp.evaluate(z) + z * hp.derivative().evaluate(z)
        gval = gp.evaluate(z) + z * gp.derivative().evaluate(z)
        return np.real(hval) - np.abs(gval)

    def test_W_pair_matches_four_series(self):
        cid = ClassId(ClassName.W_H0)
        z = classes.DEFAULT_GRID.points()
        maps = [sample_member(cid, seed) for seed in range(40)] + [make(CatalogTag.CHICHRA_W, 2048)]
        for f in maps:
            reference = self.four_series_slack(f, z)
            gap = np.max(np.abs(grid_slack(f, cid, z) - reference))
            assert gap <= 1e-13 * np.max(np.abs(reference))


class TestCoefficientBounds:
    def test_macgregor_tight(self):
        f = make(CatalogTag.MACGREGOR_R, 64)
        report = coefficient_bound_check(f, ClassId(ClassName.R_H0), 32)
        assert report.ok
        np.testing.assert_allclose(report.gaps, report.bounds, atol=1e-15)

    def test_chichra_tight(self):
        f = make(CatalogTag.CHICHRA_W, 64)
        report = coefficient_bound_check(f, ClassId(ClassName.W_H0), 32)
        assert report.ok
        np.testing.assert_allclose(report.gaps, report.bounds, atol=1e-15)

    def test_violation_reported(self):
        f = make(CatalogTag.KOEBE, 16)
        report = coefficient_bound_check(f, ClassId(ClassName.U_H0), 8)
        assert not report.ok
        assert report.violations[0][0] == 2

    def test_sampled_members_respect_bounds(self):
        for name in (ClassName.U_H0, ClassName.V_H0):
            cid = ClassId(name)
            for seed in range(50):
                f = sample_member(cid, seed)
                assert coefficient_bound_check(f, cid, 32).ok

    def test_n_max_validation(self):
        f = make(CatalogTag.KOEBE, 8)
        with pytest.raises(ValueError):
            coefficient_bound_check(f, ClassId(ClassName.R_H0), 9)
        # a slice end below 2 would count from the end of the coefficients
        for n_max in (-3, 0, 1):
            with pytest.raises(ValueError, match=f"at least 2, got {n_max}$"):
                coefficient_bound_check(make(CatalogTag.MACGREGOR_R, 5), ClassId(ClassName.R_H0), n_max)

    @pytest.mark.parametrize("name", [ClassName.F_H0, ClassName.S_R, ClassName.F_H0_G])
    def test_class_without_gap_bound(self, name):
        ref = make(CatalogTag.KOEBE, 8).h if name is ClassName.F_H0_G else None
        with pytest.raises(ValueError, match="no coefficient bound table"):
            coefficient_bound_check(make(CatalogTag.KOEBE, 8), ClassId(name, reference_map=ref), 4)


class TestGrowthEnvelope:
    def test_R_limit(self):
        lo, hi = growth_envelope(ClassId(ClassName.R_H0), 1.0)
        assert lo == pytest.approx(2 * math.log(2) - 1, abs=1e-9)
        assert hi == math.inf

    def test_W_limit_quadrature_vs_dilogarithm(self):
        lo, _ = growth_envelope(ClassId(ClassName.W_H0), 1.0)
        assert lo == pytest.approx(math.pi**2 / 6 - 1, abs=1e-6)
        # independent oracles: the envelopes are -r - 2 Li2(-r) and
        # -r + 2 Li2(r), here from scipy's complex dilogarithm and mpmath
        r = 0.7
        lo_r, hi_r = growth_envelope(ClassId(ClassName.W_H0), r)
        li2 = lambda x: float(np.real(spence(complex(1 - x, 0))))
        assert lo_r == pytest.approx(-r - 2 * li2(-r), abs=1e-10)
        assert hi_r == pytest.approx(-r + 2 * li2(r), abs=1e-10)
        # on (0, 1], r = 1 included: Li2(-r) from the series, Li2(r) from the
        # series, the reflection and Li2(1) = pi^2/6
        radii = np.concatenate([10.0 ** -np.arange(1, 13), np.linspace(0.005, 1.0, 200), [0.01, 0.3, 0.7, 0.97]])
        with mpmath.workdps(40):
            for r in map(float, radii):
                lo_r, hi_r = growth_envelope(ClassId(ClassName.W_H0), r)
                assert lo_r == pytest.approx(float(-r - 2 * mpmath.polylog(2, -r)), rel=2e-15, abs=0.0)
                assert hi_r == pytest.approx(float(-r + 2 * mpmath.polylog(2, r)), rel=2e-15, abs=0.0)

    def test_U_V_limits(self):
        assert growth_envelope(ClassId(ClassName.U_H0), 1.0)[0] == 0.5
        assert growth_envelope(ClassId(ClassName.V_H0), 1.0)[0] == 0.75

    def test_monotone_ordering(self):
        for name in (ClassName.R_H0, ClassName.W_H0, ClassName.U_H0, ClassName.V_H0):
            lo, hi = growth_envelope(ClassId(name), 0.5)
            assert lo < hi

    @pytest.mark.parametrize("r", [0.0, -0.5, 1.1])
    def test_domain_validation(self, r):
        with pytest.raises(ValueError):
            growth_envelope(ClassId(ClassName.R_H0), r)

    def test_unsupported_class(self):
        with pytest.raises(ValueError):
            growth_envelope(ClassId(ClassName.S_R), 0.5)


class TestClassId:
    @pytest.mark.parametrize("name", [ClassName.R_H0_G, ClassName.F_H0_G])
    def test_reference_classes_need_a_reference(self, name):
        with pytest.raises(ValueError, match="requires a reference map"):
            ClassId(name)

    @pytest.mark.parametrize("name", sorted(set(ClassName) - {ClassName.R_H0_G, ClassName.F_H0_G}))
    def test_other_classes_refuse_a_reference(self, name):
        # the class would ignore it in membership, while the sampler would
        # multiply its draw through G' and leave the class
        with pytest.raises(ValueError, match="takes no reference map"):
            ClassId(name, reference_map=make(CatalogTag.KOEBE, 64).h)
        assert ClassId(name).reference_map is None


class TestSampling:
    @pytest.mark.parametrize(
        "name",
        [ClassName.R_H0, ClassName.W_H0, ClassName.F_H0, ClassName.U_H0, ClassName.V_H0, ClassName.S_R],
    )
    def test_samples_pass_membership(self, name):
        cid = ClassId(name)
        for seed in (0, 1, 7, 1234):
            assert membership(sample_member(cid, seed), cid).is_member

    def test_deterministic(self):
        a = sample_member(ClassId(ClassName.U_H0), 99)
        b = sample_member(ClassId(ClassName.U_H0), 99)
        np.testing.assert_array_equal(a.h.coeffs, b.h.coeffs)
        np.testing.assert_array_equal(a.g.coeffs, b.g.coeffs)

    def test_relative_samples(self):
        ref = make(CatalogTag.HALF_PLANE, 128).h
        cid = ClassId(ClassName.R_H0_G, reference_map=ref)
        f = sample_member(cid, 5, order=128)
        assert membership(f, cid).is_member

    @pytest.mark.parametrize("name", list(ClassName))
    def test_memoised_draws_equal_fresh_draws(self, name):
        # a draw repeated among other draws, as a verify run repeats it,
        # equals its first draw bit for bit
        ref = make(CatalogTag.KOEBE, 64).h if name in (ClassName.R_H0_G, ClassName.F_H0_G) else None
        cid = ClassId(name, reference_map=ref)
        first = {}
        for seed in (0, 3, 0, 3, 11):
            for order in (2, 64):
                drawn = sample_member(cid, seed, order)
                fresh = first.setdefault((seed, order), drawn)
                assert drawn.h.coeffs.tobytes() == fresh.h.coeffs.tobytes()
                assert drawn.g.coeffs.tobytes() == fresh.g.coeffs.tobytes()
        assert len(first) == 6

    def test_each_draw_evaluates_one_circle(self, monkeypatch):
        grids = []
        grid_scale = classes._grid_scale

        def counted(name, grid, *args):
            grids.append(grid)
            return grid_scale(name, grid, *args)

        monkeypatch.setattr(classes, "_grid_scale", counted)
        for _ in range(3):
            sample_member(ClassId(ClassName.W_H0), 5)
        sample_member(ClassId(ClassName.F_H0_G, reference_map=make(CatalogTag.KOEBE, 64).h), 5)
        sample_member(ClassId(ClassName.U_H0), 5)  # a coefficient class evaluates nothing
        assert grids == [classes.DEFAULT_GRID] * 3 + [classes.G_VARIANT_GRID]
        assert all(grid.points().shape == (256,) for grid in grids)

    def test_scale_does_not_depend_on_the_reference(self):
        # h'/G' = 1 + s*q at every point, with q and s drawn without the reference
        z = 0.5 * np.exp(2j * np.pi * np.arange(64) / 64)
        ratios = []
        for tag in (CatalogTag.HALF_PLANE, CatalogTag.KOEBE):
            ref = make(tag, 64).h
            f = sample_member(ClassId(ClassName.F_H0_G, reference_map=ref), 1)
            ratios.append(f.h.derivative().evaluate(z) / ref.derivative().evaluate(z))
        np.testing.assert_allclose(ratios[0], ratios[1], rtol=1e-12)

    @pytest.mark.parametrize("name", list(ClassName))
    def test_order_one_draw_is_the_identity(self, name):
        # G' = 1 + 0.45 (z/2) / (1 - z/2) has Re G' > 1/2, so 1/G' satisfies
        # both relative conditions and z is a member of the _G classes too
        n = np.arange(2, 65)
        ref = AnalyticSeries(np.concatenate(([1.0], 0.45 * 0.5 ** (n - 1) / n)))
        cid = ClassId(name, reference_map=ref if name in classes.RELATIVE_CLASSES else None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = sample_member(cid, 3, order=1)
        assert f.order == 1 and f.h.coeffs.tolist() == [1.0] and f.g.coeffs.tolist() == [0.0]
        assert membership(f, cid).is_member

    def test_order_one_relative_draw_needs_a_suitable_reference(self):
        # with the half-plane reference, h'/G' = (1 - z)^2 has a negative real part at z = 0.75
        cid = ClassId(ClassName.R_H0_G, reference_map=make(CatalogTag.HALF_PLANE, 64).h)
        assert not membership(sample_member(cid, 3, order=1), cid).is_member

    @pytest.mark.parametrize("order", [0, -2])
    def test_order_below_one_rejected(self, order):
        with pytest.raises(ValueError, match=f"got {order}$"):
            sample_member(ClassId(ClassName.R_H0), 0, order=order)

    # The scale is chosen on the circle scan and the margin is reported by
    # Horner, so the documented range holds to rounding, not exactly.
    @pytest.mark.parametrize("name", [ClassName.R_H0, ClassName.W_H0, ClassName.F_H0])
    @pytest.mark.parametrize("order", [2, 64])
    def test_derivative_draws_land_in_the_target_range(self, name, order):
        cid = ClassId(name)
        for seed in range(100):
            assert 0.1 - 1e-12 <= membership(sample_member(cid, seed, order), cid).margin <= 0.7 + 1e-12

    @pytest.mark.parametrize("name", [ClassName.R_H0_G, ClassName.F_H0_G])
    def test_relative_draws_land_in_the_target_range(self, name):
        # the four reference maps of the T4.7/T4.8 suites
        n = np.arange(2, 201)
        re_half = np.concatenate(([1.0], 0.45 * 0.5 ** (n - 1) / n))
        refs = [make(tag, 200).h for tag in (CatalogTag.KOEBE, CatalogTag.HALF_PLANE, CatalogTag.MACGREGOR_R)]
        for ref in refs + [AnalyticSeries(re_half)]:
            cid = ClassId(name, reference_map=ref)
            for seed in range(25):
                assert 0.1 - 1e-12 <= membership(sample_member(cid, seed, 200), cid).margin <= 0.7 + 1e-12

    def test_growth_envelope_respected_by_R_samples(self):
        cid = ClassId(ClassName.R_H0)
        angles = np.exp(2j * np.pi * np.arange(64) / 64)
        for seed in range(25):
            f = sample_member(cid, seed)
            for r in (0.25, 0.5, 0.75):
                lo, hi = growth_envelope(cid, r)
                vals = np.abs(f.h.evaluate(r * angles) + np.conj(f.g.evaluate(r * angles)))
                assert vals.min() >= lo - 1e-9
                assert vals.max() <= hi + 1e-9


class TestClosures:
    def test_slice_rotation_closure(self):
        for name in (ClassName.R_H0, ClassName.U_H0):
            cid = ClassId(name)
            f = sample_member(cid, 11)
            for lam in np.exp(2j * np.pi * np.arange(16) / 16):
                rotated = HarmonicMap(f.h, AnalyticSeries(lam * f.g.coeffs))
                assert membership(rotated, cid).is_member

    def test_convolution_closure_spot(self):
        cid = ClassId(ClassName.U_H0)
        vid = ClassId(ClassName.V_H0)
        for seed in range(10):
            f = sample_member(cid, 2 * seed)
            F = sample_member(cid, 2 * seed + 1)
            conv = harmonic_convolve(f, F)
            assert membership(conv, cid).is_member
            assert membership(conv, vid).is_member

    def test_v_quadratic_slice_sum(self):
        cid = ClassId(ClassName.V_H0)
        for seed in range(10):
            f = sample_member(cid, seed)
            for eps in (1.0, 1j, -1.0, np.exp(0.3j)):
                s = slice_map(f, eps)
                n = np.arange(2, s.order + 1)
                assert np.sum(n**2 * np.abs(s.coeffs[1:]) ** 2) <= 1.0 + 1e-12


def _set_form_class(name):
    ref = make(CatalogTag.KOEBE, 64).h if name in classes.RELATIVE_CLASSES else None
    return ClassId(name, reference_map=ref)


def assert_set_matches_one_map_calls(maps, cid):
    """``memberships`` of the set equals ``membership`` of each map, bit for bit."""
    results = memberships(maps, cid)
    assert len(results) == len(maps)
    for f, res in zip(maps, results):
        alone = membership(f, cid)
        assert (res.is_member, res.status, res.witness) == (alone.is_member, alone.status, alone.witness)
        assert res.margin.hex() == alone.margin.hex()
    return results


class TestSetForms:
    """``sample_members`` and ``memberships`` are the one-map calls, applied to a set."""

    # 2 and 3 are the smallest sets that take their points from the circle scan
    SIZES = (0, 1, 2, 3, 31, 32, 33)

    @pytest.mark.parametrize("order", [1, 2, 5, 64, 200])
    @pytest.mark.parametrize("name", list(ClassName))
    def test_sets_equal_one_map_calls(self, name, order):
        cid = _set_form_class(name)
        start = 0
        for size in self.SIZES:
            seeds = range(start, start + size)
            start += size
            drawn = sample_members(cid, seeds, order)
            assert len(drawn) == size
            for f, seed in zip(drawn, seeds):
                alone = sample_member(cid, seed, order)
                assert f.h.coeffs.tobytes() == alone.h.coeffs.tobytes()
                assert f.g.coeffs.tobytes() == alone.g.coeffs.tobytes()
            # perturbed maps too, so that some of the set fall outside the class
            maps = drawn + [HarmonicMap(f.h, AnalyticSeries(3.0 * f.g.coeffs)) for f in drawn[::3]]
            assert_set_matches_one_map_calls(maps, cid)

    @pytest.mark.parametrize("name", [ClassName.R_H0, ClassName.W_H0, ClassName.F_H0])
    def test_boundary_band_in_a_set(self, name):
        # z + conj(c z^2) has slack 1 - 1.98 c (R_H0, F_H0) or 1 - 3.96 c (W_H0) at
        # every point of |z| = 0.99, so its minimum is a tie of all 256 points
        cs = [1 / 1.98 - 2e-10, 1 / 1.98 - 4e-10, 1 / 3.96 - 1e-10, 1 / 3.96 - 2e-10, 1 / 1.98 - 1e-9, 0.25, 0.6]
        cid = ClassId(name)
        maps = [quad_conj_map(64, c) for c in cs] + sample_members(cid, range(3), 64)
        results = assert_set_matches_one_map_calls(maps, cid)
        band = (0, 1) if name is not ClassName.W_H0 else (2, 3)
        assert [results[k].status for k in band] == ["boundary", "boundary"]

    @pytest.mark.parametrize("name", sorted(classes.GRID_CLASSES))
    def test_identity_ties_in_a_set(self, name):
        # the order-1 identity's slack is 1 at all 256 points, so the witness is z[0];
        # with G' it is 1/G', which varies
        cid = _set_form_class(name)
        identity = HarmonicMap(AnalyticSeries([1.0]), AnalyticSeries([0.0]))
        maps = [identity, sample_member(cid, 7, 64), identity]
        results = assert_set_matches_one_map_calls(maps, cid)
        assert results[0] == results[2]
        if name not in classes.RELATIVE_CLASSES:
            assert results[0].witness == complex(classes._certifying_grid(cid).points()[0])

    @pytest.mark.parametrize("name", sorted(classes.GRID_CLASSES))
    def test_high_order_map_in_a_set(self, name):
        # order-2048 catalog maps among order-64 members: the scan keeps one point
        # of MacGregor's map, and all 256 tied points of u_sharp_conj's constant
        # slack (grid classes without G'), whose row pads every other row to 256
        cid = _set_form_class(name)
        maps = sample_members(cid, range(4), 64)
        maps[2:2] = [make(CatalogTag.MACGREGOR_R, 2048), make(CatalogTag.U_SHARP_CONJ, 2048)]
        assert_set_matches_one_map_calls(maps, cid)

    @pytest.mark.parametrize("name", sorted(classes.GRID_CLASSES))
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_sets_of_two_or_more_scan_once(self, name, size, monkeypatch):
        cid = _set_form_class(name)
        maps = sample_members(cid, range(size), 64)
        calls = []
        circle_scan = classes.circle_scan
        monkeypatch.setattr(classes, "circle_scan", lambda *args: calls.append(args) or circle_scan(*args))
        memberships(maps, cid)
        assert len(calls) == (size >= 2)

    @pytest.mark.parametrize("name", sorted(classes.GRID_CLASSES))
    def test_rotations_sharing_h_equal_one_map_calls(self, name, monkeypatch):
        # the 16 rotations h + conj(lambda g) of a member share h, and with it h'
        cid = _set_form_class(name)
        f = sample_member(cid, 5, 64)
        lam = np.exp(2j * np.pi * np.arange(16) / 16)
        rotations = [HarmonicMap(f.h, AnalyticSeries(l * f.g.coeffs)) for l in lam]
        expected = [membership(g, cid) for g in rotations]
        rows = []
        circle_scan = classes.circle_scan
        monkeypatch.setattr(classes, "circle_scan", lambda series, *args: rows.append(len(series)) or circle_scan(series, *args))
        results = memberships(rotations, cid)
        for res, alone in zip(results, expected, strict=True):
            assert (res.is_member, res.status, res.witness) == (alone.is_member, alone.status, alone.witness)
            assert res.margin.hex() == alone.margin.hex()
        # one scanned row per distinct series: W_H0 builds a new pair per map
        assert rows == [32 if name is ClassName.W_H0 else 17]

    @pytest.mark.parametrize("name", [ClassName.R_H0, ClassName.W_H0, ClassName.F_H0_G, ClassName.U_H0, ClassName.S_R])
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_unnormalized_map_anywhere_rejects_the_set(self, name, position):
        cid = _set_form_class(name)
        maps = sample_members(cid, range(4), 16)
        h = maps[0].h.coeffs.copy()
        h[0] = 2.0
        maps.insert(position, HarmonicMap(AnalyticSeries(h), maps[0].g))
        with pytest.raises(ValueError, match="normalized"):
            memberships(maps, cid)

    @pytest.mark.parametrize("name", [ClassName.R_H0_G, ClassName.F_H0_G])
    @pytest.mark.parametrize("size", [0, 1, 3, 33])
    def test_singular_reference_rejects_the_set(self, name, size):
        # G = z - z^2 has G' = 1 - 2z, zero at 1/2, inside the certifying circle
        ref = AnalyticSeries([1.0, -1.0])
        maps = sample_members(_set_form_class(name), range(size), 16)
        with pytest.raises(SingularReferenceError):
            memberships(maps, ClassId(name, reference_map=ref))
