import math

import numpy as np
import pytest
from scipy.special import spence

from harmap.catalog import CatalogTag, make
from harmap import classes
from harmap.classes import (
    GRID_CLASSES,
    ClassId,
    ClassName,
    SingularReferenceError,
    bound_table,
    coefficient_bound_check,
    epsilon_sweep_membership,
    growth_envelope,
    membership,
    sample_member,
)
from harmap.geometry import SamplingGrid, univalent_on_circle
from harmap.harmonic import HarmonicMap, analytic_map, harmonic_convolve, slice_map
from harmap.series import AnalyticSeries


def quad_conj_map(order=8):
    """z + conj(z^2)/2."""
    h = np.zeros(order, dtype=np.complex128)
    g = np.zeros(order, dtype=np.complex128)
    h[0], g[1] = 1.0, 0.5
    return HarmonicMap(AnalyticSeries(h), AnalyticSeries(g))


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

    def test_S_R_semantics(self):
        assert membership(make(CatalogTag.KOEBE, 8), ClassId(ClassName.S_R)).is_member
        assert not membership(quad_conj_map(), ClassId(ClassName.S_R)).is_member
        h = np.zeros(8, dtype=np.complex128)
        h[0], h[2] = 1.0, 0.3j
        res = membership(analytic_map(AnalyticSeries(h)), ClassId(ClassName.S_R))
        assert not res.is_member
        assert res.witness == 3

    def test_requires_normalized(self):
        h = np.zeros(4, dtype=np.complex128)
        h[0] = 2.0
        with pytest.raises(ValueError):
            membership(analytic_map(AnalyticSeries(h)), ClassId(ClassName.R_H0))

    def test_relative_class_needs_reference(self):
        with pytest.raises(ValueError):
            ClassId(ClassName.R_H0_G)

    def test_singular_reference(self):
        # G' = 1 - 5z vanishes at z = 0.2, a grid point
        ref = AnalyticSeries([1.0, -2.5])
        cid = ClassId(ClassName.R_H0_G, reference_map=ref)
        grid = SamplingGrid(radii=(0.2,), angles=64)
        with pytest.raises(SingularReferenceError):
            membership(quad_conj_map(), cid, grid)

    def test_relative_class_reduces_to_plain_for_identity_reference(self):
        ref = AnalyticSeries(np.eye(1, 8, 0).ravel())  # G(z) = z
        cid = ClassId(ClassName.R_H0_G, reference_map=ref)
        grid = SamplingGrid(radii=(0.3, 0.6, 0.9), angles=128)
        plain = membership(quad_conj_map(), ClassId(ClassName.R_H0), grid)
        relative = membership(quad_conj_map(8), cid, grid)
        assert relative.is_member
        assert relative.margin == pytest.approx(plain.margin, abs=1e-12)


class TestEpsilonSweep:
    def test_zero_g_reduces_to_h_test(self):
        calls = []

        def probe(s):
            calls.append(s)
            return True

        f = analytic_map(make(CatalogTag.MACGREGOR_R, 16).h)
        assert epsilon_sweep_membership(f, probe, 16)
        assert len(calls) == 16
        first = calls[0].coeffs
        for s in calls[1:]:
            np.testing.assert_array_equal(s.coeffs, first)

    def test_harmonic_koebe_fails_univalence_sweep(self):
        # the unit-slice direction collapses two points, so a univalence
        # probe on r = 0.95 must reject the sweep
        K = make(CatalogTag.HARMONIC_KOEBE, 3000)
        probe = lambda s: univalent_on_circle(analytic_map(s), 0.95, 1024)
        assert not epsilon_sweep_membership(K, probe, 8)

    def test_quad_conj_passes_derivative_sweep(self):
        f = quad_conj_map()
        zs = 0.9 * np.exp(2j * np.pi * np.arange(64) / 64)
        probe = lambda s: bool(np.all(np.real(s.derivative().evaluate(zs)) > 0))
        assert epsilon_sweep_membership(f, probe, 16)

    def test_minimum_direction_count(self):
        with pytest.raises(ValueError):
            epsilon_sweep_membership(quad_conj_map(), lambda s: True, 4)


class TestCoefficientBounds:
    def test_macgregor_tight(self):
        f = make(CatalogTag.MACGREGOR_R, 64)
        report = coefficient_bound_check(f, bound_table(ClassId(ClassName.R_H0)), 32)
        assert report.ok
        np.testing.assert_allclose(report.gaps, report.bounds, atol=1e-15)

    def test_chichra_tight(self):
        f = make(CatalogTag.CHICHRA_W, 64)
        report = coefficient_bound_check(f, bound_table(ClassId(ClassName.W_H0)), 32)
        assert report.ok
        np.testing.assert_allclose(report.gaps, report.bounds, atol=1e-15)

    def test_violation_reported(self):
        f = make(CatalogTag.KOEBE, 16)
        report = coefficient_bound_check(f, bound_table(ClassId(ClassName.U_H0)), 8)
        assert not report.ok
        assert report.violations[0][0] == 2

    def test_sampled_members_respect_bounds(self):
        for name in (ClassName.U_H0, ClassName.V_H0):
            table = bound_table(ClassId(name))
            for seed in range(50):
                f = sample_member(ClassId(name), seed)
                assert coefficient_bound_check(f, table, 32).ok

    def test_n_max_validation(self):
        f = make(CatalogTag.KOEBE, 8)
        with pytest.raises(ValueError):
            coefficient_bound_check(f, bound_table(ClassId(ClassName.R_H0)), 9)


class TestGrowthEnvelope:
    def test_R_limit(self):
        lo, hi = growth_envelope(ClassId(ClassName.R_H0), 1.0)
        assert lo == pytest.approx(2 * math.log(2) - 1, abs=1e-9)
        assert hi == math.inf

    def test_W_limit_quadrature_vs_dilogarithm(self):
        lo, _ = growth_envelope(ClassId(ClassName.W_H0), 1.0)
        assert lo == pytest.approx(math.pi**2 / 6 - 1, abs=1e-6)
        # independent oracle at an interior radius: the integrals are
        # dilogarithms, int_0^r log(1+t)/t dt = -Li2(-r)
        r = 0.7
        lo_r, hi_r = growth_envelope(ClassId(ClassName.W_H0), r)
        li2 = lambda x: float(np.real(spence(complex(1 - x, 0))))
        assert lo_r == pytest.approx(-r - 2 * li2(-r), abs=1e-10)
        assert hi_r == pytest.approx(-r + 2 * li2(r), abs=1e-10)

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
        ref = make(CatalogTag.KOEBE, 64).h if name in (ClassName.R_H0_G, ClassName.F_H0_G) else None
        cid = ClassId(name, reference_map=ref)
        memo = {}
        for seed in (0, 3, 0, 3, 11):
            for order in (2, 64):
                fresh = sample_member(cid, seed, order)
                drawn = sample_member(cid, seed, order, memo=memo)
                assert drawn.h.coeffs.tobytes() == fresh.h.coeffs.tobytes()
                assert drawn.g.coeffs.tobytes() == fresh.g.coeffs.tobytes()
        # derivative classes keep one scale per distinct draw; the rest nothing
        assert len(memo) == (6 if name in GRID_CLASSES else 0)
        assert all(isinstance(s, float) for s in memo.values())

    def test_memo_hit_skips_the_grid_evaluation(self, monkeypatch):
        calls = []
        grid_scale = classes._grid_scale

        def counted(*args):
            calls.append(args)
            return grid_scale(*args)

        monkeypatch.setattr(classes, "_grid_scale", counted)
        cid = ClassId(ClassName.W_H0)
        memo = {}
        for _ in range(3):
            sample_member(cid, 5, memo=memo)
        assert len(calls) == 1
        sample_member(cid, 5, 32, memo=memo)  # another order is another draw
        assert len(calls) == 2

    def test_memo_shares_one_entry_across_references(self):
        # the scale depends on the reference only through the grid, which is
        # the same for every reference: two distinct references share a key
        memo = {}
        refs = [make(CatalogTag.HALF_PLANE, 64).h, make(CatalogTag.KOEBE, 64).h]
        for ref in refs:
            cid = ClassId(ClassName.F_H0_G, reference_map=ref)
            drawn = sample_member(cid, 1, memo=memo)
            fresh = sample_member(cid, 1)
            assert drawn.h.coeffs.tobytes() == fresh.h.coeffs.tobytes()
            assert drawn.g.coeffs.tobytes() == fresh.g.coeffs.tobytes()
        assert list(memo) == [(ClassName.F_H0_G, 1, 64)]

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
