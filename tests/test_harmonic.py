import dataclasses

import numpy as np
import pytest

from harmap.catalog import CatalogTag, eval_closed, make
from harmap.harmonic import (
    HarmonicMap,
    alexander_minus,
    alexander_plus,
    analytic_map,
    convex_combination,
    eval_map,
    harmonic_convolve,
    jacobian,
    slice_map,
    tilde_convolve,
)
from harmap.series import AnalyticSeries, DomainError, convolve, identity_series


def quad_map(coef=0.5, order=8, conjugated=True):
    """z + coef * z^2 placed in the h or the g part."""
    h = np.zeros(order, dtype=np.complex128)
    g = np.zeros(order, dtype=np.complex128)
    h[0] = 1.0
    if conjugated:
        g[1] = coef
    else:
        h[1] = coef
    return HarmonicMap(AnalyticSeries(h), AnalyticSeries(g))


def random_map(rng, order=24):
    n = np.arange(1, order + 1)
    h = (rng.standard_normal(order) + 1j * rng.standard_normal(order)) / n**2
    g = (rng.standard_normal(order) + 1j * rng.standard_normal(order)) / n**2
    h[0], g[0] = 1.0, 0.0
    return HarmonicMap(AnalyticSeries(h), AnalyticSeries(g))


class TestEvalMap:
    def test_analytic_identity(self):
        f = analytic_map(identity_series(8))
        assert eval_map(f, 0.2 + 0.1j) == pytest.approx(0.2 + 0.1j)

    def test_half_plane_map_value(self):
        # oracle: (0.5 - 0.125)/0.25 + conj(-0.125/0.25) = 1.5 - 0.5
        L = make(CatalogTag.HARMONIC_HALF_PLANE, 64)
        assert eval_map(L, 0.5) == pytest.approx(1.0)
        assert eval_map(dataclasses.replace(L, closed_form=None), 0.5) == pytest.approx(1.0, abs=1e-9)

    def test_origin_goes_to_zero(self):
        K = make(CatalogTag.HARMONIC_KOEBE, 16)
        assert eval_map(K, 0.0) == 0.0

    def test_closed_form_preferred_but_consistent(self):
        K = make(CatalogTag.HARMONIC_KOEBE, 200)
        z = 0.7 * np.exp(0.4j)
        assert abs(eval_map(K, z) - eval_map(dataclasses.replace(K, closed_form=None), z)) < 1e-6

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eval_map(quad_map(), 1.0)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HarmonicMap(identity_series(4), AnalyticSeries(np.zeros(5)))


class TestIdentityEquality:
    def test_distinct_equal_values_are_unequal_and_hashable(self):
        # equality is by identity: never the ambiguous truth value of an array
        a, b = make(CatalogTag.KOEBE, 8), make(CatalogTag.KOEBE, 8)
        assert a.h.coeffs.tobytes() == b.h.coeffs.tobytes()
        for x, y in ((a, b), (a.h, b.h)):
            assert (x == y) is False
            assert (x == x) is True
            assert len({x, y, x}) == 2


class TestJacobian:
    def test_identity(self):
        f = analytic_map(identity_series(8))
        assert jacobian(f, 0.3 + 0.4j) == pytest.approx(1.0)

    def test_quadratic_map(self):
        # f = z + conj(z^2/2) has J = 1 - |z|^2
        f = quad_map()
        z = 0.5 * np.exp(1.1j)
        assert jacobian(f, z) == pytest.approx(0.75)

    def test_harmonic_koebe_at_origin(self):
        K = make(CatalogTag.HARMONIC_KOEBE, 16)
        assert jacobian(K, 0.0) == pytest.approx(1.0)

    def test_sense_preserving_catalog_members(self):
        zs = np.concatenate([r * np.exp(2j * np.pi * np.arange(64) / 64) for r in (0.3, 0.6, 0.9)])
        for tag in (
            CatalogTag.HARMONIC_KOEBE,
            CatalogTag.HARMONIC_HALF_PLANE,
            CatalogTag.MACGREGOR_R,
            CatalogTag.CHICHRA_W,
            CatalogTag.U_SHARP,
            CatalogTag.U_SHARP_CONJ,
            CatalogTag.V_SHARP,
            CatalogTag.V_SHARP_CONJ,
        ):
            f = make(tag, 600)
            assert np.all(jacobian(f, zs) > 0), tag


class TestSlice:
    def test_zero_g_slice_is_h(self):
        f = analytic_map(identity_series(8))
        for eps in (1.0, -1.0, 1j, 0.5):
            np.testing.assert_array_equal(slice_map(f, eps).coeffs, f.h.coeffs)

    def test_eps_zero_returns_h(self):
        K = make(CatalogTag.HARMONIC_KOEBE, 16)
        np.testing.assert_array_equal(slice_map(K, 0.0).coeffs, K.h.coeffs)

    def test_harmonic_koebe_unit_slice_closed_form(self):
        # the unit slice must match (z + z^3/3) / (1 - z)^3
        K = make(CatalogTag.HARMONIC_KOEBE, 800)
        s = slice_map(K, 1.0)
        for z in (0.5, -0.6, 0.4 + 0.3j):
            expected = (z + z**3 / 3) / (1 - z) ** 3
            assert abs(s.evaluate(z) - expected) < 1e-10

    def test_slice_param_validation(self):
        K = make(CatalogTag.HARMONIC_KOEBE, 16)
        with pytest.raises(ValueError, match=r"\|eps\| <= 1"):
            slice_map(K, 1.5)
        np.testing.assert_array_equal(slice_map(K, 1.0).coeffs, K.h.coeffs + K.g.coeffs)


class TestConvolutionOperators:
    def test_identity_kernel_map(self):
        f = quad_map()
        ident = make(CatalogTag.HALF_PLANE, 8)
        out = harmonic_convolve(f, ident)
        np.testing.assert_allclose(out.h.coeffs, f.h.coeffs)
        np.testing.assert_allclose(out.g.coeffs, np.zeros(8))  # ident.g == 0 zeroes g

    def test_quadratic_self_convolution(self):
        out = harmonic_convolve(quad_map(), quad_map())
        assert out.g.coeff(2) == pytest.approx(0.25)
        assert out.h.coeff(1) == pytest.approx(1.0)

    def test_slice_factorization(self):
        rng = np.random.default_rng(7)
        f, F = random_map(rng), random_map(rng)
        conv = harmonic_convolve(f, F)
        for eps in np.exp(2j * np.pi * np.arange(16) / 16):
            lhs = slice_map(conv, eps).coeffs
            rhs = convolve(f.h, F.h).coeffs + eps * convolve(f.g, F.g).coeffs
            assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_square_root_factorization_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = random_map(rng)
            for eps in np.exp(2j * np.pi * np.arange(16) / 16):
                nu = np.sqrt(eps)
                lhs = convolve(f.h, f.h).coeffs + eps * convolve(f.g, f.g).coeffs
                plus = AnalyticSeries(f.h.coeffs + 1j * nu * f.g.coeffs)
                minus = AnalyticSeries(f.h.coeffs - 1j * nu * f.g.coeffs)
                rhs = convolve(plus, minus).coeffs
                assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_tilde_identity_kernel(self):
        f = quad_map()
        phi = make(CatalogTag.HALF_PLANE, 8).h
        out = tilde_convolve(phi, f)
        np.testing.assert_allclose(out.h.coeffs, f.h.coeffs)
        np.testing.assert_allclose(out.g.coeffs, f.g.coeffs)

    def test_tilde_with_identity_series_kills_tail(self):
        f = make(CatalogTag.HARMONIC_KOEBE, 8)
        out = tilde_convolve(identity_series(8), f)
        np.testing.assert_array_equal(out.h.coeffs, identity_series(8).coeffs)
        np.testing.assert_array_equal(out.g.coeffs, np.zeros(8))

    def test_tilde_slice_commutation(self):
        rng = np.random.default_rng(13)
        f = random_map(rng)
        phi = AnalyticSeries(rng.standard_normal(24) + 1j * rng.standard_normal(24))
        for eps in (1.0, 1j, -1.0):
            lhs = slice_map(tilde_convolve(phi, f), eps).coeffs
            rhs = convolve(phi, slice_map(f, eps)).coeffs
            assert np.max(np.abs(lhs - rhs)) < 1e-13


class TestConvexCombination:
    def test_single_map(self):
        f = quad_map()
        out = convex_combination([1.0], [f])
        np.testing.assert_array_equal(out.h.coeffs, f.h.coeffs)

    def test_half_half_same_map(self):
        f = quad_map()
        out = convex_combination([0.5, 0.5], [f, f])
        np.testing.assert_allclose(out.h.coeffs, f.h.coeffs)

    def test_mixed_quadratics(self):
        # (z + z^2/2)/2 + (z + conj(z^2)/2)/2 = z + z^2/4 + conj(z^2)/4
        out = convex_combination([0.5, 0.5], [quad_map(conjugated=False), quad_map()])
        assert out.h.coeff(2) == pytest.approx(0.25)
        assert out.g.coeff(2) == pytest.approx(0.25)
        total = sum(
            n * (abs(out.h.coeff(n)) + abs(out.g.coeff(n))) for n in range(2, out.order + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "weights", [[0.5, 0.6], [0.5], [-0.2, 1.2], []]
    )
    def test_weight_validation(self, weights):
        maps = [quad_map() for _ in weights] if weights else [quad_map()]
        if len(weights) != len(maps) or not weights:
            maps = [quad_map(), quad_map()]
        with pytest.raises(ValueError):
            convex_combination(weights, maps)


class TestAlexanderOperators:
    def test_plus_on_analytic_koebe(self):
        out = alexander_plus(make(CatalogTag.KOEBE, 32))
        np.testing.assert_array_equal(out.h.coeffs, np.ones(32))
        np.testing.assert_array_equal(out.g.coeffs, np.zeros(32))

    def test_plus_matches_printed_closed_form(self):
        K = make(CatalogTag.HARMONIC_KOEBE, 200)
        lam = alexander_plus(K)
        zs = 0.9 * np.exp(2j * np.pi * np.arange(32) / 32)
        series_vals = lam.h.evaluate(zs) + np.conj(lam.g.evaluate(zs))
        closed_vals = eval_closed(CatalogTag.ALEXANDER_PLUS_K, zs)
        assert np.max(np.abs(series_vals - closed_vals)) < 1e-6

    def test_minus_equals_plus_without_g(self):
        f = analytic_map(make(CatalogTag.MACGREGOR_R, 16).h)
        plus, minus = alexander_plus(f), alexander_minus(f)
        np.testing.assert_array_equal(plus.h.coeffs, minus.h.coeffs)
        np.testing.assert_array_equal(plus.g.coeffs, minus.g.coeffs)

    def test_minus_twice_equals_plus_twice(self):
        f = make(CatalogTag.HARMONIC_KOEBE, 16)
        mm = alexander_minus(alexander_minus(f))
        pp = alexander_plus(alexander_plus(f))
        np.testing.assert_array_equal(mm.g.coeffs, pp.g.coeffs)

    def test_minus_on_half_plane_coefficients(self):
        # oracle: second part has coefficients -(n-1)/2, so the negated
        # transform gives (n-1)/(2n): 1/4, 1/3, 3/8 at n = 2, 3, 4
        L = make(CatalogTag.HARMONIC_HALF_PLANE, 8)
        out = alexander_minus(L)
        assert out.g.coeff(2) == pytest.approx(0.25)
        assert out.g.coeff(3) == pytest.approx(1.0 / 3.0)
        assert out.g.coeff(4) == pytest.approx(0.375)

    def test_slice_commutation(self):
        rng = np.random.default_rng(3)
        f = random_map(rng)
        from harmap.series import alexander

        for eps in np.exp(2j * np.pi * np.arange(8) / 8):
            lhs = slice_map(alexander_plus(f), eps).coeffs
            rhs = alexander(slice_map(f, eps)).coeffs
            assert np.max(np.abs(lhs - rhs)) < 1e-15
