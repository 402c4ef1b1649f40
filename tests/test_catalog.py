import dataclasses
import math

import numpy as np
import pytest

from harmap.catalog import CatalogTag, eval_closed, make
from harmap.harmonic import eval_map
from harmap.series import DomainError


class TestCoefficients:
    def test_koebe(self):
        K = make(CatalogTag.KOEBE, 5)
        np.testing.assert_array_equal(K.h.coeffs, [1, 2, 3, 4, 5])
        np.testing.assert_array_equal(K.g.coeffs, np.zeros(5))

    def test_half_plane(self):
        np.testing.assert_array_equal(make(CatalogTag.HALF_PLANE, 4).h.coeffs, np.ones(4))

    def test_macgregor(self):
        f = make(CatalogTag.MACGREGOR_R, 6)
        np.testing.assert_allclose(f.h.coeffs, [1, 1, 2 / 3, 1 / 2, 2 / 5, 1 / 3])

    def test_chichra(self):
        f = make(CatalogTag.CHICHRA_W, 4)
        np.testing.assert_allclose(f.h.coeffs, [1, 1 / 2, 2 / 9, 1 / 8])

    def test_harmonic_half_plane(self):
        # long-division oracle: numerators (z - z^2/2) and (-z^2/2) against (1-z)^2
        L = make(CatalogTag.HARMONIC_HALF_PLANE, 4)
        np.testing.assert_allclose(L.h.coeffs, [1, 1.5, 2, 2.5])
        np.testing.assert_allclose(L.g.coeffs, [0, -0.5, -1, -1.5])

    def test_harmonic_koebe(self):
        # long-division oracle: a = (1, 5/2, 14/3), b = (0, 1/2, 5/3)
        K = make(CatalogTag.HARMONIC_KOEBE, 3)
        np.testing.assert_allclose(K.h.coeffs, [1, 2.5, 14 / 3], atol=1e-15)
        np.testing.assert_allclose(K.g.coeffs, [0, 0.5, 5 / 3], atol=1e-15)

    def test_harmonic_koebe_gap_is_n(self):
        K = make(CatalogTag.HARMONIC_KOEBE, 40)
        gaps = np.abs(K.h.coeffs) - np.abs(K.g.coeffs)
        np.testing.assert_allclose(gaps, np.arange(1, 41), atol=1e-11)

    def test_quadratics(self):
        assert make(CatalogTag.U_SHARP, 4).h.coeff(2) == 0.5
        assert make(CatalogTag.U_SHARP_CONJ, 4).g.coeff(2) == 0.5
        assert make(CatalogTag.V_SHARP, 4).h.coeff(2) == 0.25
        assert make(CatalogTag.V_SHARP_CONJ, 4).g.coeff(2) == 0.25

    def test_alexander_images(self):
        lamK = make(CatalogTag.ALEXANDER_PLUS_K, 6)
        base = make(CatalogTag.HARMONIC_KOEBE, 6)
        np.testing.assert_allclose(lamK.h.coeffs, base.h.coeffs / np.arange(1, 7))

    def test_all_normalized(self):
        for tag in CatalogTag:
            assert make(tag, 16).is_normalized(), tag

    def test_order_validation(self):
        with pytest.raises(ValueError):
            make(CatalogTag.KOEBE, 1)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            make("no_such_map", 8)


class TestClosedForms:
    def test_half_plane_value(self):
        assert eval_closed(CatalogTag.HALF_PLANE, 0.5) == pytest.approx(1.0)

    def test_harmonic_koebe_at_zero(self):
        assert eval_closed(CatalogTag.HARMONIC_KOEBE, 0.0) == 0.0

    def test_alexander_plus_L_at_half(self):
        # oracle: -log(0.5) with zero imaginary part on the real axis
        val = eval_closed(CatalogTag.ALEXANDER_PLUS_L, 0.5)
        assert val == pytest.approx(-math.log(0.5), abs=1e-14)
        assert val.imag == 0.0

    def test_koebe_growth_exact(self):
        for r in (0.25, 0.5, 0.75):
            assert abs(eval_closed(CatalogTag.KOEBE, r)) == r / (1 - r) ** 2

    def test_collision_of_symmetric_points(self):
        z0 = 1j / math.sqrt(3)
        K = make(CatalogTag.HARMONIC_KOEBE, 8)
        sliced_closed = lambda z: (z + z**3 / 3) / (1 - z) ** 3
        assert abs(sliced_closed(z0) - sliced_closed(-z0)) < 1e-9

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eval_closed(CatalogTag.KOEBE, 1.0 + 0j)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            eval_closed("bogus", 0.1)


class TestSeriesClosedFormAgreement:
    # order 400 keeps the truncation tail of the quadratic-growth maps
    # below the 1e-6 agreement bar at r = 0.9
    @pytest.mark.parametrize("tag", tuple(CatalogTag), ids=[t.value for t in CatalogTag])
    def test_agreement_inside_disk(self, tag):
        f = make(tag, 400)
        zs = np.concatenate(
            [r * np.exp(2j * np.pi * np.arange(24) / 24) for r in (0.3, 0.6, 0.9)]
        )
        series_vals = eval_map(dataclasses.replace(f, closed_form=None), zs)
        closed_vals = eval_closed(tag, zs)
        assert np.max(np.abs(series_vals - closed_vals)) < 1e-6, tag


class TestIntegerFormulas:
    """The integer coefficient formulas re-derived from the printed rational maps."""

    @pytest.mark.parametrize(
        "tag, h_expr, g_expr",
        [
            (
                CatalogTag.HARMONIC_KOEBE,
                "(z - z**2/2 + z**3/6) / (1 - z)**3",
                "(z**2/2 + z**3/6) / (1 - z)**3",
            ),
            (CatalogTag.HARMONIC_HALF_PLANE, "(z - z**2/2) / (1 - z)**2", "-(z**2/2) / (1 - z)**2"),
        ],
    )
    def test_taylor_coefficients_match_series_expansion(self, tag, h_expr, g_expr):
        sympy = pytest.importorskip("sympy")
        z = sympy.Symbol("z")
        order = 64
        f = make(tag, order)
        for expr, coeffs in ((h_expr, f.h.coeffs), (g_expr, f.g.coeffs)):
            taylor = sympy.series(sympy.sympify(expr), z, 0, order + 1).removeO()
            exact = [taylor.coeff(z, n) for n in range(1, order + 1)]
            assert all(c.is_Rational for c in exact)
            np.testing.assert_array_equal(coeffs, [float(c) for c in exact])

    @pytest.mark.parametrize(
        "tag, base",
        [
            (CatalogTag.ALEXANDER_PLUS_K, CatalogTag.HARMONIC_KOEBE),
            (CatalogTag.ALEXANDER_PLUS_L, CatalogTag.HARMONIC_HALF_PLANE),
        ],
    )
    @pytest.mark.parametrize("order", [2, 3, 64, 1536, 6000])
    def test_operator_images_equal_coefficientwise_division(self, tag, base, order):
        # built by the Alexander operator, bit for bit the base coefficients over float n
        f, plain = make(tag, order), make(base, order)
        n = np.arange(1, order + 1, dtype=np.float64)
        assert f.closed_form == tag.value
        assert f.h.coeffs.tobytes() == (plain.h.coeffs / n).tobytes()
        assert f.g.coeffs.tobytes() == (plain.g.coeffs / n).tobytes()
