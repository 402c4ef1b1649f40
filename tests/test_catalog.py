import dataclasses
import math

import mpmath
import numpy as np
import pytest

from harmap.catalog import _ZETA2, CatalogTag, _dilog, eval_closed, make
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
        assert make(CatalogTag.U_SHARP, 4).h.coeffs[1] == 0.5
        assert make(CatalogTag.U_SHARP_CONJ, 4).g.coeffs[1] == 0.5
        assert make(CatalogTag.V_SHARP, 4).h.coeffs[1] == 0.25
        assert make(CatalogTag.V_SHARP_CONJ, 4).g.coeffs[1] == 0.25

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

    @pytest.mark.parametrize("z", [math.nan, math.inf, complex(math.nan, 0.0), complex(0.0, math.nan)])
    def test_non_finite_points_rejected(self, z):
        for points in (z, np.array([0.5, z])):
            with pytest.raises(DomainError):
                eval_closed(CatalogTag.KOEBE, points)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            eval_closed("bogus", 0.1)


def _li2_relative_errors(z: np.ndarray) -> np.ndarray:
    """|_dilog(z) - Li2(z)| / |Li2(z)| against mpmath at 40 digits (0 where both are 0)."""
    got = _dilog(z)
    errors = []
    with mpmath.workdps(40):
        for point, value in zip(z, got):
            exact = mpmath.polylog(2, mpmath.mpc(point.real, point.imag))
            diff = abs(mpmath.mpc(value.real, value.imag) - exact)
            errors.append(0.0 if diff == 0 else float(diff / abs(exact)))
    return np.array(errors)


def _near_one():
    # 1 - 10^-k on the real axis and off it, inside the disk
    delta = 10.0 ** -np.arange(1, 13)
    return np.concatenate([1 - delta, 1 - delta * (1 + 1j) / math.sqrt(2), 1 - delta * (1 - 1j) / math.sqrt(2)])


_LI2_POINTS = {
    # 3,034 points in all; the branches meet on the seam Re z = 1/2
    "interior": lambda: np.sqrt(np.random.default_rng(11).uniform(0.0, 1.0, 1600))
    * np.exp(2j * np.pi * np.random.default_rng(12).uniform(0.0, 1.0, 1600)),
    "unit circle": lambda: np.exp(2j * np.pi * np.arange(600) / 600),
    "real segment": lambda: np.linspace(-1.0, 1.0, 301).astype(np.complex128),
    "seam": lambda: np.concatenate(
        [
            0.5 + 1j * np.linspace(-math.sqrt(0.75), math.sqrt(0.75), 201),
            np.nextafter(0.5, 1.0) + 1j * np.linspace(-0.85, 0.85, 101),
        ]
    ),
    "small moduli": lambda: (10.0 ** -np.arange(1, 13))[:, None] * np.exp(2j * np.pi * np.arange(16) / 16)[None, :],
    "near one": _near_one,
    "exact": lambda: np.array([0.0, 1.0, -1.0], dtype=np.complex128),
}


class TestDilogarithm:
    @pytest.mark.parametrize("region", tuple(_LI2_POINTS))
    def test_against_mpmath(self, region):
        z = _LI2_POINTS[region]().ravel()
        assert np.all(np.abs(z) <= 1.0 + 1e-15)
        assert np.max(_li2_relative_errors(z)) <= 1e-15

    def test_point_where_scipy_spence_read_5e_14(self):
        assert _li2_relative_errors(np.array([-0.0020045070140281007 + 0j]))[0] <= 1e-15

    def test_exact_values(self):
        assert _dilog(0.0) == 0.0
        assert _dilog(1.0) == _ZETA2 == float(mpmath.zeta(2))
        assert _dilog(-1.0) == pytest.approx(-_ZETA2 / 2, rel=1e-15, abs=0.0)

    def test_no_floating_point_exception_at_the_branch_points(self):
        z = np.concatenate([[0.0, 1.0, -1.0, 0.5], np.exp(2j * np.pi * np.arange(64) / 64), _near_one()])
        with np.errstate(all="raise"):
            assert np.all(np.isfinite(_dilog(z)))

    def test_shapes(self):
        assert _dilog(0.3).shape == ()
        assert _dilog(np.full((2, 3), 0.7j)).shape == (2, 3)
        assert _dilog(np.zeros(0)).shape == (0,)
        assert type(eval_closed(CatalogTag.CHICHRA_W, 0.3)) is complex
        assert eval_closed(CatalogTag.CHICHRA_W, np.full((2, 2), 0.3)).shape == (2, 2)


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
