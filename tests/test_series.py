import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmap.series import (
    AnalyticSeries,
    DomainError,
    alexander,
    convolve,
    identity_series,
    linear_combine,
)

finite_complex = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
series_strategy = st.lists(finite_complex, min_size=2, max_size=12).map(AnalyticSeries)


@st.composite
def series_pair(draw):
    """Two series with a shared truncation order."""
    order = draw(st.integers(min_value=2, max_value=12))
    mk = lambda: AnalyticSeries(draw(st.lists(finite_complex, min_size=order, max_size=order)))
    return mk(), mk()


def koebe_series(order=64):
    return AnalyticSeries(np.arange(1, order + 1, dtype=np.complex128))


def macgregor_series(order=64):
    n = np.arange(1, order + 1, dtype=np.float64)
    c = 2.0 / n
    c[0] = 1.0
    return AnalyticSeries(c.astype(np.complex128))


class TestEvaluate:
    def test_identity_series(self):
        s = identity_series(8)
        assert s.evaluate(0.3 + 0j) == pytest.approx(0.3 + 0j)

    def test_koebe_matches_closed_form(self):
        # oracle: z / (1 - z)^2 at z = 0.5 is 2.0
        assert koebe_series(64).evaluate(0.5) == pytest.approx(2.0, abs=1e-9)

    def test_half_plane_matches_closed_form(self):
        # oracle: z / (1 - z) at z = 0.5 is 1.0
        s = AnalyticSeries(np.ones(64))
        assert s.evaluate(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_vectorized(self):
        s = koebe_series(32)
        z = np.array([0.1, 0.2j, -0.3])
        vals = s.evaluate(z)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(s.evaluate(0.1))

    @pytest.mark.parametrize("z", [1.0, -1.0, 1.2, 1j])
    def test_outside_disk_rejected(self, z):
        with pytest.raises(DomainError):
            identity_series(4).evaluate(z)

    @pytest.mark.parametrize("order", [1, 8, 400, 1536])
    def test_array_path_matches_reference_recurrence(self, order):
        rng = np.random.default_rng(order)
        s = AnalyticSeries(rng.standard_normal(order) + 1j * rng.standard_normal(order), const=0.25j)
        z = 0.97 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (4, 16)))
        acc = np.zeros_like(z)
        for c in s.coeffs[::-1]:
            acc = acc * z + c
        np.testing.assert_array_equal(s.evaluate(z), s.const + acc * z)

    @given(
        series_strategy,
        finite_complex,
        st.lists(
            st.complex_numbers(max_magnitude=0.99, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=60)
    def test_scalar_path_matches_array_path(self, s, const, points):
        s = AnalyticSeries(s.coeffs, const=const)
        z = np.array(points, dtype=np.complex128)
        values = s.evaluate(z)
        # Horner's rounding error scales with sum |c_n| |z|^n, not with |s(z)|
        scale = AnalyticSeries(np.abs(s.coeffs)).evaluate(np.abs(z)).real + abs(s.const)
        for zk, vk, sk in zip(points, values, scale):
            value = s.evaluate(zk)
            assert type(value) is complex
            assert abs(value - vk) <= 1e-15 * sk

    @pytest.mark.parametrize("z", [0.5 + 0.1j, np.zeros(3), np.full((2, 4), 0.1j)])
    def test_zero_series_returns_zeros_of_input_shape(self, z):
        out = AnalyticSeries(np.zeros(6)).evaluate(z)
        if np.ndim(z) == 0:
            assert type(out) is complex and out == 0
        else:
            assert out.shape == np.shape(z) and out.dtype == np.complex128
            assert not out.any()

    def test_constant_only_series_is_not_zero(self):
        z = np.array([0.0, 0.5j])
        np.testing.assert_array_equal(AnalyticSeries(np.zeros(3), const=2.0).evaluate(z), [2.0, 2.0])
        assert AnalyticSeries(np.zeros(3), const=2.0).evaluate(0.5) == 2.0

    # Margins evaluate a series once on several circles concatenated and then
    # slice the result per circle, so concatenation must not change a bit.
    # 1-point arrays are left out: numpy may compute a lone element in a
    # different last bit, and no circle in the library has fewer than 64 points.
    @given(
        order=st.integers(min_value=1, max_value=600),
        sizes=st.lists(st.integers(min_value=2, max_value=1024), min_size=2, max_size=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_concatenated_circles_match_each_circle(self, order, sizes, seed):
        rng = np.random.default_rng(seed)
        n = np.arange(1, order + 1)
        s = AnalyticSeries((rng.standard_normal(order) + 1j * rng.standard_normal(order)) / n, const=0.5)
        circles = [
            rng.uniform(0.05, 0.99) * np.exp(2j * np.pi * np.arange(m) / m) for m in sizes
        ]
        together = s.evaluate(np.concatenate(circles))
        start = 0
        for z in circles:
            part = together[start : start + z.size]
            assert part.tobytes() == s.evaluate(z).tobytes()
            start += z.size


class TestDerivative:
    def test_identity_derivative_is_one(self):
        d = identity_series(8).derivative()
        for z in (0.0, 0.5, -0.3 + 0.2j):
            assert d.evaluate(z) == pytest.approx(1.0)

    def test_koebe_derivative_closed_form(self):
        # oracle: k'(z) = (1 + z) / (1 - z)^3; k'(0) = 1, k'(0.5) = 12
        d = koebe_series(128).derivative()
        assert d.evaluate(0.0) == pytest.approx(1.0)
        assert d.evaluate(0.5) == pytest.approx(12.0, abs=1e-8)

    def test_normalization_of_slow_series(self):
        d = macgregor_series(64).derivative()
        assert d.evaluate(0.0) == pytest.approx(1.0)

    def test_order_shrinks(self):
        s = koebe_series(10)
        assert s.derivative().order == 9

    def test_requires_order_two(self):
        with pytest.raises(ValueError):
            AnalyticSeries([1.0]).derivative()

    def test_order_one_raises_on_every_call(self):
        s = AnalyticSeries([1.0])
        for _ in range(2):
            with pytest.raises(ValueError, match="order >= 2"):
                s.derivative()

    @pytest.mark.parametrize("order", [3, 64, 1536])
    def test_cached_on_the_instance(self, order):
        rng = np.random.default_rng(order)
        s = AnalyticSeries(rng.standard_normal(order) + 1j * rng.standard_normal(order), const=3.0)
        d = s.derivative()
        assert d is s.derivative()
        assert d.derivative() is s.derivative().derivative()
        fresh = AnalyticSeries(np.arange(2, order + 1) * s.coeffs[1:], const=complex(s.coeffs[0]))
        assert d.coeffs.tobytes() == fresh.coeffs.tobytes()
        assert d.const == fresh.const
        assert not d.coeffs.flags.writeable

    def test_second_derivative_drops_const(self):
        s = AnalyticSeries([1.0, 2.0, 3.0, 4.0])
        d2 = s.derivative().derivative()
        # f'' = 2*2 + 6*3 z + 12*4 z^2
        assert d2.const == pytest.approx(4.0)
        assert d2.evaluate(0.0) == pytest.approx(4.0)


class TestConvolve:
    def test_identity_element(self):
        s = koebe_series(16)
        out = convolve(s, AnalyticSeries(np.ones(16)))
        np.testing.assert_array_equal(out.coeffs, s.coeffs)

    def test_koebe_squared(self):
        out = convolve(koebe_series(16), koebe_series(16))
        np.testing.assert_allclose(out.coeffs, np.arange(1, 17) ** 2)

    def test_slow_series_squared(self):
        # coefficients 2/n convolve to 4/n^2
        out = convolve(macgregor_series(16), macgregor_series(16))
        expected = (2.0 / np.arange(1, 17)) ** 2
        expected[0] = 1.0
        np.testing.assert_allclose(out.coeffs, expected, atol=1e-15)

    def test_mixed_truncation(self):
        out = convolve(koebe_series(8), koebe_series(20))
        assert out.order == 8

    @given(series_strategy, series_strategy)
    @settings(max_examples=60)
    def test_commutative(self, s, t):
        n = min(s.order, t.order)
        np.testing.assert_allclose(
            convolve(s, t).coeffs[:n], convolve(t, s).coeffs[:n], atol=1e-14
        )

    @given(series_strategy, series_strategy, series_strategy, finite_complex)
    @settings(max_examples=60)
    def test_bilinear(self, s, t, u, w):
        n = min(s.order, t.order, u.order)
        lhs = convolve(linear_combine([(1.0, s), (w, t)]), u)
        rhs = linear_combine([(1.0, convolve(s, u)), (w, convolve(t, u))])
        np.testing.assert_allclose(lhs.coeffs[:n], rhs.coeffs[:n], atol=1e-13)


class TestAlexander:
    def test_koebe_to_half_plane(self):
        out = alexander(koebe_series(64))
        np.testing.assert_allclose(out.coeffs, np.ones(64), rtol=0, atol=1e-14)

    def test_slow_series_transform(self):
        # coefficients 2/n map to 2/n^2
        out = alexander(macgregor_series(64))
        n = np.arange(1, 65)
        expected = 2.0 / n**2
        expected[0] = 1.0
        np.testing.assert_allclose(out.coeffs, expected, atol=1e-16)

    def test_identity_fixed(self):
        out = alexander(identity_series(8))
        np.testing.assert_array_equal(out.coeffs, identity_series(8).coeffs)

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError):
            alexander(AnalyticSeries([1.0, 2.0], const=3.0))

    @given(series_strategy, series_strategy)
    @settings(max_examples=60)
    def test_composes_with_convolution(self, s, t):
        n = min(s.order, t.order)
        out = alexander(convolve(s, t))
        expected = s.coeffs[:n] * t.coeffs[:n] / np.arange(1, n + 1)
        np.testing.assert_allclose(out.coeffs, expected, atol=1e-14)


class TestLinearCombine:
    def test_single_term(self):
        s = koebe_series(8)
        np.testing.assert_array_equal(linear_combine([(1.0, s)]).coeffs, s.coeffs)

    def test_half_plus_half(self):
        s = koebe_series(8)
        out = linear_combine([(0.5, s), (0.5, s)])
        np.testing.assert_allclose(out.coeffs, s.coeffs)

    def test_cancellation(self):
        s = koebe_series(8)
        out = linear_combine([(1.0, s), (-1.0, s)])
        np.testing.assert_array_equal(out.coeffs, np.zeros(8))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            linear_combine([])

    @given(series_pair(), finite_complex, finite_complex)
    @settings(max_examples=60)
    def test_evaluation_linearity(self, pair, w1, w2):
        s, t = pair
        combo = linear_combine([(w1, s), (w2, t)])
        for z in (0.0, 0.5, -0.4 + 0.3j, 0.9):
            direct = w1 * s.evaluate(z) + w2 * t.evaluate(z)
            assert abs(combo.evaluate(z) - direct) <= 1e-12


class TestInvariants:
    @pytest.mark.parametrize(
        "coeffs, const",
        [
            ([1.0, np.nan], 0.0),
            ([1.0, complex(0.0, np.inf)], 0.0),
            ([1.0, -np.inf], 0.0),
            ([1.0, 2.0], np.nan),
        ],
    )
    def test_non_finite_rejected(self, coeffs, const):
        with pytest.raises(ValueError, match="finite"):
            AnalyticSeries(coeffs, const=const)

    def test_normalized_predicate(self):
        assert identity_series(4).is_normalized()
        assert not AnalyticSeries([2.0, 0.0]).is_normalized()
        assert not AnalyticSeries([1.0, 0.0], const=0.5).is_normalized()

    def test_coeff_accessor(self):
        s = koebe_series(5)
        assert s.coeff(3) == 3.0
        with pytest.raises(IndexError):
            s.coeff(6)

    def test_immutable(self):
        s = koebe_series(4)
        with pytest.raises(ValueError):
            s.coeffs[0] = 5.0
