import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmap.series import (
    AnalyticSeries,
    DomainError,
    alexander,
    circle_scan,
    convolve,
    evaluate_stack,
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


def identity_series(order):
    """The series of f(z) = z."""
    return AnalyticSeries(np.eye(1, order, 0).ravel())


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


def random_series(rng, order, const=0.0, decay=1.0):
    n = np.arange(1, order + 1)
    return AnalyticSeries((rng.standard_normal(order) + 1j * rng.standard_normal(order)) / n**decay, const=const)


class TestEvaluateStack:
    """Each row of the stacked Horner loop equals ``evaluate`` bit for bit."""

    @pytest.mark.parametrize(
        "shape", [(1,), (2,), (3,), (256,), (1, 1), (5, 1), (1, 5), (4, 16), (1, 1, 1)]
    )
    def test_rows_equal_evaluate(self, shape):
        rng = np.random.default_rng(len(shape) * 1000 + int(np.prod(shape)))
        series = [
            random_series(rng, 300, const=0.25j),
            random_series(rng, 7),
            AnalyticSeries(np.zeros(40)),
            random_series(rng, 1, const=-1.5),
            AnalyticSeries(np.zeros(5), const=2.0),
            random_series(rng, 2048, decay=0.5),
        ]
        z = 0.99 * rng.uniform(0.0, 1.0, shape) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, shape))
        rows = evaluate_stack(series, z)
        assert rows.shape == (len(series),) + shape
        for s, row in zip(series, rows):
            assert row.tobytes() == np.ascontiguousarray(s.evaluate(z)).tobytes()

    @pytest.mark.parametrize("live", [[], [1], [0, 2]])
    def test_zero_rows_and_few_live_series(self, live):
        rng = np.random.default_rng(3)
        series = [AnalyticSeries(np.zeros(9)) for _ in range(3)]
        for k in live:
            series[k] = random_series(rng, 20 + k)
        z = 0.9 * np.exp(2j * np.pi * np.arange(64) / 64)
        rows = evaluate_stack(series, z)
        for k, s in enumerate(series):
            assert rows[k].tobytes() == s.evaluate(z).tobytes()
            if k not in live:
                assert not rows[k].any()

    def test_strided_and_fortran_points(self):
        rng = np.random.default_rng(4)
        series = [random_series(rng, 64), random_series(rng, 65, const=1.0)]
        grid = 0.95 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (12, 20)))
        for z in (grid[:, ::3], np.asfortranarray(grid), grid.ravel()[::7]):
            rows = evaluate_stack(series, z)
            for s, row in zip(series, rows):
                assert row.tobytes() == np.ascontiguousarray(s.evaluate(z)).tobytes()

    def test_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            evaluate_stack([identity_series(3)], np.array([0.5, 1.0]))


def circle_points(r, angles):
    """The circle tables of harmap.geometry, rounded the same way."""
    return r * np.exp(1j * (np.arange(angles) * (2.0 * np.pi / angles)))


class TestCircleScan:
    """The inverse-FFT circle scan against Horner, within its stated bound."""

    RADII = (1e-3, 0.3, 0.7, 0.9, 0.98, 0.99)

    @pytest.mark.parametrize("angles", [256, 1024, 2048])
    @pytest.mark.parametrize("order", ["one", "two", "below", "equal", "above", 6000])
    def test_within_bound_of_horner(self, order, angles):
        order = {"one": 1, "two": 2, "below": angles // 2 + 1, "equal": angles, "above": 3 * angles + 5}.get(order, order)
        rng = np.random.default_rng(order + angles)
        series = (
            random_series(rng, order, const=0.75 - 0.5j, decay=0.5),
            AnalyticSeries(np.arange(1, order + 1) ** 2.0),  # positive terms add up at angle 0
            AnalyticSeries(np.zeros(order)),
        )
        values, bound = circle_scan(series, self.RADII, angles)
        assert values.shape == (3, len(self.RADII), angles) and bound.shape == (3, len(self.RADII))
        assert not values[2].any() and not bound[2].any()
        n = np.arange(1, order + 1)
        for j, r in enumerate(self.RADII):
            horner = evaluate_stack(series, circle_points(r, angles))
            for k, s in enumerate(series[:2]):
                gap = np.max(np.abs(values[k, j] - horner[k]))
                assert gap <= bound[k, j]
                # the bound is a few thousand roundings of the coefficient sum
                size = abs(s.const) + np.sum(np.abs(s.coeffs) * r**n)
                assert bound[k, j] <= 1e-10 * size

    def test_folding_keeps_every_coefficient(self):
        # z^n and z^(n + M) agree on the M-th roots of unity times r, up to r^M
        coeffs = np.zeros(300)
        coeffs[[2, 2 + 128, 2 + 256]] = 1.0
        (values,), _ = circle_scan([AnalyticSeries(coeffs)], [0.5], 128)
        z = circle_points(0.5, 128)
        np.testing.assert_allclose(values[0], z**3 * (1 + 0.5**128 + 0.5**256), rtol=1e-14)

    @pytest.mark.parametrize("r", [0.0, 1.0, 1.2, -0.5, float("nan")])
    def test_radius_outside_the_disk_rejected(self, r):
        with pytest.raises(DomainError):
            circle_scan([identity_series(4)], [0.5, r], 256)


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

    def test_order_one_derivative_is_the_constant(self):
        # c1 z has the constant derivative c1: coeffs [0], const c1, on every call
        s = AnalyticSeries([2.0 - 1.0j], const=0.5)
        d = s.derivative()
        assert d is s.derivative()
        assert (d.order, d.coeffs.tolist(), d.const) == (1, [0j], 2.0 - 1.0j)
        for z in (0.0, 0.5, -0.3 + 0.2j):
            assert d.evaluate(z) == 2.0 - 1.0j
        assert (d.derivative().coeffs.tolist(), d.derivative().const) == ([0j], 0j)

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
        # the tolerance is COEFF_TOL = 1e-12
        assert AnalyticSeries([1.0 + 5e-13, 0.0], const=5e-13).is_normalized()
        assert not AnalyticSeries([1.0 + 2e-12, 0.0]).is_normalized()

    def test_immutable(self):
        s = koebe_series(4)
        with pytest.raises(ValueError):
            s.coeffs[0] = 5.0
