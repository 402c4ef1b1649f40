"""Truncated complex power series on the unit disk.

A series holds the Taylor coefficients of ``sum_{n=1}^{N} c_n z^n``; the
constant term is zero for normalized functions and appears only as the
carried ``const`` slot of derivative series.  All operations are pure and
return new values.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

#: slack used by normalization / exact-coefficient predicates
COEFF_TOL = 1e-12

#: spacing of doubles at 1, the unit of the circle scan's error bound
EPS = float(np.finfo(np.float64).eps)


class DomainError(ValueError):
    """Evaluation requested outside the open unit disk."""


@dataclass(frozen=True, eq=False)
class AnalyticSeries:
    """Truncated Taylor series ``const + sum_{n=1}^{N} coeffs[n-1] z^n``.

    ``coeffs[k]`` is the coefficient of ``z**(k+1)``.  ``const`` is zero
    except for series produced by :meth:`derivative`, which carry the
    derivative's constant term there so evaluation stays correct.
    Equality and hashing are by identity; compare ``coeffs`` for values.
    """

    coeffs: np.ndarray
    const: complex = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        const = complex(self.const)
        if not (np.isfinite(arr).all() and cmath.isfinite(const)):
            raise ValueError("series coefficients must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "const", const)

    @property
    def order(self) -> int:
        """Truncation order N."""
        return int(self.coeffs.size)

    def is_normalized(self) -> bool:
        """True when the series has c_1 = 1 and no constant term, to ``COEFF_TOL``."""
        return abs(self.coeffs[0] - 1.0) <= COEFF_TOL and abs(self.const) <= COEFF_TOL

    def evaluate(self, z):
        """Value at ``z`` (scalar or ndarray), |z| < 1.

        Nested multiplication from the highest degree down.  An ndarray
        ``z`` gives the series' row of :func:`evaluate_stack`.  A scalar
        (0-d) ``z`` runs the same recurrence on Python ``complex``
        numbers, since array overhead would dominate a single point, and
        returns a ``complex``.  A series that is identically zero returns
        zeros of the input's shape without running the loop.
        """
        z = np.asarray(z, dtype=np.complex128)
        _check_disk(z)
        if z.ndim:
            return _evaluate_row(self, z)
        if self._is_zero:
            return 0j
        z = complex(z)
        return self.const + _horner(self.coeffs[::-1].tolist(), z, 0j) * z

    @property
    def _is_zero(self) -> bool:
        return not (self.const or self.coeffs.any())

    def derivative(self) -> "AnalyticSeries":
        """Termwise derivative, truncation max(N - 1, 1).

        The derivative's constant term (the input's c_1) is carried in
        ``const``; the input's own ``const`` differentiates away.  An
        order-1 series has the constant derivative c_1, returned as an
        order-1 series with ``coeffs`` [0] and ``const`` c_1.  It is built
        on the first call and cached on the instance, which is safe
        because the series is frozen and ``coeffs`` is read-only: later
        calls return the same object.
        """
        return self._derivative

    @functools.cached_property
    def _derivative(self) -> "AnalyticSeries":
        n = np.arange(2, self.order + 1)
        coeffs = n * self.coeffs[1:] if n.size else [0.0]
        return AnalyticSeries(coeffs, const=complex(self.coeffs[0]))


def _check_disk(z: np.ndarray) -> None:
    if np.any(np.abs(z) >= 1.0):
        raise DomainError("series evaluation requires |z| < 1")


def _horner(rows, z, acc):
    """acc * z + c for each c in ``rows``, highest degree first, in place on an ndarray acc."""
    for c in rows:
        acc *= z
        acc += c
    return acc


def _evaluate_row(s: AnalyticSeries, z: np.ndarray) -> np.ndarray:
    """One series at the ndarray ``z``, by Horner on its Python complex coefficients."""
    acc = np.zeros_like(z)
    if s._is_zero:
        return acc
    return s.const + _horner(s.coeffs[::-1].tolist(), z, acc) * z


def evaluate_stack(series, z: np.ndarray) -> np.ndarray:
    """Values of several series at the same points, one row per series.

    ``z`` is an ndarray of points with |z| < 1; row k, of ``z``'s shape,
    is bit for bit ``series[k].evaluate(z)``.  One Horner loop runs over
    the nonzero series together, the shorter ones padded with leading
    zero coefficients, which leave the accumulator at +0; rows of
    identically zero series stay zero.
    """
    z = np.asarray(z, dtype=np.complex128)
    _check_disk(z)
    out = np.zeros((len(series),) + z.shape, dtype=np.complex128)
    live = [k for k, s in enumerate(series) if not s._is_zero]
    if z.size == 1 or len(live) == 1:
        # a lone series runs on Python complex coefficients, which cost less
        # per step than a stack's rows; numpy multiplies a lone element
        # without the fused multiply-add it uses on a stack of them, so one
        # point runs series by series too
        for k in live:
            out[k] = _evaluate_row(series[k], z)
    elif live:
        order = max(series[k].order for k in live)
        column = (len(live),) + (1,) * z.ndim
        rows = np.zeros((order,) + column, dtype=np.complex128)
        for j, k in enumerate(live):
            rows[order - series[k].order :, j].flat = series[k].coeffs[::-1]
        const = np.array([series[k].const for k in live]).reshape(column)
        acc = _horner(rows, z, np.zeros((len(live),) + z.shape, dtype=np.complex128))
        out[live] = const + acc * z
    return out


def circle_scan(series, radii, angles: int) -> tuple[np.ndarray, np.ndarray]:
    """Several series on ``angles`` equispaced points of each circle |z| = r, by one inverse FFT.

    Returns ``(values, bound)``: ``values[k, j, m]`` is series k at
    r_j exp(2 pi i m / angles), shape (series, radii, angles).  On the
    circle, the coefficient of z**n contributes c_n r**n to the term
    n mod ``angles`` of an inverse DFT, so the coefficients are scaled by
    r**n, folded mod ``angles`` when the order reaches it, and transformed
    together.  An identically zero series gives zeros (and a zero bound)
    without a transform.

    ``bound[k, j]`` bounds |values[k, j, m] - series[k].evaluate(z_m)| at
    every point z_m = r_j * exp(1j * m * (2 pi / angles)) computed in
    double precision, the circle tables of :mod:`harmap.geometry`.  For a
    series of order N, with S = |const| + sum |c_n| r**n,
    S1 = sum n |c_n| r**n and eps = 2**-52 it is

        eps * ((2 N + 4 log2(angles)) * S + 10 * S1).

    To first order in eps, Horner's rounding in complex arithmetic stays
    below 1.92 eps N S (a multiply and an add per degree; Higham 2002,
    sec. 3.6), the transform's below about 2.5 eps log2(angles) S (a
    butterfly level per factor of 2, each rounding relative to the moduli
    it sums), and the rounded points lie within 9 eps r of the exact ones
    (angle, exponential and scaling), which moves a value by at most
    9 eps S1.  The point term dominates in practice: on the 12 catalog
    maps and their first two derivatives at orders 400 to 4096, 256 to
    2048 angles and r from 1e-3 to 0.99, the largest difference is a
    fifth of the bound; against 40-digit arithmetic (harmonic Koebe,
    order 400, r = 0.99) Horner's own rounding stays below 5 eps S and
    the transform's below 1 eps S.  The values are for choosing points;
    every reported value is evaluated by Horner.  Radii outside (0, 1)
    raise ``DomainError``.
    """
    radii = np.asarray(radii, dtype=np.float64).reshape(-1)
    if not np.all((radii > 0.0) & (radii < 1.0)):
        raise DomainError(f"circle radii must lie in (0, 1), got {radii.tolist()}")
    values = np.zeros((len(series), radii.size, angles), dtype=np.complex128)
    bound = np.zeros((len(series), radii.size))
    live = [k for k, s in enumerate(series) if not s._is_zero]
    if not live:
        return values, bound
    order = max(series[k].order for k in live)
    width = -(-(order + 1) // angles) * angles
    spectrum = np.zeros((len(live), radii.size, width), dtype=np.complex128)
    powers = radii[:, None] ** np.arange(1, order + 1)
    degrees = np.arange(1, order + 1, dtype=np.float64)
    for j, k in enumerate(live):
        s = series[k]
        moduli = np.abs(s.coeffs) * powers[:, : s.order]
        size, slope = abs(s.const) + moduli.sum(axis=-1), moduli @ degrees[: s.order]
        bound[k] = EPS * ((2.0 * s.order + 4.0 * math.log2(angles)) * size + 10.0 * slope)
        spectrum[j, :, 0] = s.const
        spectrum[j, :, 1 : s.order + 1] = s.coeffs * powers[:, : s.order]
    if width > angles:
        spectrum = spectrum.reshape(len(live), radii.size, -1, angles).sum(axis=2)
    values[live] = np.fft.ifft(spectrum, norm="forward")
    return values, bound


def convolve(s: AnalyticSeries, t: AnalyticSeries) -> AnalyticSeries:
    """Hadamard product: coefficientwise c_n = s_n * t_n.

    The result is truncated to the shorter of the two inputs; tail
    information of the longer one is silently lost.  Constant terms do
    not participate and are dropped.
    """
    n = min(s.order, t.order)
    return AnalyticSeries(s.coeffs[:n] * t.coeffs[:n])


def alexander(s: AnalyticSeries) -> AnalyticSeries:
    """Integral operator dividing the n-th coefficient by n."""
    if abs(s.const) > 0:
        raise ValueError("operator undefined for a series with constant term")
    n = np.arange(1, s.order + 1)
    return AnalyticSeries(s.coeffs / n)


def linear_combine(terms) -> AnalyticSeries:
    """Coefficientwise weighted sum of ``(weight, series)`` pairs.

    The common truncation is the minimum over the terms.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("linear_combine requires at least one term")
    n = min(s.order for _, s in terms)
    coeffs = np.zeros(n, dtype=np.complex128)
    const = 0.0 + 0.0j
    for w, s in terms:
        coeffs += complex(w) * s.coeffs[:n]
        const += complex(w) * s.const
    return AnalyticSeries(coeffs, const=const)
