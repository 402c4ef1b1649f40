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

    The constructor takes input from outside the library: it converts,
    validates and copies it.  A series the library computes is built by
    :meth:`_own` on the array it just made, without the copy.
    """

    coeffs: np.ndarray
    const: complex = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        const = complex(self.const)
        _check_finite(arr, const)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "const", const)

    @classmethod
    def _own(cls, coeffs: np.ndarray, const: complex = 0j):
        """The series on ``coeffs``, a nonempty 1-d complex128 array that the
        library has just computed and hands over: no conversion and no
        copy, one finiteness check, and the array is made read-only.  A
        2-d ``coeffs``, a stack of rows, gives the list of the series on
        its rows, each with ``const``: the stack is checked and made
        read-only once, and each series holds a view of its row."""
        const = complex(const)
        _check_finite(coeffs, const)
        coeffs.setflags(write=False)
        series = []
        for row in coeffs if coeffs.ndim == 2 else (coeffs,):
            s = object.__new__(cls)
            object.__setattr__(s, "coeffs", row)
            object.__setattr__(s, "const", const)
            series.append(s)
        return series if coeffs.ndim == 2 else series[0]

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
        ``z`` is :func:`evaluate_groups` on one group of this one series,
        its points in one row, and the values take ``z``'s shape.  A Python
        or numpy number (or a 0-d array) runs the same recurrence on
        Python ``complex`` numbers, with the disk checked in Python too,
        since array overhead would dominate a single point, and returns a
        ``complex``.  A series that is identically zero returns zeros of
        the input's shape without running the loop.
        """
        if not isinstance(z, (complex, float, int, np.number)):
            z = np.asarray(z, dtype=np.complex128)
            if z.ndim:
                return evaluate_groups([(self,)], z.reshape(1, -1))[0, 0].reshape(z.shape)
        z = complex(z)
        if not abs(z) < 1.0:
            raise DomainError(_DISK_MESSAGE)
        if self._is_zero:
            return 0j
        return self.const + _horner(self._descending, z, 0j) * z

    @functools.cached_property
    def _is_zero(self) -> bool:
        return not (self.const or self.coeffs.any())

    @functools.cached_property
    def _descending(self) -> list[complex]:
        """The coefficients from the highest degree down, as Python complex
        numbers: Horner's rows at a scalar, cached on the first scalar
        evaluation, so a point costs the loop alone.  The row of a lone
        live series in :func:`evaluate_groups` builds its own per call
        (two or more live series run on coefficient blocks): cached
        there too, the list (about 40 bytes per coefficient) added 2 MB
        to the peak memory of the high-order catalog maps' univalence
        tests."""
        return self.coeffs[::-1].tolist()

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
        coeffs = n * self.coeffs[1:] if n.size else np.zeros(1, dtype=np.complex128)
        return AnalyticSeries._own(coeffs, const=self.coeffs[0])


def _check_finite(coeffs: np.ndarray, const: complex = 0j) -> None:
    if not (np.isfinite(coeffs).all() and cmath.isfinite(const)):
        raise ValueError("series coefficients must be finite")


_DISK_MESSAGE = "series evaluation requires finite z with |z| < 1"


def _check_disk(z: np.ndarray) -> None:
    if not np.all(np.abs(z) < 1.0):
        raise DomainError(_DISK_MESSAGE)


def _horner(rows, z, acc):
    """acc * z + c for each c in ``rows``, highest degree first, in place on an ndarray acc."""
    for c in rows:
        acc *= z
        acc += c
    return acc


def _coefficient_matrix(series, live: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients of the series ``live`` indexes, one row each, zero-padded to the
    highest order, and their constant terms."""
    matrix = np.zeros((len(live), max(series[k].order for k in live)), dtype=np.complex128)
    for j, k in enumerate(live):
        matrix[j, : series[k].order] = series[k].coeffs
    return matrix, np.array([series[k].const for k in live])


def padded_rows(mask: np.ndarray) -> np.ndarray:
    """The column indices of the true entries of each row of the boolean
    (G, P) ``mask``, in order, as one (G, W) array with W = max(2, the most
    in a row), the width :func:`evaluate_groups` asks for; a row with fewer
    is padded by repeating its first index, so every value computed from a
    row is a value at one of its own points.  Every row must have one."""
    counts = mask.sum(axis=1)
    column = np.arange(max(2, counts.max()))
    return mask.nonzero()[1][(counts.cumsum() - counts)[:, None] + column * (column < counts[:, None])]


#: cap on the entries of the block of coefficients, widened to the rows'
#: width, that the stacked Horner loop of :func:`evaluate_groups` adds from
HORNER_BLOCK = 1 << 15


def evaluate_groups(groups, z: np.ndarray) -> np.ndarray:
    """Each of G groups of S series at the group's own row of points, the
    one array Horner of the package.

    ``z`` has shape (G, W), |z| < 1.  Returns shape (G, S, W): series k of
    group j at ``z[j]``, bit for bit its ``evaluate`` there when W >= 2
    (see :func:`padded_rows`) or one series is live, for numpy multiplies
    a lone element without the fused multiply-add it uses on a stack.  Each
    row of points is repeated once per series; rows of identically zero
    series stay zero.

    Dispatch rule: one live series runs on its row with Python complex
    coefficients; two or more run as one loop over the live rows, the
    lower orders padded with leading zero coefficients, which keep the
    accumulator at +0.  That loop adds each degree's coefficients from a
    block already widened to the rows' width: one buffer per call of at
    most ``HORNER_BLOCK`` entries takes a run of degrees at a time, each
    degree's coefficient repeated along its row by one broadcast copy.
    So every ``*=`` and ``+=`` has operands of one shape and takes
    numpy's contiguous loop, where a broadcast (live, 1) column costs a
    loop per row and degree; a complex sum rounds each part once either
    way, so the bits do not change.  Measured (median of 15 alternated
    runs, 2-core host), blocks against the rows one by one and against a
    broadcast column:

    | live series x maps, order, points per row | blocks | rows | broadcast |
    |---|---|---|---|
    | 2, order 64, 256 | 0.200 ms | 0.268 ms | 0.261 ms |
    | 2, order 1536, 6 | 1.16 ms | 2.64 ms | 1.84 ms |
    | 2, order 4096, 9 | 3.17 ms | 7.09 ms | 5.00 ms |
    | 4 x 32, order 64, 12 | 0.386 ms | 0.402 ms | 0.403 ms |
    | 4 x 32, order 200, 12 | 1.12 ms | 0.89 ms | 0.89 ms |
    | 2, order 64, 1024 | 0.277 ms | 0.227 ms | 0.304 ms |

    The order-200 set loses to the page faults of a fresh process (its
    0.5 MB block and 0.4 MB coefficient matrix); in ``run_all`` it is 7
    calls of about 1 ms.  Rows of 1024 points or more with two live series
    run faster one by one, but ``run_all`` and the benchmark's workloads
    make no such call.  One live series keeps its row: on one wide row (order
    400, 2048 points) it takes 0.98 ms against 1.38 ms on blocks.
    """
    z = np.asarray(z, dtype=np.complex128)
    _check_disk(z)
    size = len(groups[0])
    series = [s for group in groups for s in group]
    w = np.repeat(z, size, axis=0)
    out = np.zeros(w.shape, dtype=np.complex128)
    live = [k for k, s in enumerate(series) if not s._is_zero]
    if len(live) == 1:
        [k] = live
        s, row = series[k], w[k]
        out[k] = s.const + _horner(s.coeffs[::-1].tolist(), row, np.zeros_like(row)) * row
    elif live:
        matrix, const = _coefficient_matrix(series, live)
        w = w[live]
        acc = np.zeros(w.shape, dtype=np.complex128)
        descending = matrix.T[::-1, :, None]
        block = np.empty((min(len(descending), max(1, HORNER_BLOCK // w.size)), *w.shape), dtype=np.complex128)
        for start in range(0, len(descending), len(block)):
            rows = block[: len(descending) - start]
            rows[...] = descending[start : start + len(rows)]
            acc = _horner(rows, w, acc)
        out[live] = const[:, None] + acc * w
    return out.reshape(len(groups), size, -1)


def point_batches(series):
    """``at(rows, points)``, the list of ``series[k].evaluate(z)`` for k, z in
    ``zip(rows, points)``, each a Python complex z with |z| < 1 (unchecked),
    bit for bit, for many points of many series in one Horner loop.

    Python's complex product rounds each of its four real products before
    the sum, where numpy's complex multiply of an array fuses a product
    into the sum; so the loop runs on split real and imaginary float
    arrays, acc * z as (ar zr - ai zi, ar zi + ai zr) and then acc + c,
    with every operation a separate rounding, and without overflow
    warnings, as in Python.  The series are padded to the highest order
    with leading +0 coefficients, which keep the accumulator at +0 + 0j,
    its start; identically zero series give 0j.  The coefficient matrix,
    laid out as for :func:`circle_scan` and :func:`evaluate_groups`, is
    built once, here.  A call costs 9 numpy operations per degree, about
    4.5 us per degree on 64 points and 8 to 10 us on 512 (orders 64 and
    200), so it pays where :meth:`AnalyticSeries.evaluate` would take more
    than about 70 points one at a time.
    """
    zero = [s._is_zero for s in series]
    matrix, const = _coefficient_matrix(series, list(range(len(series))))

    def at(rows, points) -> list[complex]:
        index = np.array(rows, dtype=np.intp)
        zr = np.array([w.real for w in points])
        zi = np.array([w.imag for w in points])
        ar, ai = np.zeros(zr.size), np.zeros(zr.size)
        with np.errstate(all="ignore"):
            for degree in matrix.T[::-1]:
                c = degree.take(index)
                ar, ai = ar * zr - ai * zi + c.real, ar * zi + ai * zr + c.imag
            re = const.real[index] + (ar * zr - ai * zi)
            im = const.imag[index] + (ar * zi + ai * zr)
        return [0j if zero[k] else complex(a, b) for k, a, b in zip(rows, re.tolist(), im.tolist())]

    return at


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
    the transform's below 1 eps S.  Margins and certificates choose points
    by the values and report Horner's; the univalence test reads the values.
    Radii outside (0, 1) raise ``DomainError``.
    """
    radii = np.asarray(radii, dtype=np.float64).reshape(-1)
    if not np.all((radii > 0.0) & (radii < 1.0)):
        raise DomainError(f"circle radii must lie in (0, 1), got {radii.tolist()}")
    values = np.zeros((len(series), radii.size, angles), dtype=np.complex128)
    bound = np.zeros((len(series), radii.size))
    live = [k for k, s in enumerate(series) if not s._is_zero]
    if not live:
        return values, bound
    matrix, const = _coefficient_matrix(series, live)
    order = matrix.shape[1]
    orders = np.array([series[k].order for k in live], dtype=np.float64)
    powers = radii[:, None] ** np.arange(1, order + 1)
    moduli = np.abs(matrix)
    size = np.abs(const)[:, None] + moduli @ powers.T
    slope = moduli @ (powers * np.arange(1, order + 1)).T
    bound[live] = EPS * ((2.0 * orders[:, None] + 4.0 * math.log2(angles)) * size + 10.0 * slope)
    width = -(-(order + 1) // angles) * angles
    spectrum = np.zeros((len(live), radii.size, width), dtype=np.complex128)
    spectrum[:, :, 0] = const[:, None]
    np.multiply(matrix[:, None, :], powers, out=spectrum[:, :, 1 : order + 1])
    if width > angles:
        spectrum = spectrum.reshape(len(live), radii.size, -1, angles).sum(axis=2)
    values[live] = np.fft.ifft(spectrum, norm="forward")
    return values, bound


def _candidates(value: np.ndarray, err: np.ndarray) -> np.ndarray:
    """The points of each row (the last axis) that may hold the row's least
    Horner value, given scanned values ``value`` each within ``err`` of it,
    as a mask: those whose low end value - err does not exceed the least
    high end value + err of the row, for the rest can neither hold the
    minimum nor tie with it.  An interval that is not a number, such as
    inf - inf, is the whole line."""
    with np.errstate(invalid="ignore"):
        low, high = value - err, value + err
    unknown = np.isnan(low) | np.isnan(high)
    low[unknown], high[unknown] = -np.inf, np.inf
    return low <= high.min(axis=-1, keepdims=True)


def _rows(x) -> tuple[np.ndarray, complex]:
    """The rows of a stack, or a series as a stack of one row, and the constant term.

    Every operand is 2-d because numpy rounds a product of one element
    one way when its operands have different numbers of dimensions and
    another way otherwise; with equal numbers, each element of a stack
    gets the bits it gets in a row alone.
    """
    if isinstance(x, AnalyticSeries):
        return x.coeffs[None], x.const
    return x, 0j


def _built(rows: np.ndarray, stack: bool, const: complex = 0j):
    """A result just computed: with ``stack`` a read-only stack, else the series
    of its one row; its finiteness checked once."""
    if not stack:
        return AnalyticSeries._own(rows[0], const)
    if const:
        raise ValueError("a stack of coefficient rows carries no constant term")
    _check_finite(rows)
    rows.setflags(write=False)
    return rows


def _is_stack(x) -> bool:
    return not isinstance(x, AnalyticSeries)


def convolve(s, t):
    """Hadamard product: coefficientwise c_n = s_n * t_n.

    The result is truncated to the shorter of the two inputs; tail
    information of the longer one is silently lost.  Constant terms do
    not participate and are dropped.

    Either input may be a stack, a read-only (S, N) complex array of
    coefficient rows, one series per row, with no constant term; the
    result is then the stack of the products, row k bit for bit the
    product of row k alone.  This holds for :func:`alexander` and
    :func:`linear_combine` too.
    """
    a, b = _rows(s)[0], _rows(t)[0]
    n = min(a.shape[-1], b.shape[-1])
    return _built(a[:, :n] * b[:, :n], _is_stack(s) or _is_stack(t))


def alexander(s):
    """Integral operator dividing the n-th coefficient by n, of a series or a stack."""
    rows, const = _rows(s)
    if abs(const) > 0:
        raise ValueError("operator undefined for a series with constant term")
    return _built(rows / np.arange(1, rows.shape[-1] + 1), _is_stack(s))


def linear_combine(terms):
    """Coefficientwise weighted sum of ``(weight, series)`` pairs.

    The common truncation is the minimum over the terms.  A term may be a
    stack, and a weight a 1-d array of S weights, one per row; the
    result is then a stack of S rows.  A stack carries no constant term,
    so a nonzero ``const`` in a stack's result, as from a derivative
    series under an array weight, raises ``ValueError``.
    """
    terms = [(np.asarray(w, dtype=np.complex128), s) for w, s in terms]
    if not terms:
        raise ValueError("linear_combine requires at least one term")
    if any(w.ndim > 1 for w, _ in terms):
        raise ValueError("a weight is a number or a 1-d array of row weights")
    n = min(s.shape[-1] if _is_stack(s) else s.order for _, s in terms)
    rows = np.zeros((1, n), dtype=np.complex128)
    const = 0.0 + 0.0j
    for w, s in terms:
        c, k = _rows(s)
        rows = rows + w.reshape(-1, 1) * c[:, :n]
        if not w.ndim:
            const += complex(w) * k
        elif k:
            raise ValueError("a stack of coefficient rows carries no constant term")
    return _built(rows, any(w.ndim or _is_stack(s) for w, s in terms), const)
