"""Truncated complex power series on the unit disk.

A series holds the Taylor coefficients of ``sum_{n=1}^{N} c_n z^n``; the
constant term is zero for normalized functions and appears only as the
carried ``const`` slot of derivative series.  All operations are pure and
return new values.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

DEFAULT_ORDER = 64

#: slack used by normalization / exact-coefficient predicates
COEFF_TOL = 1e-12


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

    def coeff(self, n: int) -> complex:
        """Coefficient of ``z**n`` (1-indexed)."""
        if not 1 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside 1..{self.order}")
        return complex(self.coeffs[n - 1])

    def is_normalized(self, tol: float = COEFF_TOL) -> bool:
        """True when the series has c_1 = 1 and no constant term."""
        return abs(self.coeffs[0] - 1.0) <= tol and abs(self.const) <= tol

    def evaluate(self, z):
        """Value at ``z`` (scalar or ndarray), |z| < 1.

        Nested multiplication from the highest degree down, in place on an
        ndarray.  A scalar (0-d) ``z`` runs the same recurrence on Python
        ``complex`` numbers, since array overhead would dominate a single
        point, and returns a ``complex``.  A series that is identically
        zero returns zeros of the input's shape without running the loop.
        """
        z = np.asarray(z, dtype=np.complex128)
        if np.any(np.abs(z) >= 1.0):
            raise DomainError("series evaluation requires |z| < 1")
        if z.ndim == 0:
            z, acc = complex(z), 0j
        else:
            acc = np.zeros_like(z)
        if not (self.const or self.coeffs.any()):
            return acc
        for c in self.coeffs[::-1].tolist():
            acc *= z
            acc += c
        return self.const + acc * z

    def derivative(self) -> "AnalyticSeries":
        """Termwise derivative, truncation N - 1.

        The derivative's constant term (the input's c_1) is carried in
        ``const``; the input's own ``const`` differentiates away.  It is
        built on the first call and cached on the instance, which is safe
        because the series is frozen and ``coeffs`` is read-only: later
        calls return the same object.  An order-1 series raises
        ``ValueError`` on every call.
        """
        return self._derivative

    @functools.cached_property
    def _derivative(self) -> "AnalyticSeries":
        if self.order < 2:
            raise ValueError("derivative requires order >= 2")
        n = np.arange(2, self.order + 1)
        return AnalyticSeries(n * self.coeffs[1:], const=complex(self.coeffs[0]))


def identity_series(order: int = DEFAULT_ORDER) -> AnalyticSeries:
    """The series of f(z) = z."""
    c = np.zeros(order, dtype=np.complex128)
    c[0] = 1.0
    return AnalyticSeries(c)


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
