"""Harmonic mappings f = h + conj(g) and their operator calculus.

The map is determined by the analytic pair (h, g).  Operators come in
three flavors: pointwise calculus (evaluation, Jacobian), slicing into
analytic functions h + eps*g, and the convolution / integral operators
that act coefficientwise on both parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import AnalyticSeries, DomainError, alexander, convolve, linear_combine

SLICE_MODULUS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class HarmonicMap:
    """Pair (h, g) of equally truncated series representing h + conj(g).

    ``closed_form`` optionally names a catalog tag whose exact evaluator
    is preferred by :func:`eval_map`.  Equality and hashing are by
    identity, as for :class:`AnalyticSeries`.
    """

    h: AnalyticSeries
    g: AnalyticSeries
    closed_form: str | None = None

    def __post_init__(self) -> None:
        if self.h.order != self.g.order:
            raise ValueError(
                f"h and g must share a truncation order (got {self.h.order} and {self.g.order})"
            )

    @property
    def order(self) -> int:
        return self.h.order

    def is_normalized(self, tol: float = 1e-12) -> bool:
        """h(0) = g(0) = 0, h'(0) = 1, g'(0) = 0."""
        return (
            self.h.is_normalized(tol)
            and abs(self.g.coeffs[0]) <= tol
            and abs(self.g.const) <= tol
        )


def analytic_map(h: AnalyticSeries, closed_form: str | None = None) -> HarmonicMap:
    """Wrap an analytic function as a harmonic map with g = 0."""
    zero = AnalyticSeries(np.zeros(h.order, dtype=np.complex128))
    return HarmonicMap(h=h, g=zero, closed_form=closed_form)


def eval_map(f: HarmonicMap, z):
    """f(z) = h(z) + conj(g(z)) for |z| < 1.

    When the map carries a closed-form tag the exact evaluator is used
    instead of the truncated series (the two are required to agree; see
    the catalog tests).  Without a tag the series are summed.
    """
    if f.closed_form is not None:
        from .catalog import eval_closed

        return eval_closed(f.closed_form, z)
    return f.h.evaluate(z) + np.conj(f.g.evaluate(z))


def jacobian(f: HarmonicMap, z):
    """|h'(z)|^2 - |g'(z)|^2; positive iff sense-preserving at z."""
    z = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(z) >= 1.0):
        raise DomainError("Jacobian requires |z| < 1")
    hp = f.h.derivative().evaluate(z)
    gp = f.g.derivative().evaluate(z)
    out = np.abs(hp) ** 2 - np.abs(gp) ** 2
    return float(out) if out.ndim == 0 else out


def slice_map(f: HarmonicMap, eps) -> AnalyticSeries:
    """The analytic slice h + eps*g, coefficientwise, for |eps| <= 1."""
    eps = complex(eps)
    if abs(eps) > 1.0 + SLICE_MODULUS_TOL:
        raise ValueError(f"slice parameter must satisfy |eps| <= 1, got |{eps}|")
    return linear_combine([(1.0, f.h), (eps, f.g)])


def harmonic_convolve(f: HarmonicMap, F: HarmonicMap) -> HarmonicMap:
    """Componentwise Hadamard product (h*H, g*G)."""
    return HarmonicMap(h=convolve(f.h, F.h), g=convolve(f.g, F.g))


def tilde_convolve(phi: AnalyticSeries, f: HarmonicMap) -> HarmonicMap:
    """Hadamard product of an analytic phi against both parts of f."""
    return HarmonicMap(h=convolve(phi, f.h), g=convolve(phi, f.g))


def convex_combination(weights, maps) -> HarmonicMap:
    """Componentwise convex combination sum_k t_k f_k.

    Weights must be nonnegative and sum to 1 within 1e-12.
    """
    weights = [float(w) for w in weights]
    maps = list(maps)
    if len(weights) != len(maps) or not maps:
        raise ValueError("weights and maps must be equally long and nonempty")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {sum(weights)!r}")
    h = linear_combine([(w, m.h) for w, m in zip(weights, maps)])
    g = linear_combine([(w, m.g) for w, m in zip(weights, maps)])
    return HarmonicMap(h=h, g=g)


def alexander_plus(f: HarmonicMap) -> HarmonicMap:
    """Coefficient rule (a_n, b_n) -> (a_n/n, b_n/n) on both parts."""
    return HarmonicMap(h=alexander(f.h), g=alexander(f.g))


def alexander_minus(f: HarmonicMap) -> HarmonicMap:
    """Like :func:`alexander_plus` but with the g part negated."""
    g = alexander(f.g)
    return HarmonicMap(h=alexander(f.h), g=AnalyticSeries(-g.coeffs))
