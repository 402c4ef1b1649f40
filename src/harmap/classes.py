"""Membership certificates, coefficient bounds, growth envelopes, samplers.

Two kinds of classes appear.  A grid class is defined by one strict
pointwise inequality over the disk on its defining pair (u, v) of
analytic functions: Re u > |v| (R_H0, W_H0, R_H0_G) or
|u - 1| + |v| < 1 (F_H0, F_H0_G).  The pair is (h', g'), for W_H0
((z h')', (z g')'), and for the _G classes (h'/G', g'/G').  The slack
is superharmonic, so it is checked on one circle, the boundary of the
closed disk it certifies, with a positive-margin tolerance.
Coefficient classes are defined by an exact weighted coefficient sum
and are checked without discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .geometry import DEFAULT_GRID, GRID_ANGLES, SamplingGrid, _winding_number
from .harmonic import HarmonicMap
from .series import AnalyticSeries, circle_scan

#: positive-margin tolerance certifying a strict inequality on a closed grid
STRICTNESS_TOL = 1e-9

#: floating-point slack for the exact coefficient classes
EXACT_TOL = 1e-12

#: certifying circle of the relative (_G) classes: their reference-map
#: series converge too slowly for trustworthy evaluation near |z| = 1
G_VARIANT_GRID = SamplingGrid(radius=0.75)


class ClassName(str, Enum):
    R_H0 = "R_H0"
    W_H0 = "W_H0"
    F_H0 = "F_H0"
    U_H0 = "U_H0"
    V_H0 = "V_H0"
    S_R = "S_R"
    R_H0_G = "R_H0_G"
    F_H0_G = "F_H0_G"


RELATIVE_CLASSES = {ClassName.R_H0_G, ClassName.F_H0_G}
GRID_CLASSES = {ClassName.R_H0, ClassName.W_H0, ClassName.F_H0} | RELATIVE_CLASSES


class SingularReferenceError(ArithmeticError):
    """The reference map's derivative vanishes on or inside the certifying circle."""


@dataclass(frozen=True)
class ClassId:
    """A function class, with the reference series G for (and only for) the _G variants."""

    name: ClassName
    reference_map: AnalyticSeries | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", ClassName(self.name))
        relative = self.name in RELATIVE_CLASSES
        if relative == (self.reference_map is None):
            raise ValueError(f"{self.name.value} {'requires a' if relative else 'takes no'} reference map")


@dataclass(frozen=True)
class MembershipResult:
    is_member: bool
    margin: float
    witness: complex | int
    status: str  # "member" | "boundary" | "rejected"


@dataclass(frozen=True)
class BoundCheckReport:
    """Gap check ||a_n| - |b_n|| <= p(n) for n = 2..n_max."""

    gaps: np.ndarray  # indexed from n = 2
    bounds: np.ndarray
    violations: tuple[tuple[int, float, float], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _certifying_grid(c: ClassId) -> SamplingGrid:
    """The circle that :func:`membership` certifies the class on."""
    return G_VARIANT_GRID if c.name in RELATIVE_CLASSES else DEFAULT_GRID


def _grid_slack(f: HarmonicMap, c: ClassId, z: np.ndarray) -> np.ndarray:
    """The slack of the class's defining pair (u, v) at the points z."""
    hp, gp = f.h.derivative(), f.g.derivative()
    if c.name is ClassName.W_H0:
        # (z h')' and (z g')' have coefficients n^2 a_n: n times those of h', g'
        n = np.arange(2, hp.order + 2)
        hp, gp = (AnalyticSeries(n * s.coeffs, const=s.const) for s in (hp, gp))
    u, v = hp.evaluate(z), gp.evaluate(z)
    if c.reference_map is not None:
        gref = c.reference_map.derivative().evaluate(z)
        # a zero inside makes G' wind about 0 along the circle (argument principle)
        if np.min(np.abs(gref)) < 1e-12 or abs(_winding_number(gref, 0.0)) > 0.5:
            raise SingularReferenceError("reference derivative vanishes on or inside the certifying circle")
        u, v = u / gref, v / gref
    if c.name in (ClassName.F_H0, ClassName.F_H0_G):
        return 1.0 - np.abs(u - 1.0) - np.abs(v)
    return np.real(u) - np.abs(v)


def _result(margin: float, witness: complex | int, floor: float) -> MembershipResult:
    """Member above ``STRICTNESS_TOL``, boundary down to ``floor``, rejected below."""
    if margin > STRICTNESS_TOL:
        return MembershipResult(True, margin, witness, "member")
    if margin >= floor:
        return MembershipResult(True, margin, witness, "boundary")
    return MembershipResult(False, margin, witness, "rejected")


def membership(f: HarmonicMap, c: ClassId) -> MembershipResult:
    """Certify class membership; see the module docstring for semantics.

    Grid classes report the minimum of the defining slack on the
    certifying circle (|z| = 0.99, or 0.75 for the _G classes) with the
    attaining point as witness; margins in [0, tol] are flagged as
    boundary rather than rejected.  The slack is a harmonic real part
    minus moduli of analytic functions, hence superharmonic, so its
    infimum over the closed disk is attained on the boundary circle.
    For the _G classes that needs G' free of zeros in the closed disk,
    else ``SingularReferenceError``.  Coefficient classes report
    1 - (weighted sum) with the dominant coefficient index as witness.
    """
    if not f.is_normalized():
        raise ValueError("membership requires a normalized map")
    if c.name in GRID_CLASSES:
        z = _certifying_grid(c).points()
        slack = _grid_slack(f, c, z)
        k = int(np.argmin(slack))
        return _result(float(slack[k]), complex(z[k]), 0.0)

    if c.name is ClassName.S_R:
        deviation = np.maximum(np.abs(np.imag(f.h.coeffs)), np.abs(f.g.coeffs))
        k = int(np.argmax(deviation))
        margin = 0.0 - float(deviation[k])  # not -x, which prints a zero as -0
        status = "member" if margin == 0.0 else ("boundary" if margin >= -EXACT_TOL else "rejected")
        return MembershipResult(margin >= -EXACT_TOL, margin, k + 1, status)
    n = np.arange(2, f.order + 1)
    weight = n if c.name is ClassName.U_H0 else n**2
    contributions = weight * (np.abs(f.h.coeffs[1:]) + np.abs(f.g.coeffs[1:]))
    witness = int(n[np.argmax(contributions)]) if n.size else 1
    return _result(float(1.0 - contributions.sum()), witness, -EXACT_TOL)


def _lower_R(r: float) -> float:
    return -r + 2.0 * math.log1p(r)


def _upper_R(r: float) -> float:
    return math.inf if r >= 1.0 else -r - 2.0 * math.log1p(-r)


def _log_ratio(sign: float):
    def integrand(t: float) -> float:
        if t == 0.0:
            return 1.0 if sign > 0 else -1.0
        return math.log1p(sign * t) / t

    return integrand


def _lower_W(r: float) -> float:
    val, _ = quad(_log_ratio(+1.0), 0.0, r)
    return -r + 2.0 * val


def _upper_W(r: float) -> float:
    val, _ = quad(_log_ratio(-1.0), 0.0, r)
    return -r - 2.0 * val


_ENVELOPES: dict[ClassName, tuple[Callable[[float], float], Callable[[float], float]]] = {
    ClassName.R_H0: (_lower_R, _upper_R),
    ClassName.W_H0: (_lower_W, _upper_W),
    ClassName.U_H0: (lambda r: r - r**2 / 2, lambda r: r + r**2 / 2),
    ClassName.V_H0: (lambda r: r - r**2 / 4, lambda r: r + r**2 / 4),
}

_GAP_BOUNDS: dict[ClassName, Callable[[int], float]] = {
    ClassName.R_H0: lambda n: 2.0 / n,
    ClassName.W_H0: lambda n: 2.0 / n**2,
    ClassName.U_H0: lambda n: 1.0 / n,
    ClassName.V_H0: lambda n: 1.0 / n**2,
}


def growth_envelope(c: ClassId, r: float) -> tuple[float, float]:
    """Sharp modulus envelope (lower, upper) for |f(r e^{i t})|.

    r = 1 is allowed and returns the limiting covering constant in the
    lower slot (the upper envelope may be infinite there).
    """
    if c.name not in _ENVELOPES:
        raise ValueError(f"no growth envelope for class {c.name.value}")
    if not 0.0 < r <= 1.0:
        raise ValueError("radius must lie in (0, 1]")
    lower, upper = _ENVELOPES[c.name]
    return lower(r), upper(r)


def coefficient_bound_check(f: HarmonicMap, c: ClassId, n_max: int) -> BoundCheckReport:
    """Verify the class's gap bound ||a_n| - |b_n|| <= p(n) for 2 <= n <= n_max."""
    if c.name not in _GAP_BOUNDS:
        raise ValueError(f"no coefficient bound table for class {c.name.value}")
    if n_max > f.order:
        raise ValueError(f"n_max {n_max} exceeds truncation {f.order}")
    ns = np.arange(2, n_max + 1)
    gaps = np.abs(np.abs(f.h.coeffs[1:n_max]) - np.abs(f.g.coeffs[1:n_max]))
    bounds = np.array([_GAP_BOUNDS[c.name](int(n)) for n in ns])
    bad = gaps > bounds + EXACT_TOL
    violations = tuple(
        (int(n), float(g), float(bnd)) for n, g, bnd in zip(ns[bad], gaps[bad], bounds[bad])
    )
    return BoundCheckReport(gaps, bounds, violations)


def _split_complex(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _sample_coefficient_class(c: ClassId, rng: np.random.Generator, order: int) -> HarmonicMap:
    n = np.arange(2, order + 1)
    weight = n if c.name is ClassName.U_H0 else n.astype(float) ** 2
    raw_a = _split_complex(rng, n.size) / n**2
    raw_b = 0.5 * _split_complex(rng, n.size) / n**2
    total = float(np.sum(weight * (np.abs(raw_a) + np.abs(raw_b))))
    target = rng.uniform(0.3, 1.0)
    scale = target / total
    h = np.zeros(order, dtype=np.complex128)
    g = np.zeros(order, dtype=np.complex128)
    h[0] = 1.0
    h[1:] = raw_a * scale
    g[1:] = raw_b * scale
    return HarmonicMap(AnalyticSeries(h), AnalyticSeries(g))


def _grid_scale(name: ClassName, grid: SamplingGrid, q: np.ndarray, p: np.ndarray, target: float) -> float:
    """The scale s that puts the circle slack of 1 + s*q, s*p at ``target``, from the circle scan."""
    (qv, pv), _ = circle_scan((AnalyticSeries(q), AnalyticSeries(p)), (grid.radius,), GRID_ANGLES)
    if name in (ClassName.F_H0, ClassName.F_H0_G):
        worst = float(np.max(np.abs(qv) + np.abs(pv)))
        return (1.0 - target) / worst
    worst = float(np.min(np.real(qv) - np.abs(pv)))
    return (1.0 - target) / (-worst) if worst < 0 else 1.0


def _sample_derivative_class(c: ClassId, rng: np.random.Generator, order: int) -> HarmonicMap:
    # draw h' (or h' + z h'', or h'-1) as 1 + s*q and the g side as s*p,
    # then choose s so the circle slack hits a target in [0.1, 0.7]
    m = np.arange(1, order)
    q = _split_complex(rng, m.size) / m**2
    p = 0.4 * _split_complex(rng, m.size) / m**2
    s = _grid_scale(c.name, _certifying_grid(c), q, p, rng.uniform(0.1, 0.7))

    if c.reference_map is not None:
        # relative classes: multiply the derivative data through G' so the
        # ratio h'/G' is exactly 1 + s*q at every point of the disk
        gp = c.reference_map.derivative()
        gp_poly = np.concatenate(([gp.const], gp.coeffs))
        hp_poly = np.convolve(gp_poly, np.concatenate(([1.0], s * q)))[:order]
        gg_poly = np.convolve(gp_poly, np.concatenate(([0.0], s * p)))[:order]
        nn = np.arange(1, order + 1)
        return HarmonicMap(AnalyticSeries(hp_poly / nn), AnalyticSeries(gg_poly / nn))

    # h' + z h'' has coefficients n^2 a_n
    denom = np.arange(2, order + 1).astype(float) ** (2 if c.name is ClassName.W_H0 else 1)
    h = np.zeros(order, dtype=np.complex128)
    g = np.zeros(order, dtype=np.complex128)
    h[0] = 1.0
    h[1:] = s * q / denom
    g[1:] = s * p / denom
    return HarmonicMap(AnalyticSeries(h), AnalyticSeries(g))


def sample_member(c: ClassId, seed: int, order: int = 64) -> HarmonicMap:
    """Deterministic pseudo-random member of the class.

    Coefficient classes rescale a random draw so the defining sum lands
    in [0.3, 1]; derivative classes rescale so the margin on the
    certifying circle lands in [0.1, 0.7], choosing the scale from the
    circle scan of :func:`~harmap.series.circle_scan` (a draw choice; the
    margin :func:`membership` reports is evaluated by Horner and agrees
    with the target to rounding).  Draws of the classes without a
    reference always pass :func:`membership`.  A _G draw has
    h' = G'(1 + s q) truncated to the order; it passes when G' has no
    zero in the closed disk and the truncated tail is small on the
    certifying circle, which with the catalog references takes orders
    of about 64.  Order 1 gives the identity z, the only normalized map
    of that order: a member of every class without a reference, and of
    R_H0_G or F_H0_G when Re G' > 0 or Re G' > 1/2 on the certifying
    circle.  An order below 1 raises ``ValueError``.
    """
    if order < 1:
        raise ValueError(f"sample order must be at least 1, got {order}")
    if order == 1:
        return HarmonicMap(AnalyticSeries([1.0]), AnalyticSeries([0.0]))
    rng = np.random.default_rng(seed)
    if c.name in (ClassName.U_H0, ClassName.V_H0):
        return _sample_coefficient_class(c, rng, order)
    if c.name is ClassName.S_R:
        n = np.arange(2, order + 1)
        raw = rng.standard_normal(n.size) / n**2
        target = rng.uniform(0.3, 1.0)
        raw *= target / np.sum(n * np.abs(raw))
        h = np.zeros(order, dtype=np.complex128)
        h[0] = 1.0
        h[1:] = raw
        g = np.zeros(order, dtype=np.complex128)
        return HarmonicMap(AnalyticSeries(h), AnalyticSeries(g))
    if c.name in GRID_CLASSES:
        return _sample_derivative_class(c, rng, order)
    raise ValueError(f"cannot sample class {c.name.value}")
