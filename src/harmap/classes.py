"""Membership certificates, coefficient bounds, growth envelopes, samplers.

Two kinds of classes appear.  A grid class is defined by one strict
pointwise inequality over the disk on its defining pair (u, v) of
analytic functions: Re u > |v| (R_H0, W_H0, R_H0_G) or
|u - 1| + |v| < 1 (F_H0, F_H0_G).  The pair is (h', g'), for W_H0
((z h')', (z g')'), and for the _G classes (h'/G', g'/G').  The slack
is superharmonic, so it is checked on one circle, the boundary of the
closed disk it certifies, with a positive-margin tolerance.  A set of
two or more maps is certified as the circle margins of
:mod:`harmap.geometry` are: one circle scan of the set's series chooses,
per map, the points where the slack may be least, and Horner reports
the slack there, bit for bit the minimum and witness that Horner at
every point of the circle gives, which is how one map is certified.
Coefficient classes are defined by an exact weighted coefficient sum
and are checked without discretization.  The samplers draw each seed's
normals with one generator call and build a chunk's maps from stacked
coefficient rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .catalog import _dilog
from .geometry import DEFAULT_GRID, GRID_ANGLES, SamplingGrid, _winding_number
from .harmonic import HarmonicMap
from .series import EPS, AnalyticSeries, _candidates, circle_scan, evaluate_groups, padded_rows

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
#: the grid classes whose slack is 1 - |u - 1| - |v|
_F_CLASSES = {ClassName.F_H0, ClassName.F_H0_G}


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


def _defining_pair(f: HarmonicMap, c: ClassId) -> tuple[AnalyticSeries, AnalyticSeries]:
    """(h', g'), or for W_H0 ((z h')', (z g')'), before the division by G'."""
    hp, gp = f.h.derivative(), f.g.derivative()
    if c.name is ClassName.W_H0:
        # (z h')' and (z g')' have coefficients n^2 a_n: n times those of h', g'
        n = np.arange(2, hp.order + 2)
        hp, gp = (AnalyticSeries._own(n * s.coeffs, const=s.const) for s in (hp, gp))
    return hp, gp


def _slack(c: ClassId, u, v):
    """The slack of the defining pair's values u, v: Re u - |v|, or 1 - |u - 1| - |v|."""
    if c.name in _F_CLASSES:
        return 1.0 - np.abs(u - 1.0) - np.abs(v)
    return np.real(u) - np.abs(v)


def _checked_reference(gref: np.ndarray) -> np.ndarray:
    """G' on the certifying circle, its values ``gref`` in angle order, if it has
    no zero on or inside the circle; else ``SingularReferenceError``."""
    # a zero inside makes G' wind about 0 along the circle (argument principle)
    if np.min(np.abs(gref)) < 1e-12 or abs(_winding_number(gref, 0.0)) > 0.5:
        raise SingularReferenceError("reference derivative vanishes on or inside the certifying circle")
    return gref


def _scan_candidates(groups, c: ClassId, gref) -> np.ndarray:
    """Per map, the points of the certifying circle where the Horner slack
    may take its least value, as a (maps, ``GRID_ANGLES``) mask, from one
    circle scan of the distinct series of the pairs.

    Let u, v be the scanned values of a pair at a point and b_u, b_v the
    scan's bounds (:func:`~harmap.series.circle_scan`), which hold at the
    points of the certifying circle: |u - u'| <= b_u and |v - v'| <= b_v
    for the Horner values u', v'.  Re u - |v| and 1 - |u - 1| - |v| are
    1-Lipschitz in u and in v, so the exact slack of (u, v) lies within
    b_u + b_v of that of (u', v').  Computing either slack rounds each of
    its at most four operations (the subtraction of 1, two moduli and two
    differences) to about eps of the moduli they handle, at most
    2 + |u| + |v|, so 8 eps (2 + |u| + |v|) covers the rounding on both
    sides.  For the _G classes u and v are divided by the Horner values of
    G' at the same points, as the Horner slack is, and b_u, b_v by |G'|;
    the two divisions round to a few eps of |u| and |v|, inside the same
    term.  So the Horner slack lies in [low, high] = slack -+ (b_u + b_v
    + 8 eps (2 + |u| + |v|)), the whole line where the scanned slack is
    not a number; a point whose low exceeds the least high of its map can
    neither hold the Horner minimum nor tie with it.
    """
    series = [s for group in groups for s in group[:2]]
    distinct = {id(s): s for s in series}
    row = {key: k for k, key in enumerate(distinct)}
    index = [row[id(s)] for s in series]
    values, bound = circle_scan(list(distinct.values()), (_certifying_grid(c).radius,), GRID_ANGLES)
    values, bound = values[index, 0], bound[index]
    if gref is not None:
        values, bound = values / gref, bound / np.abs(gref)
    u, v = values[0::2], values[1::2]
    err = bound[0::2] + bound[1::2] + 8.0 * EPS * (2.0 + np.abs(u) + np.abs(v))
    return _candidates(_slack(c, u, v), err)


def _result(margin: float, witness: complex | int, floor: float) -> MembershipResult:
    """Member above ``STRICTNESS_TOL``, boundary down to ``floor``, rejected below."""
    if margin > STRICTNESS_TOL:
        return MembershipResult(True, margin, witness, "member")
    if margin >= floor:
        return MembershipResult(True, margin, witness, "boundary")
    return MembershipResult(False, margin, witness, "rejected")


def _coefficient_membership(f: HarmonicMap, c: ClassId) -> MembershipResult:
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


def memberships(fs, c: ClassId) -> list[MembershipResult]:
    """Certify class membership of each map in ``fs``; see the module docstring for semantics.

    Grid classes report the minimum of the defining slack on the
    certifying circle (|z| = 0.99, or 0.75 for the _G classes) with the
    attaining point as witness; margins in [0, tol] are flagged as
    boundary rather than rejected.  The slack is a harmonic real part
    minus moduli of analytic functions, hence superharmonic, so its
    infimum over the closed disk is attained on the boundary circle.
    For the _G classes that needs G' free of zeros in the closed disk,
    else ``SingularReferenceError`` for the whole set.  Coefficient
    classes report 1 - (weighted sum) with the dominant coefficient
    index as witness.  A map that is not normalized raises
    ``ValueError`` before any is certified.

    The maps of a grid class are certified together, each result bit
    for bit the one the map gets alone.  One map is evaluated by Horner
    at all ``GRID_ANGLES`` points of its circle.  Two or more take their
    points from one circle scan of their distinct series
    (:func:`~harmap.series.circle_scan`): an interval on the slack at each
    point (:func:`_scan_candidates`) keeps the points that could hold the
    map's Horner minimum or tie with it, and one Horner call evaluates
    each map's kept points (:func:`~harmap.series.evaluate_groups`); the
    least of them, the first of tied points, is the minimum and witness
    Horner finds on the whole circle.  Per call (best of 7, 2-core host,
    _G with the order-200 Koebe reference), Horner on the whole circle
    against the scan:

    | maps in the set | R_H0, order 64 | W_H0, order 200 | F_H0_G, order 200 |
    |---|---|---|---|
    | 1 | 0.16 vs 0.24 ms | 0.46 vs 0.57 ms | 0.61 vs 0.66 ms |
    | 2 | 0.23 vs 0.24 ms | 0.66 vs 0.49 ms | 0.76 vs 0.75 ms |
    | 3 | 0.30 vs 0.25 ms | 0.84 vs 0.52 ms | 0.96 vs 0.75 ms |
    | 32 | 2.54 vs 1.05 ms | 6.89 vs 1.85 ms | 6.60 vs 1.98 ms |

    So one map, the case of :func:`membership`, keeps the whole circle.
    """
    fs = list(fs)
    if not all(f.is_normalized() for f in fs):
        raise ValueError("membership requires a normalized map")
    if c.name not in GRID_CLASSES:
        return [_coefficient_membership(f, c) for f in fs]
    z = _certifying_grid(c).points()
    reference = () if c.reference_map is None else (c.reference_map.derivative(),)
    groups = [_defining_pair(f, c) + reference for f in fs]
    if len(groups) == 1:
        # one map: Horner at every point, G' in the same call
        angle = np.arange(GRID_ANGLES)[None]
    else:
        gref = _checked_reference(reference[0].evaluate(z)) if reference else None
        if not groups:
            return []
        angle = padded_rows(_scan_candidates(groups, c, gref))
    values = evaluate_groups(groups, z[angle])
    u, v = values[:, 0], values[:, 1]
    if reference:
        if len(groups) == 1:
            _checked_reference(values[0, 2])
        u, v = u / values[:, 2], v / values[:, 2]
    slack = _slack(c, u, v)
    # a row's padding repeats its first point, so the argmin is a kept point
    worst = slack.argmin(axis=1).tolist()
    return [_result(float(row[k]), complex(z[a[k]]), 0.0) for row, a, k in zip(slack, angle, worst)]


def membership(f: HarmonicMap, c: ClassId) -> MembershipResult:
    """Certify class membership of one map: the one-map case of :func:`memberships`."""
    return memberships([f], c)[0]


def _lower_R(r: float) -> float:
    return -r + 2.0 * math.log1p(r)


def _upper_R(r: float) -> float:
    return math.inf if r >= 1.0 else -r - 2.0 * math.log1p(-r)


def _lower_W(r: float) -> float:
    """W_H0's lower envelope -r - 2 Li2(-r); Li2(-r) from the Bernoulli series of
    :func:`harmap.catalog._dilog`, to 1e-15 relative."""
    return -r - 2.0 * float(_dilog(-r).real)


def _upper_W(r: float) -> float:
    """W_H0's upper envelope -r + 2 Li2(r); Li2(r) from the series of
    :func:`harmap.catalog._dilog` for r <= 1/2, from its reflection above, and
    pi^2/6 exactly at r = 1, to 1e-15 relative."""
    return -r + 2.0 * float(_dilog(r).real)


_ENVELOPES: dict[ClassName, tuple[Callable[[float], float], Callable[[float], float]]] = {
    ClassName.R_H0: (_lower_R, _upper_R),
    ClassName.W_H0: (_lower_W, _upper_W),
    ClassName.U_H0: (lambda r: r - r**2 / 2, lambda r: r + r**2 / 2),
    ClassName.V_H0: (lambda r: r - r**2 / 4, lambda r: r + r**2 / 4),
}

_GAP_BOUNDS: dict[ClassName, Callable[[np.ndarray], np.ndarray]] = {
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
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    ns = np.arange(2, n_max + 1)
    gaps = np.abs(np.abs(f.h.coeffs[1:n_max]) - np.abs(f.g.coeffs[1:n_max]))
    bounds = _GAP_BOUNDS[c.name](ns)
    bad = gaps > bounds + EXACT_TOL
    violations = tuple(
        (int(n), float(g), float(bnd)) for n, g, bnd in zip(ns[bad], gaps[bad], bounds[bad])
    )
    return BoundCheckReport(gaps, bounds, violations)


def _maps(h: np.ndarray, g: np.ndarray) -> list[HarmonicMap]:
    """One map per row of the coefficient stacks h and g, just computed: each
    stack is checked once, and each series holds a view of its row."""
    return [HarmonicMap(hk, gk) for hk, gk in zip(AnalyticSeries._own(h), AnalyticSeries._own(g))]


def _normalized(a, b) -> list[HarmonicMap]:
    """The maps with h = z + sum a_n z^n and g = sum b_n z^n, n = 2, 3, ..., one
    per row of the stack a (and of b, which may also be a number)."""
    h, g = np.zeros((2, len(a), a.shape[-1] + 1), dtype=np.complex128)
    h[:, 0] = 1.0
    h[:, 1:], g[:, 1:] = a, b
    return _maps(h, g)


def _draws(seeds, parts: int, size: int, low: float, high: float) -> tuple[np.ndarray, np.ndarray]:
    """Per seed, from its own generator, ``parts`` rows of ``size`` standard
    normals, drawn in one call, and then a target uniform in [low, high):
    shapes (seeds, parts, size) and (seeds,)."""
    draws, targets = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        draws.append(rng.standard_normal(parts * size))
        targets.append(rng.uniform(low, high))
    return np.reshape(draws, (-1, parts, size)), np.array(targets)


def _sample_coefficient_class(c: ClassId, seeds, order: int) -> list[HarmonicMap]:
    n = np.arange(2, order + 1)
    weight = n if c.name is ClassName.U_H0 else n.astype(float) ** 2
    d, targets = _draws(seeds, 4, n.size, 0.3, 1.0)
    raw_a = (d[:, 0] + 1j * d[:, 1]) / n**2
    raw_b = 0.5 * (d[:, 2] + 1j * d[:, 3]) / n**2
    total = np.sum(weight * (np.abs(raw_a) + np.abs(raw_b)), axis=-1)
    scale = (targets / total)[:, None]
    return _normalized(raw_a * scale, raw_b * scale)


def _grid_scale(name: ClassName, grid: SamplingGrid, qs, ps, targets) -> list[float]:
    """Per draw k, the scale s that puts the circle slack of 1 + s*qs[k], s*ps[k] at
    ``targets[k]``, from one circle scan of every draw."""
    series = [w for pair in zip(AnalyticSeries._own(qs), AnalyticSeries._own(ps)) for w in pair]
    values, _ = circle_scan(series, (grid.radius,), GRID_ANGLES)
    qv, pv = values[0::2, 0], values[1::2, 0]
    if name in _F_CLASSES:
        worst = np.max(np.abs(qv) + np.abs(pv), axis=-1).tolist()
        return [(1.0 - target) / w for w, target in zip(worst, targets)]
    worst = np.min(np.real(qv) - np.abs(pv), axis=-1).tolist()
    return [(1.0 - target) / (-w) if w < 0 else 1.0 for w, target in zip(worst, targets)]


def _sample_derivative_class(c: ClassId, seeds, order: int) -> list[HarmonicMap]:
    # draw h' (or h' + z h'', or h'-1) as 1 + s*q and the g side as s*p,
    # then choose s so the circle slack hits a target in [0.1, 0.7]
    m = np.arange(1, order)
    d, targets = _draws(seeds, 4, m.size, 0.1, 0.7)
    q, p = (d[:, 0] + 1j * d[:, 1]) / m**2, 0.4 * (d[:, 2] + 1j * d[:, 3]) / m**2
    scale = np.array(_grid_scale(c.name, _certifying_grid(c), q, p, targets.tolist()))[:, None]
    u, v = np.zeros((2, len(q), order), dtype=np.complex128)
    u[:, 0] = 1.0
    u[:, 1:], v[:, 1:] = scale * q, scale * p
    if c.reference_map is not None:
        # relative classes: multiply the pair through G' so the ratio
        # h'/G' is exactly 1 + s*q at every point of the disk
        gp = c.reference_map.derivative()
        gp_poly = np.concatenate(([gp.const], gp.coeffs))
        u, v = (np.reshape([np.convolve(gp_poly, w)[:order] for w in rows], (-1, order)) for rows in (u, v))
    # h' has coefficients n a_n, and h' + z h'' has n^2 a_n
    n = np.arange(1, order + 1) ** (2 if c.name is ClassName.W_H0 else 1)
    return _maps(u / n, v / n)


def _sample_real(seeds, order: int) -> list[HarmonicMap]:
    n = np.arange(2, order + 1)
    d, targets = _draws(seeds, 1, n.size, 0.3, 1.0)
    raw = d[:, 0] / n**2
    raw *= (targets / np.sum(n * np.abs(raw), axis=-1))[:, None]
    return _normalized(raw, 0.0)


def sample_members(c: ClassId, seeds, order: int = 64) -> list[HarmonicMap]:
    """Deterministic pseudo-random members of the class, one per seed.

    Each seed drives its own generator, so a draw does not depend on the
    other seeds of the call.  Coefficient classes rescale a random draw
    so the defining sum lands in [0.3, 1]; derivative classes rescale so
    the margin on the certifying circle lands in [0.1, 0.7], choosing the
    scale from one circle scan of every draw of the call
    (:func:`~harmap.series.circle_scan`; a draw choice, and the margin
    :func:`membership` reports is evaluated by Horner and agrees with the
    target to rounding).  Draws of the classes without a reference always
    pass :func:`membership`.  A _G draw has h' = G'(1 + s q) truncated to
    the order; it passes when G' has no zero in the closed disk and the
    truncated tail is small on the certifying circle, which with the
    catalog references takes orders of about 64.  Order 1 gives the
    identity z, the only normalized map of that order: a member of every
    class without a reference, and of R_H0_G or F_H0_G when Re G' > 0 or
    Re G' > 1/2 on the certifying circle.  An order below 1 raises
    ``ValueError``.
    """
    if order < 1:
        raise ValueError(f"sample order must be at least 1, got {order}")
    if order == 1:
        return [HarmonicMap(AnalyticSeries([1.0]), AnalyticSeries([0.0])) for _ in seeds]
    if c.name in GRID_CLASSES:
        return _sample_derivative_class(c, seeds, order)
    if c.name in (ClassName.U_H0, ClassName.V_H0):
        return _sample_coefficient_class(c, seeds, order)
    return _sample_real(seeds, order)


def sample_member(c: ClassId, seed: int, order: int = 64) -> HarmonicMap:
    """Deterministic pseudo-random member of the class: the one-seed case of :func:`sample_members`."""
    return sample_members(c, (seed,), order)[0]
