"""Numerical geometry of circle images f(|z| = r).

Margins quantify how far a circle image is from losing starlikeness or
convexity: they are the minimum over the circle of the angular derivative
of arg f (starlike) or of the tangent direction (convex).  An equispaced
grid of ``MARGIN_ANGLES`` points brackets the minimum, and successive
parabolic interpolation refines it to a value attained at the reported
witness angle, so a margin does not depend on where the grid falls on
the circle.  ``starlike_margins`` and ``convex_margins`` take several
radii.  The circle scan of :func:`~harmap.series.circle_scan` finds the
grid minimum of all their circles with one inverse FFT, and Horner
reports it: a per-point bound on the scan's error selects the grid
points that could hold Horner's minimum, one stacked Horner call
evaluates them and their neighbours, and every reported value comes
from those Horner values and the refinement, bit for bit as if each
whole circle had been evaluated by Horner.  That costs one FFT and
Horner at a few points per circle instead of Horner at all of them.
Positive margins certify the property on that circle.  Radius
estimation locates the first radius where a property fails by a scan
followed by bisection.  A ``SamplingGrid`` is the one circle, of
``GRID_ANGLES`` points, that a class certificate of
:mod:`harmap.classes` samples.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .harmonic import HarmonicMap, eval_map, jacobian
from .series import EPS, AnalyticSeries, circle_scan, evaluate_stack

DEGENERACY_TOL = 1e-12

#: angle counts of the margins, the univalence test and a certifying circle
MARGIN_ANGLES = 1024
UNIVALENCE_ANGLES = 2048
GRID_ANGLES = 256

#: margin refinement stops once the parabolic step in theta is below this
ANGLE_TOL = 1e-9
#: ... or once the parabola predicts a gain below this, relative to 1 + |margin|
VALUE_TOL = 1e-13
#: cap on the points evaluated while refining one margin
MAX_REFINEMENTS = 12
#: cap on the candidate segment pairs the polygon test holds at once
PAIR_CHUNK = 1 << 16


class DegenerateCurveError(ArithmeticError):
    """The image curve or its tangent vanished at a sample point."""


@dataclass(frozen=True)
class SamplingGrid:
    """One circle |z| = ``radius`` at ``GRID_ANGLES`` equispaced angles."""

    radius: float

    def __post_init__(self) -> None:
        if not 0.0 < self.radius < 1.0:
            raise ValueError("grid radius must lie strictly inside (0, 1)")
        object.__setattr__(self, "radius", float(self.radius))

    def circle(self, r: float) -> np.ndarray:
        return _circle(r, GRID_ANGLES)[1]

    def points(self) -> np.ndarray:
        """The grid's points, from angle 0 counter-clockwise."""
        return self.circle(self.radius)


DEFAULT_GRID = SamplingGrid(radius=0.99)

#: scan radii of radius estimation, 0.05, 0.10, ..., 0.95
RADIUS_SCAN_RADII = tuple(k / 20 for k in range(1, 20))


@dataclass(frozen=True)
class GeometryReport:
    """Margin of one functional on the circle |z| = r.

    ``min_margin`` is the refined minimum over the circle, attained at
    ``witness_angle`` in [0, 2*pi): the functional evaluated there gives
    ``min_margin`` itself, not an interpolated estimate.
    """

    functional: str
    r: float
    min_margin: float
    witness_angle: float


@dataclass(frozen=True)
class RadiusEstimate:
    property: str
    lo: float
    hi: float
    tol: float

    @property
    def value(self) -> float:
        return 0.5 * (self.lo + self.hi)


@functools.lru_cache(maxsize=16)
def _unit_circle(angles: int) -> tuple[np.ndarray, np.ndarray]:
    """Equispaced angles in [0, 2*pi) and their points on |z| = 1, read-only.

    Cached per angle count only: a run uses a handful of counts, while
    radii vary freely (bisection in ``radius_estimate``).
    """
    theta = np.arange(angles) * (2.0 * np.pi / angles)
    unit = np.exp(1j * theta)
    theta.setflags(write=False)
    unit.setflags(write=False)
    return theta, unit


def _circle(r: float, angles: int) -> tuple[np.ndarray, np.ndarray]:
    """Angles and points of |z| = r; the angle table is shared and read-only."""
    theta, unit = _unit_circle(angles)
    return theta, r * unit


def _check_radius(r: float) -> None:
    if not 0.0 < r < 1.0:
        raise ValueError(f"circle radius must lie in (0, 1), got {r}")


def _refine_minimum(fn, b: float, h: float, fa: float, fb: float, fc: float):
    """Smallest evaluated value of fn in [b - h, b + h], given fn(b) <= fn(b -+ h).

    Successive parabolic interpolation through the three lowest points.
    Stops when the parabola is not convex (the values are flat to
    rounding), when its vertex leaves the bracket, when the step is below
    ``ANGLE_TOL`` or the predicted gain below ``VALUE_TOL``, when a
    second or later step gains nothing (rounding noise), or after
    ``MAX_REFINEMENTS`` evaluations.  Returns (angle, value) of the best
    point evaluated.
    """
    points = [(fb, b), (fa, b - h), (fc, b + h)]
    if not all(np.isfinite(v) for v, _ in points):
        return b, fb
    for evaluated in range(MAX_REFINEMENTS):
        (f0, x0), (f1, x1), (f2, x2) = sorted(points)[:3]
        u1, u2, e1, e2 = x1 - x0, x2 - x0, f1 - f0, f2 - f0
        curvature = (e1 * u2 - e2 * u1) / (u1 * u2 * (u1 - u2))
        if not curvature > 0.0:
            break
        step = -(u1 * u1 * e2 - u2 * u2 * e1) / (2.0 * (e1 * u2 - e2 * u1))
        if abs(step) < ANGLE_TOL or curvature * step * step < VALUE_TOL * (1.0 + abs(f0)):
            break
        v = x0 + step
        if not b - h < v < b + h:
            break
        fv = fn(v)
        points.append((fv, v))
        if evaluated and fv >= f0:
            break
    value, angle = min(points)
    return angle, value


@dataclass(frozen=True)
class _Functional:
    """A margin getattr(num / den, ``part``) of series values on a circle.

    ``quotient(z, *values)`` returns (num, den).  Each is a sum of series
    values, or their conjugates, each at most once and times z**k with
    k <= 2 and a unit factor, so a value moves each by at most r**k <= 1
    times its own move.  A |den| below ``DEGENERACY_TOL`` raises
    ``DegenerateCurveError`` with ``degenerate`` formatted with r.
    """

    quotient: Callable
    part: str
    degenerate: str

    def __call__(self, r: float, z, *values):
        num, den = self.quotient(z, *values)
        if np.min(np.abs(den)) < DEGENERACY_TOL:
            raise DegenerateCurveError(self.degenerate.format(r=r))
        return getattr(num / den, self.part)

    def scan(self, z: np.ndarray, values: np.ndarray, bound: np.ndarray):
        """Intervals [low, high] holding the Horner margin at each point of a
        scanned circle, and the points where |den| may fall below
        ``DEGENERACY_TOL``.

        ``values`` are the scanned series, each within ``bound`` of its
        Horner value, so num and den each move by at most
        delta = sum(bound + 8 eps |value|), where 8 eps |value| covers the
        rounding of the sums and products on both sides.  The quotient q then moves by at most
        delta (1 + |q|) / (|den| - delta), plus 8 eps |q| for the division
        on both sides.  Where |den| <= delta, or the scanned margin is not
        a number, the interval is the whole line.
        """
        num, den = self.quotient(z, *values)
        delta = (bound[:, None] + 8.0 * EPS * np.abs(values)).sum(axis=0)
        gap = np.abs(den) - delta
        with np.errstate(divide="ignore", invalid="ignore"):
            q = num / den
            size = np.abs(q)
            err = np.where(gap > 0.0, delta * (1.0 + size) / gap + 8.0 * EPS * size, np.inf)
            margin = getattr(q, self.part)
            low, high = margin - err, margin + err
        unknown = np.isnan(low) | np.isnan(high)
        low[unknown], high[unknown] = -np.inf, np.inf
        return low, high, gap < DEGENERACY_TOL


def _circle_minima(functional: _Functional, series: tuple[AnalyticSeries, ...], radii):
    """Minimum over each circle |z| = r, r in ``radii``, of ``functional(r, z, *values)``.

    Per circle, the sampled minimum on ``MARGIN_ANGLES`` equispaced
    points and its two neighbours bracket a local minimum, which is then
    refined; a check that raises does so for the first offending radius.
    Returns one (value, angle) per radius, the angle in [0, 2*pi).

    The circle scan finds the minimum and Horner reports it.  One
    inverse FFT (:func:`circle_scan`) evaluates every series on every
    circle, and :meth:`_Functional.scan` gives, per point, an interval
    [low, high] that holds the margin of Horner's values.  A point whose
    low exceeds the least high on its circle cannot hold the Horner
    minimum, nor tie with it.  The other points, their neighbours and
    every point whose |den| may fall below ``DEGENERACY_TOL`` are
    evaluated by one :func:`evaluate_stack` call for all circles, and the
    argmin (the first of tied points), the bracket, the degeneracy test
    and the refinement run on those Horner values.  So every result is
    bit for bit the one of evaluating each whole circle by Horner: numpy
    computes each element of an array of two or more points the same way
    at any length.  Cost: one FFT over the series and radii, plus Horner
    at the kept points, which are 3 per circle in the median and up to
    about a thousand where the interval is wide (orders in the thousands
    at r near 1, measured on catalog maps).
    """
    if not radii:
        return []
    theta, unit = _unit_circle(MARGIN_ANGLES)
    scan, bound = circle_scan(series, radii, MARGIN_ANGLES)
    picks, candidates = [], []
    for j, r in enumerate(radii):
        low, high, near_zero = functional.scan(r * unit, scan[:, j], bound[:, j])
        keep = low <= high.min()
        k = np.flatnonzero(keep)
        picked = np.union1d(np.concatenate((k - 1, k, k + 1)) % MARGIN_ANGLES, np.flatnonzero(near_zero))
        picks.append(picked)
        candidates.append(keep[picked])
    z = np.concatenate([(r * unit)[p] for r, p in zip(radii, picks)])
    values = evaluate_stack(series, z)
    minima, start = [], 0
    for r, picked, candidate in zip(radii, picks, candidates):
        part = slice(start, start + picked.size)
        start += picked.size
        margin = functional(r, z[part], *values[:, part])
        c = np.flatnonzero(candidate)
        k = c[int(np.argmin(margin[c]))]
        i = int(picked[k])
        left, right = np.searchsorted(picked, ((i - 1) % MARGIN_ANGLES, (i + 1) % MARGIN_ANGLES))

        def margin_at(t: float, r=r) -> float:
            zt = r * cmath.exp(1j * t)
            return float(functional(r, zt, *(s.evaluate(zt) for s in series)))

        angle, value = _refine_minimum(
            margin_at,
            float(theta[i]),
            2.0 * np.pi / MARGIN_ANGLES,
            float(margin[left]),
            float(margin[k]),
            float(margin[right]),
        )
        minima.append((value, angle % (2.0 * np.pi)))
    return minima


def _starlike_quotient(z, h, hp, g, gp):
    return z * hp - (z * gp).conjugate(), h + g.conjugate()


def _convex_quotient(z, hp, hpp, gp, gpp):
    T = 1j * (z * hp - (z * gp).conjugate())
    Tp = -(z * hp + z**2 * hpp + (z * gp + z**2 * gpp).conjugate())
    return Tp, T


_STARLIKE = _Functional(_starlike_quotient, "real", "curve passes through the origin at r={r}")
_CONVEX = _Functional(_convex_quotient, "imag", "tangent vanishes on the circle r={r}")


def starlike_margins(f: HarmonicMap, radii) -> list[GeometryReport]:
    """Minimum over each circle |z| = r, r in ``radii``, of d(arg f)/d(theta).

    The derivative equals Re[(z h' - conj(z g')) / f]; a positive minimum
    certifies that the circle image bounds a domain starlike about 0.
    ``MARGIN_ANGLES`` equispaced points bracket each minimum.  One
    report per radius, in order:
    ``min_margin`` is the refined minimum over that circle, attained at
    ``witness_angle`` in [0, 2*pi).  The series are evaluated once on all
    the circles together, and each report is bit-identical to the same
    circle taken alone; a curve through the origin raises for the first
    such radius in order.  A radius outside (0, 1) raises ``DomainError``
    from :func:`circle_scan`.
    """
    radii = tuple(radii)
    series = (f.h, f.h.derivative(), f.g, f.g.derivative())
    minima = _circle_minima(_STARLIKE, series, radii)
    return [GeometryReport("starlike", r, v, t) for r, (v, t) in zip(radii, minima)]


def starlike_margin(f: HarmonicMap, r: float) -> GeometryReport:
    """:func:`starlike_margins` on the one circle |z| = r."""
    return starlike_margins(f, (r,))[0]


def convex_margins(f: HarmonicMap, radii) -> list[GeometryReport]:
    """Minimum over each circle |z| = r, r in ``radii``, of d(arg T)/d(theta).

    T(theta) = i(z h' - conj(z g')) is the tangent and T' = -[z h' +
    z^2 h'' + conj(z g' + z^2 g'')]; the margin is min Im[T'/T].  A
    positive margin certifies convexity of the circle image.  The grid,
    the reports and the evaluation are as in :func:`starlike_margins`; a
    vanishing tangent raises for the first such radius in order.
    """
    radii = tuple(radii)
    hp, gp = f.h.derivative(), f.g.derivative()
    series = (hp, hp.derivative(), gp, gp.derivative())
    minima = _circle_minima(_CONVEX, series, radii)
    return [GeometryReport("convex", r, v, t) for r, (v, t) in zip(radii, minima)]


def convex_margin(f: HarmonicMap, r: float) -> GeometryReport:
    """:func:`convex_margins` on the one circle |z| = r."""
    return convex_margins(f, (r,))[0]


def _cross(ax, ay, bx, by):
    return ax * by - ay * bx


def _crosses(ax, ay, bx, by, cx, cy, dx, dy):
    """Strict sign test: the ends of each of ab and cd lie on both sides of the other's line."""
    d1 = _cross(cx - ax, cy - ay, bx - ax, by - ay)
    d2 = _cross(dx - ax, dy - ay, bx - ax, by - ay)
    d3 = _cross(ax - cx, ay - cy, dx - cx, dy - cy)
    d4 = _cross(bx - cx, by - cy, dx - cx, dy - cy)
    return (d1 * d2 < 0) & (d3 * d4 < 0)


def _polygon_is_simple(w: np.ndarray) -> bool:
    """Strict segment-pair test on the closed polygon through w.

    Segment k runs from w[k] to w[k + 1] (indices mod m).  A pair of
    segments crosses when the endpoints of each lie strictly on opposite
    sides of the other's line (the sign test ``d1*d2 < 0 and d3*d4 < 0``
    on cross products).  Adjacent segments share an endpoint and are
    skipped; tangential (collinear) contacts are not counted as
    crossings.

    Only segments whose bounding boxes overlap can cross.  A sweep over
    the boxes sorted by smallest x selects those pairs, at most
    ``PAIR_CHUNK`` at a time, and the sign test runs on them alone, with
    the lower-indexed segment first.  Rounding can flip a sign of a
    nearly collinear pair, so each pair the float test flags is tested
    again in exact rational arithmetic on the float vertices, and only an
    exact crossing counts.  Cost: O(m log m + candidate pairs) time and
    O(m + PAIR_CHUNK) memory; a polygon whose boxes all overlap still
    takes O(m**2) time.
    """
    m = w.size
    x, y = w.real, w.imag
    x2, y2 = np.roll(x, -1), np.roll(y, -1)
    y_lo, y_hi = np.minimum(y, y2), np.maximum(y, y2)
    x_lo = np.minimum(x, x2)
    order = np.argsort(x_lo, kind="stable")
    # sorted position k overlaps in x the positions k + 1, ..., ends[k] - 1
    ends = np.searchsorted(x_lo[order], np.maximum(x, x2)[order], side="right")
    counts = ends - np.arange(1, m + 1)
    offsets = np.concatenate(([0], np.cumsum(counts)))

    start = 0
    while start < m:
        limit = offsets[start] + PAIR_CHUNK
        stop = max(start + 1, int(np.searchsorted(offsets, limit, side="right")) - 1)
        rows = np.repeat(np.arange(start, stop), counts[start:stop])
        cols = np.arange(rows.size) + (rows + 1 - (offsets[rows] - offsets[start]))
        i, j = order[rows], order[cols]
        i, j = np.minimum(i, j), np.maximum(i, j)
        gap = j - i
        # segment (m-1, 0) is adjacent to segment 0
        keep = (y_lo[j] <= y_hi[i]) & (y_lo[i] <= y_hi[j]) & (gap > 1) & (gap < m - 1)
        i, j = i[keep], j[keep]
        ends = (x[i], y[i], x2[i], y2[i], x[j], y[j], x2[j], y2[j])
        for k in np.flatnonzero(_crosses(*ends)):
            if _crosses(*(Fraction(v[k]) for v in ends)):
                return False
        start = stop
    return True


def _winding_number(w: np.ndarray, about: complex) -> float:
    rel = w - about
    increments = np.angle(np.roll(rel, -1) / rel)
    return float(increments.sum() / (2.0 * np.pi))


def univalent_on_circle(f: HarmonicMap, r: float) -> bool:
    """Certify one-to-one behavior of f on |z| = r at polygon resolution.

    Requires a simple sample polygon, winding number 1 about f(0) = 0,
    and a positive Jacobian at every sample.  Simplicity is the strict
    crossing test of ``_polygon_is_simple``: touching and collinear
    contacts do not count as crossings.  Beyond evaluating f, the cost is
    O(m log m + candidate pairs) for m = ``UNIVALENCE_ANGLES`` samples,
    where the candidates are the non-adjacent segment pairs whose
    bounding boxes overlap.
    """
    _check_radius(r)
    _, z = _circle(r, UNIVALENCE_ANGLES)
    w = np.asarray(eval_map(f, z))
    if np.min(np.abs(w)) < DEGENERACY_TOL:
        return False
    if np.any(jacobian(f, z) <= 0):
        return False
    if abs(_winding_number(w, 0.0) - 1.0) > 0.5:
        return False
    return _polygon_is_simple(w)


def _property_predicate(f: HarmonicMap, prop: str):
    if prop == "starlike":
        return lambda r: starlike_margin(f, r).min_margin > 0.0
    if prop == "convex":
        return lambda r: convex_margin(f, r).min_margin > 0.0
    if prop == "univalent":
        return lambda r: univalent_on_circle(f, r)
    raise ValueError(f"unknown property {prop!r}")


def radius_estimate(f: HarmonicMap, prop: str, tol: float = 1e-4) -> RadiusEstimate:
    """Empirical property radius: scan ``RADIUS_SCAN_RADII``, then bisect.

    The estimate brackets the first sign change after the largest prefix
    of passing radii; margins need not be monotone in r, so the scan
    order (ascending, first failure wins) is part of the contract.
    Bisection stops at hi - lo <= 2 * ``tol``, or at two adjacent doubles,
    whose midpoint rounds onto an endpoint.  If no scanned radius fails
    the degenerate full-disk estimate 1 is returned.  ``tol`` must be
    positive and finite (``ValueError`` otherwise).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    holds = _property_predicate(f, prop)
    if not holds(RADIUS_SCAN_RADII[0]):
        raise ValueError(f"property {prop!r} fails already at the smallest grid radius")
    for lo, hi in zip(RADIUS_SCAN_RADII, RADIUS_SCAN_RADII[1:]):
        if not holds(hi):
            break
    else:
        return RadiusEstimate(prop, 1.0, 1.0, tol)
    while hi - lo > 2.0 * tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return RadiusEstimate(prop, lo, hi, tol)
