"""Numerical geometry of circle images f(|z| = r).

Margins quantify how far a circle image is from losing starlikeness or
convexity: they are the minimum over the circle of the angular derivative
of arg f (starlike) or of the tangent direction (convex).  An equispaced
grid of ``MARGIN_ANGLES`` points brackets the minimum, and successive
parabolic interpolation refines it to a value attained at the reported
witness angle, so a margin does not depend on where the grid falls on
the circle.  ``starlike_margins_of`` and ``convex_margins_of`` take a set
of maps and several radii; ``starlike_margin``/``convex_margin`` are
their case of one map on one circle.  The circle scan of
:func:`~harmap.series.circle_scan` finds the grid minimum of all of a
map's circles with one inverse FFT, and Horner reports it: a per-point
bound on the scan's error selects the grid points that could hold
Horner's minimum, one stacked Horner call evaluates them and their
neighbours for the whole set, the brackets are taken on the set's
arrays, and every reported value comes from those
Horner values and the refinement, bit for bit as if each whole circle of
each map had been evaluated by Horner alone.  That costs one FFT per map
and Horner at a few points per circle instead of Horner at all of them.
The refinement runs all circles of the set in lockstep; a round in which
at least ``LOCKSTEP_CIRCLES`` circles ask for a point evaluates them in
one batched Horner call, a smaller round, such as every round of one map
at a few radii, point by point.  The convex margins of 32 members at 4
radii take 40% (order 64) to 49% (order 200) less time as one set than
map by map.
Positive margins certify the property on that circle.  Radius
estimation locates the first radius where a property fails by a scan
followed by bisection, one radius at a time, with the margins asked
three circles per call.  A ``SamplingGrid`` is the one circle, of
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

from .harmonic import HarmonicMap
from .series import EPS, _candidates, circle_scan, evaluate_groups, padded_rows, point_batches

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
#: the fewest circles that a set of margins refines in lockstep
LOCKSTEP_CIRCLES = 18
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


def _refinement(b: float, h: float, fa: float, fb: float, fc: float):
    """Smallest evaluated value of a function in [b - h, b + h], given its
    values fa, fb, fc at b - h, b, b + h with fb <= fa, fc, as a generator:
    it yields each angle to evaluate, is sent the value there, and returns
    (angle, value) of the best point evaluated.

    Successive parabolic interpolation through the three lowest points.
    Stops when the parabola is not convex (the values are flat to
    rounding), when its vertex leaves the bracket, when the step is below
    ``ANGLE_TOL`` or the predicted gain below ``VALUE_TOL``, when a
    second or later step gains nothing (rounding noise), or after
    ``MAX_REFINEMENTS`` evaluations.  :func:`_refine_in_lockstep` drives
    many at once.
    """
    points = [(fb, b), (fa, b - h), (fc, b + h)]
    if not all(math.isfinite(v) for v, _ in points):
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
        fv = yield v
        points.append((fv, v))
        if evaluated and fv >= f0:
            break
    value, angle = min(points)
    return angle, value


@dataclass(frozen=True)
class _Functional:
    """A margin ``name``, getattr(num / den, ``part``) of the values of a
    map's ``series(f)`` on a circle.

    ``quotient(z, *values)`` returns (num, den).  Each is a sum of series
    values, or their conjugates, each at most once and times z**k with
    k <= 2 and a unit factor, so a value moves each by at most r**k <= 1
    times its own move.  A |den| below ``DEGENERACY_TOL`` raises
    ``DegenerateCurveError`` with ``degenerate`` formatted with r.
    """

    name: str
    series: Callable
    quotient: Callable
    part: str
    degenerate: str

    def __call__(self, r: float, z, *values):
        """The margin at one point z, with its series values."""
        num, den = self.quotient(z, *values)
        if abs(den) < DEGENERACY_TOL:
            raise self.error(r)
        return getattr(num / den, self.part)

    def error(self, r: float) -> DegenerateCurveError:
        return DegenerateCurveError(self.degenerate.format(r=r))

    def scan(self, z: np.ndarray, values: np.ndarray, bound: np.ndarray, orders: np.ndarray):
        """The points of scanned circles that may hold a circle's least
        Horner margin (:func:`~harmap.series._candidates` of intervals
        [low, high] holding the Horner margin at each point), and the
        points where |den| may fall below ``DEGENERACY_TOL``.

        ``z`` holds the points, one row per circle, shape (radii, angles);
        ``values`` are the scanned series, shape (series, radii, angles),
        each within ``bound`` (series, radii) of its Horner value, and
        ``orders`` holds the series' orders.  So num and den each move by
        at most the sum over the series of bound + 8 eps |value|, where
        8 eps |value| covers the rounding of the sums and products on both
        sides.  The half-width takes that sum from the bound alone, one
        number per circle, without a modulus per point: with S the
        series' coefficient sum at r and N >= 1 its order, the bound of
        :func:`circle_scan` is at least eps (2 N + 4 log2(angles)) S, and
        |value| <= S + 2 bound (the Horner value is within its own
        rounding, below the bound, of a number of modulus at most S), so

            bound + 8 eps |value| <= bound (1 + 16 eps + 8 / (2 N + 4 log2(angles))),

        and delta is the sum of the right side over the series.  At order
        64 on 1024 angles the factor is 1.05, and on the maps measured the
        points kept are those of the per-point sum.  The factor of N = 1,
        delta = 2 sum(bound), would widen the intervals of high orders for
        nothing: on the convex margin of the order-4096 Koebe map at
        r = 0.988 it keeps 639 points where this keeps 15.  The quotient q
        then moves by at most delta (1 + |q|) / (|den| - delta), plus
        8 eps |q| for the division on both sides.  Where |den| <= delta,
        or the scanned margin is not a number, the interval is the whole
        line.
        """
        num, den = self.quotient(z, *values)
        factor = 1.0 + 16.0 * EPS + 8.0 / (2.0 * orders + 4.0 * math.log2(z.shape[-1]))
        delta = (factor[:, None] * bound).sum(axis=0)[:, None]
        gap = np.abs(den) - delta
        with np.errstate(divide="ignore", invalid="ignore"):
            q = num / den
            size = np.abs(q)
            err = np.where(gap > 0.0, delta * (1.0 + size) / gap + 8.0 * EPS * size, np.inf)
        return _candidates(getattr(q, self.part), err), gap < DEGENERACY_TOL


def _circle_minima(functional: _Functional, stacks, radii: tuple[float, ...]):
    """Minimum over each circle |z| = r, r in ``radii``, of ``functional(r, z, *values)``,
    for each tuple of series in ``stacks`` (one per map).

    Per circle, the sampled minimum on ``MARGIN_ANGLES`` equispaced
    points and its two neighbours bracket a local minimum, which is then
    refined.  Returns, per tuple, one (value, angle) per radius, the
    angle in [0, 2*pi), or, for a circle where |den| falls below
    ``DEGENERACY_TOL`` at a sampled or refined point, that circle's
    ``DegenerateCurveError`` in its place: the caller decides which
    error, if any, to raise (:func:`_margins_of` the first in the order
    (tuple, radius), :func:`radius_estimate` the first its sequential
    rule reaches).

    The circle scan finds the minimum and Horner reports it.  Per tuple,
    one inverse FFT (:func:`circle_scan`) evaluates every series on every
    circle, and one :meth:`_Functional.scan` gives, per point, an
    interval [low, high] that holds the margin of Horner's values.  A
    point whose low exceeds the least high on its circle cannot hold the
    Horner minimum, nor tie with it.  The rest runs on the set's arrays,
    without a loop over tuples: the candidate and near-zero masks of all
    circles, their neighbours, one row of picked points per tuple
    (:func:`padded_rows`), one :func:`evaluate_groups` call, one quotient
    and division over all rows, and the degeneracy test of every circle
    as one ``reduceat`` over the circles' segments of the picked points.
    Only the argmin among a circle's candidates (the first of tied
    points), its neighbours and the bracket are taken per circle, on
    slices of those arrays.  So every result is bit for bit the one of
    evaluating each whole circle by Horner: numpy computes each element
    of an array of two or more points the same way at any length and
    position.  Every array over the whole set holds the picked points
    or is boolean.  Cost: one FFT per tuple over its series and radii,
    which keeps memory at one tuple's scan, plus Horner at the kept
    points, which are 3 per circle in the median and up to about a
    thousand where the interval is wide (orders in the thousands at r
    near 1, measured on catalog maps).  Every row is padded to the
    widest, so Horner runs at (tuples x series) times that width: one
    wide map in a set makes every map of the set pay its width.  The
    member chunks of ``verify`` (orders 64 and 200, radii up to 0.95)
    pad to 12 points in ``run_all(42)``; a set mixing high-order maps
    near r = 1 with many others is cheaper split by width.  For 32 U_H0
    members of order 64 at 4 radii (cProfile, 30 ms a set) the scans
    take 12 ms, their intervals 6.5 ms, the refinement 8 ms, and the
    picked points, their Horner values and the brackets together about
    3.5 ms.

    The refinement (:func:`_refine_in_lockstep`) evaluates a few points
    per circle, two in the mean and up to ``MAX_REFINEMENTS``, all
    circles in rounds.  Dispatch rule, per round: at least
    ``LOCKSTEP_CIRCLES`` asking circles are evaluated by one
    :func:`point_batches` call, fewer point by point by
    :meth:`AnalyticSeries.evaluate`; both give the same bits.  The
    crossover, measured on U_H0 members' convex series (4 per circle):
    one batched call costs what 16 to 20 circles cost point by point, at
    orders 64 (0.30 against 0.26 ms at 16 circles, 0.32 against 0.33 ms
    at 20) and 200 (0.90 against 0.81 ms, 0.92 against 1.02 ms); at 128
    circles it is 3.3 to 4 times faster.  So one-map calls at a few radii
    (``radius_estimate``'s three circles a call, the figure suites) go
    point by point, and the member chunks of ``verify`` are batched until
    their last few circles.
    """
    if not radii or not stacks:
        return [[] for _ in stacks]
    theta, unit = _unit_circle(MARGIN_ANGLES)
    grid = np.array(radii)[:, None] * unit
    # (tuple, radius, angle) masks of the candidates and of the near-zero points
    keep = np.empty((len(stacks), len(radii), MARGIN_ANGLES), dtype=bool)
    near_zero = np.empty_like(keep)
    for m, series in enumerate(stacks):
        scan, bound = circle_scan(series, radii, MARGIN_ANGLES)
        keep[m], near_zero[m] = functional.scan(grid, scan, bound, np.array([s.order for s in series]))
    # the candidates, their neighbours i -+ 1 (mod MARGIN_ANGLES) and the near-zero points
    picked = keep | near_zero
    picked[..., 1:] |= keep[..., :-1]
    picked[..., :-1] |= keep[..., 1:]
    picked[..., 0] |= keep[..., -1]
    picked[..., -1] |= keep[..., 0]
    # each tuple's picked points in (radius, angle) order, on its own row of
    # indices radius * MARGIN_ANGLES + angle into the flat grid
    rows = padded_rows(picked.reshape(len(stacks), -1))
    z = grid.ravel()[rows]
    values = evaluate_groups(stacks, z)
    num, den = functional.quotient(z, *values.transpose(1, 0, 2))
    # a degenerate circle raises below, before any of its values is used
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = getattr(num / den, functional.part)
    # the same points without the padding, and the circles' segments of them
    per_circle = picked.sum(axis=2)
    filled = np.arange(rows.shape[1]) < per_circle.sum(axis=1)[:, None]
    ends = per_circle.cumsum()
    starts = ends - per_circle.ravel()
    degenerate = np.logical_or.reduceat(np.abs(den[filled]) < DEGENERACY_TOL, starts).tolist()
    margin, flat = margin[filled], rows[filled]
    at, candidate = margin.tolist(), keep.reshape(len(stacks), -1)[filled.nonzero()[0], flat]

    # per circle: (tuple, r, bracket), or the error its sampled points raise
    circles = []
    for c, (start, stop) in enumerate(zip(starts.tolist(), ends.tolist())):
        m, r = divmod(c, len(radii))
        if degenerate[c]:
            circles.append(functional.error(radii[r]))
            continue
        kept = start + candidate[start:stop].nonzero()[0]
        k = int(kept[margin[kept].argmin()])
        i = int(flat[k]) % MARGIN_ANGLES
        # the neighbours of i are picked and lie next to it in angle order
        left = k - 1 if i > 0 else stop - 1
        right = k + 1 if i < MARGIN_ANGLES - 1 else start
        circles.append((m, radii[r], (float(theta[i]), 2.0 * np.pi / MARGIN_ANGLES, at[left], at[k], at[right])))

    minima = [
        found if isinstance(found, DegenerateCurveError) else (found[1], found[0] % (2.0 * np.pi))
        for found in _refine_in_lockstep(functional, stacks, circles)
    ]
    return [minima[m * len(radii) : (m + 1) * len(radii)] for m in range(len(stacks))]


def _refine_in_lockstep(functional: _Functional, stacks, circles) -> list:
    """(angle, value) of each circle's :func:`_refinement`, the steps of all
    circles taken in rounds.  Each round evaluates the point every
    unfinished circle asks for, with one :func:`point_batches` call while
    at least ``LOCKSTEP_CIRCLES`` circles ask and point by point otherwise,
    and passes the values as Python complex numbers to the scalar
    ``functional``.  An entry of ``circles`` that is an error, or a circle
    whose point raises, gives its error in its place, and the other
    circles run to the end."""
    size = len(stacks[0])
    batch = None
    results = list(circles)
    asking = {}
    for c, circle in enumerate(circles):
        if not isinstance(circle, DegenerateCurveError):
            steps = _refinement(*circle[2])
            try:
                asking[c] = (steps, next(steps))
            except StopIteration as done:
                results[c] = done.value
    while asking:
        points = [circles[c][1] * cmath.exp(1j * t) for c, (_, t) in asking.items()]
        maps = [circles[c][0] for c in asking]
        if len(asking) >= LOCKSTEP_CIRCLES:
            if batch is None:
                batch = point_batches([s for series in stacks for s in series])
            flat = batch([m * size + k for m in maps for k in range(size)], [zt for zt in points for _ in range(size)])
            values = [flat[n * size : (n + 1) * size] for n in range(len(points))]
        else:
            values = [[s.evaluate(zt) for s in stacks[m]] for m, zt in zip(maps, points)]
        still = {}
        for (c, (steps, _)), zt, v in zip(asking.items(), points, values):
            try:
                still[c] = (steps, steps.send(float(functional(circles[c][1], zt, *v))))
            except DegenerateCurveError as exc:
                results[c] = exc
            except StopIteration as done:
                results[c] = done.value
        asking = still
    return results


def _starlike_quotient(z, h, hp, g, gp):
    return z * hp - (z * gp).conjugate(), h + g.conjugate()


def _convex_quotient(z, hp, hpp, gp, gpp):
    T = 1j * (z * hp - (z * gp).conjugate())
    Tp = -(z * hp + z**2 * hpp + (z * gp + z**2 * gpp).conjugate())
    return Tp, T


def _starlike_series(f: HarmonicMap):
    return f.h, f.h.derivative(), f.g, f.g.derivative()


def _convex_series(f: HarmonicMap):
    hp, gp = f.h.derivative(), f.g.derivative()
    return hp, hp.derivative(), gp, gp.derivative()


_STARLIKE = _Functional(
    "starlike", _starlike_series, _starlike_quotient, "real", "curve passes through the origin at r={r}"
)
_CONVEX = _Functional("convex", _convex_series, _convex_quotient, "imag", "tangent vanishes on the circle r={r}")


def _margins_of(functional: _Functional, maps, radii) -> list[list[GeometryReport]]:
    """The reports of :func:`_circle_minima` on each map's series, or the
    error of the first degenerate circle in the order (map, radius)."""
    radii = tuple(map(float, radii))
    minima = _circle_minima(functional, [functional.series(f) for f in maps], radii)
    errors = [found for row in minima for found in row if isinstance(found, DegenerateCurveError)]
    if errors:
        raise errors[0]
    return [[GeometryReport(functional.name, r, v, t) for r, (v, t) in zip(radii, row)] for row in minima]


def starlike_margins_of(maps, radii) -> list[list[GeometryReport]]:
    """Minimum over each circle |z| = r, r in ``radii``, of d(arg f)/d(theta), for each map f.

    The derivative equals Re[(z h' - conj(z g')) / f]; a positive minimum
    certifies that the circle image bounds a domain starlike about 0.
    ``MARGIN_ANGLES`` equispaced points bracket each minimum.  One list
    of reports per map, one report per radius, in order:
    ``min_margin`` is the refined minimum over that circle, attained at
    ``witness_angle`` in [0, 2*pi).  Each map's series are evaluated on
    all its circles together, the maps share one Horner call and their
    refinement (:func:`_circle_minima`), and each report is bit-identical
    to the same circle of the same map taken alone; a curve through the
    origin raises for the first such circle in the order (map, radius).
    Radii are taken as Python floats, so a numpy radius gives the same
    bits, and a radius outside (0, 1) raises ``DomainError`` from
    :func:`circle_scan`.
    """
    return _margins_of(_STARLIKE, maps, radii)


def starlike_margin(f: HarmonicMap, r: float) -> GeometryReport:
    """:func:`starlike_margins_of` on the one map f and the one circle |z| = r."""
    return starlike_margins_of([f], (r,))[0][0]


def convex_margins_of(maps, radii) -> list[list[GeometryReport]]:
    """Minimum over each circle |z| = r, r in ``radii``, of d(arg T)/d(theta), for each map.

    T(theta) = i(z h' - conj(z g')) is the tangent and T' = -[z h' +
    z^2 h'' + conj(z g' + z^2 g'')]; the margin is min Im[T'/T].  A
    positive margin certifies convexity of the circle image.  The grid,
    the reports and the evaluation are as in :func:`starlike_margins_of`;
    a vanishing tangent raises for the first such circle in order.
    """
    return _margins_of(_CONVEX, maps, radii)


def convex_margin(f: HarmonicMap, r: float) -> GeometryReport:
    """:func:`convex_margins_of` on the one map f and the one circle |z| = r."""
    return convex_margins_of([f], (r,))[0][0]


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
        # sorted positions k and, for each, one of k + 1, ..., ends[k] - 1
        rows = np.repeat(np.arange(start, stop), counts[start:stop])
        cols = np.arange(rows.size)
        cols += rows
        cols -= offsets[rows]
        cols += offsets[start] + 1
        # a chunk can hold PAIR_CHUNK pairs: keep at most four arrays over them
        # alive at once, and filter them before the eight end gathers
        i = order[rows]
        del rows
        j = order[cols]
        del cols
        keep = y_lo[j] <= y_hi[i]
        keep &= y_lo[i] <= y_hi[j]
        gap = np.abs(i - j)
        # segment (m-1, 0) is adjacent to segment 0
        keep &= (gap > 1) & (gap < m - 1)
        i, j = i[keep], j[keep]
        i, j = np.minimum(i, j), np.maximum(i, j)
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

    The truncated series is judged, as margins and memberships judge it;
    a catalog map's closed form plays no part.  One ``circle_scan`` gives
    h, g, h' and g' at m = ``UNIVALENCE_ANGLES`` points: the polygon
    h + conj(g) must be simple (the strict crossing test of
    ``_polygon_is_simple``; touching and collinear contacts do not count)
    and wind once about f(0) = 0, and the Jacobian |h'|**2 - |g'|**2 must
    be positive at every sample.  The cost is one transform plus the
    polygon test, O(m log m + candidate pairs) for the non-adjacent
    segment pairs whose bounding boxes overlap.  The scan's per-series
    ``bound`` is what a certificate for the closed disk can widen these
    tests by.  A radius outside (0, 1) raises the scan's ``DomainError``.
    """
    values, _ = circle_scan([f.h, f.g, f.h.derivative(), f.g.derivative()], (r,), UNIVALENCE_ANGLES)
    h, g, hp, gp = values[:, 0]
    w = h + np.conj(g)
    if np.min(np.abs(w)) < DEGENERACY_TOL:
        return False
    if np.any(np.abs(hp) ** 2 - np.abs(gp) ** 2 <= 0):
        return False
    if abs(_winding_number(w, 0.0) - 1.0) > 0.5:
        return False
    return _polygon_is_simple(w)


#: circles per margin call of :func:`radius_estimate`
RADIUS_CIRCLES = 3


def radius_estimate(f: HarmonicMap, prop: str, tol: float = 1e-4) -> RadiusEstimate:
    """Empirical property radius: scan ``RADIUS_SCAN_RADII``, then bisect.

    The estimate brackets the first sign change after the largest prefix
    of passing radii; margins need not be monotone in r, so the scan
    order (ascending, first failure wins) is part of the contract.
    Bisection stops at hi - lo <= 2 * ``tol``, or at two adjacent doubles,
    whose midpoint rounds onto an endpoint.  If no scanned radius fails
    the degenerate full-disk estimate 1 is returned.  ``tol`` must be
    positive and finite (``ValueError`` otherwise).

    The rule reads one radius at a time, but a margin asks
    ``RADIUS_CIRCLES`` circles in one :func:`_circle_minima` call: the
    scan's radii three at a time, and in the bisection the midpoint with
    both quarter points, one of which is the next midpoint.  So ``lo``
    and ``hi`` are those of asking each radius alone, bit for bit.  A
    degenerate circle raises its ``DegenerateCurveError`` when the rule
    reads it, and one asked ahead that the rule never reads raises
    nothing.  Univalence asks one circle per call, since
    :func:`univalent_on_circle` reads one scan's values directly.  A
    property that fails on the first scan radius raises ``ValueError``.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    functional = {"starlike": _STARLIKE, "convex": _CONVEX}.get(prop)
    if functional is None and prop != "univalent":
        raise ValueError(f"unknown property {prop!r}")
    answers = {}

    def holds(r: float, *ahead: float) -> bool:
        # whether prop holds on |z| = r; a margin call also asks the first
        # radii of ``ahead``, those the rule may read next
        if r not in answers:
            if functional is None:
                answers[r] = univalent_on_circle(f, r)
            else:
                asked = (r, *ahead)[:RADIUS_CIRCLES]
                for q, found in zip(asked, _circle_minima(functional, [functional.series(f)], asked)[0]):
                    answers[q] = found if isinstance(found, DegenerateCurveError) else found[0] > 0.0
        if isinstance(answers[r], DegenerateCurveError):
            raise answers[r]
        return answers[r]

    scan = RADIUS_SCAN_RADII
    if not holds(*scan):
        raise ValueError(f"property {prop!r} fails already at the smallest grid radius")
    for k, (lo, hi) in enumerate(zip(scan, scan[1:])):
        if not holds(*scan[k + 1 :]):
            break
    else:
        return RadiusEstimate(prop, 1.0, 1.0, tol)
    while hi - lo > 2.0 * tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if holds(mid, 0.5 * (lo + mid), 0.5 * (mid + hi)):
            lo = mid
        else:
            hi = mid
    return RadiusEstimate(prop, lo, hi, tol)
