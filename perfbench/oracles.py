"""Answer oracles: expected results that do not come from harmap's kernels.

Each check takes the value a timed call returned and returns ``None`` when
it is right, or a one-line description of what is wrong.  The expected
values are closed forms and theorems of the source paper, so they hold
whether margins are sampled minima over the circle or refined infima.
"""

from __future__ import annotations

import math

from harmap.classes import STRICTNESS_TOL

#: agreement required of a closed-form margin, relative to max(1, |expected|)
MARGIN_TOL = 1e-9

#: agreement required of a known-answer membership margin
KNOWN_MARGIN_TOL = 1e-12

KOEBE_CONVEX_RADIUS = 2.0 - math.sqrt(3.0)

#: lower ends of proven convexity radii of the sampled classes (T3.3, T3.7)
CONVEX_RADIUS_FLOOR = {"R_H0": math.sqrt(2.0) - 1.0, "U_H0": 0.5}


# Closed-form margins on the circle |z| = r, attained at z = -r.
def koebe_starlike(r: float) -> float:
    return (1.0 - r) / (1.0 + r)


def half_plane_convex(r: float) -> float:
    return (1.0 - r) / (1.0 + r)


def half_plane_starlike(r: float) -> float:
    return 1.0 / (1.0 + r)


def koebe_convex(r: float) -> float:
    return (1.0 - 4.0 * r + r * r) / (1.0 - r * r)


def check_margin(report, expected: float) -> str | None:
    """A geometry report whose margin must equal a closed form."""
    err = abs(report.min_margin - expected)
    if err <= MARGIN_TOL * max(1.0, abs(expected)):
        return None
    return f"{report.functional} margin at r={report.r:.6f} is {report.min_margin!r}, expected {expected!r}"


def check_positive_margin(report) -> str | None:
    """A geometry report for a map the theorem makes starlike or convex."""
    if report.min_margin > 0.0:
        return None
    return f"{report.functional} margin at r={report.r:.6f} is {report.min_margin!r}, expected > 0"


def check_bool(value: bool, expected: bool) -> str | None:
    if bool(value) is expected:
        return None
    return f"answered {value!r}, expected {expected!r}"


def check_radius_near(estimate, target: float) -> str | None:
    """A radius estimate whose bracket midpoint must be within tol of target."""
    if abs(estimate.value - target) <= estimate.tol:
        return None
    return f"{estimate.property} radius {estimate.value!r} is not within {estimate.tol} of {target!r}"


def check_radius_at_least(estimate, floor: float) -> str | None:
    """A radius estimate whose bracket must reach a proven lower bound."""
    if estimate.hi >= floor - estimate.tol:
        return None
    return f"{estimate.property} radius bracket [{estimate.lo!r}, {estimate.hi!r}] lies below {floor!r}"


def check_member(result) -> str | None:
    """A membership result for a map drawn from the class itself."""
    if result.is_member:
        return None
    return f"sampled member rejected: margin={result.margin!r} status={result.status}"


def expected_status(margin: float) -> str:
    """Membership status for a grid margin (boundary band [0, tol])."""
    if margin > STRICTNESS_TOL:
        return "member"
    return "boundary" if margin >= 0.0 else "rejected"


def check_known_margin(result, expected: float) -> str | None:
    """A membership result for z + conj(c z^2), whose margin is known."""
    status = expected_status(expected)
    if (
        abs(result.margin - expected) <= KNOWN_MARGIN_TOL
        and result.status == status
        and result.is_member is (status != "rejected")
    ):
        return None
    return (
        f"margin={result.margin!r} status={result.status} member={result.is_member}, "
        f"expected margin={expected!r} status={status}"
    )


def failed_checks(reports) -> list[str]:
    """Every failed check of a verify run, by suite and description.

    Nothing is filtered: the wall-clock check of D4.1-C4.5 shows here by
    name whenever load makes it fail.
    """
    return [
        f"{report.suite_id} | {check.description} | measured={check.measured} expected={check.expected}"
        for report in reports
        for check in report.checks
        if not check.passed
    ]
