"""Planar harmonic mappings f = h + conj(g) on the unit disk.

Truncated series calculus, named extremal maps, class membership
certificates, convolution and integral operators, circle-image geometry,
SVG rendering, and a reproducible verification harness.
"""

from .catalog import CatalogTag, eval_closed, make
from .classes import (
    BoundCheckReport,
    ClassId,
    ClassName,
    MembershipResult,
    SingularReferenceError,
    coefficient_bound_check,
    growth_envelope,
    membership,
    memberships,
    sample_member,
    sample_members,
)
from .geometry import (
    DEFAULT_GRID,
    DegenerateCurveError,
    GeometryReport,
    RadiusEstimate,
    SamplingGrid,
    convex_margin,
    convex_margins_of,
    radius_estimate,
    starlike_margin,
    starlike_margins_of,
    univalent_on_circle,
)
from .harmonic import (
    HarmonicMap,
    alexander_minus,
    alexander_plus,
    analytic_map,
    convex_combination,
    eval_map,
    harmonic_convolve,
    jacobian,
    slice_map,
    tilde_convolve,
)
from .render import render_image
from .series import (
    AnalyticSeries,
    DomainError,
    alexander,
    convolve,
    linear_combine,
)
from .verify import SuiteReport, run_all, run_suite, suite_ids

__version__ = "0.1.0"
