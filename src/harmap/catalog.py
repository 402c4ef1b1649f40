"""Named extremal maps: coefficient constructors and exact evaluators.

Every tag has a coefficient rule and a closed-form evaluator.  The
Taylor coefficients of the two rational harmonic maps are closed-form
quotients of integer polynomials in n: the products are exact in
float64 and the one division rounds correctly, so each coefficient is
the float nearest its exact rational value.
"""

from __future__ import annotations

from dataclasses import replace
from enum import Enum

import numpy as np
from scipy.special import spence

from .harmonic import HarmonicMap, alexander_plus, analytic_map
from .series import AnalyticSeries, DomainError


class CatalogTag(str, Enum):
    KOEBE = "koebe"
    HALF_PLANE = "half_plane"
    HARMONIC_KOEBE = "harmonic_koebe"
    HARMONIC_HALF_PLANE = "harmonic_half_plane"
    MACGREGOR_R = "macgregor_r"
    CHICHRA_W = "chichra_w"
    U_SHARP = "u_sharp"
    U_SHARP_CONJ = "u_sharp_conj"
    V_SHARP = "v_sharp"
    V_SHARP_CONJ = "v_sharp_conj"
    ALEXANDER_PLUS_K = "alexander_plus_K"
    ALEXANDER_PLUS_L = "alexander_plus_L"


def _as_tag(tag) -> CatalogTag:
    try:
        return CatalogTag(tag)
    except ValueError:
        raise ValueError(f"unknown catalog tag {tag!r}") from None


def make(tag, order: int) -> HarmonicMap:
    """Construct the named map truncated to ``order``, closed form attached."""
    tag = _as_tag(tag)
    if order < 2:
        raise ValueError("catalog maps require order >= 2")
    n = np.arange(1, order + 1, dtype=np.float64)

    if tag is CatalogTag.KOEBE:
        return analytic_map(AnalyticSeries(n.astype(np.complex128)), tag.value)
    if tag is CatalogTag.HALF_PLANE:
        return analytic_map(AnalyticSeries(np.ones(order, dtype=np.complex128)), tag.value)
    if tag is CatalogTag.MACGREGOR_R:
        c = 2.0 / n
        c[0] = 1.0
        return analytic_map(AnalyticSeries(c.astype(np.complex128)), tag.value)
    if tag is CatalogTag.CHICHRA_W:
        c = 2.0 / n**2
        c[0] = 1.0
        return analytic_map(AnalyticSeries(c.astype(np.complex128)), tag.value)

    if tag in (CatalogTag.U_SHARP, CatalogTag.V_SHARP, CatalogTag.U_SHARP_CONJ, CatalogTag.V_SHARP_CONJ):
        quad = 0.5 if tag in (CatalogTag.U_SHARP, CatalogTag.U_SHARP_CONJ) else 0.25
        h = np.zeros(order, dtype=np.complex128)
        g = np.zeros(order, dtype=np.complex128)
        h[0] = 1.0
        if tag in (CatalogTag.U_SHARP, CatalogTag.V_SHARP):
            h[1] = quad
        else:
            g[1] = quad
        return HarmonicMap(AnalyticSeries(h), AnalyticSeries(g), tag.value)

    if tag is CatalogTag.HARMONIC_KOEBE:
        # (z - z^2/2 + z^3/6) / (1-z)^3 and (z^2/2 + z^3/6) / (1-z)^3
        a = (2 * n + 1) * (n + 1) / 6
        b = (2 * n - 1) * (n - 1) / 6
        return HarmonicMap(AnalyticSeries(a), AnalyticSeries(b), tag.value)
    if tag is CatalogTag.HARMONIC_HALF_PLANE:
        # (z - z^2/2) / (1-z)^2 and -(z^2/2) / (1-z)^2
        a = (n + 1) / 2
        b = (1 - n) / 2
        return HarmonicMap(AnalyticSeries(a), AnalyticSeries(b), tag.value)

    if tag is CatalogTag.ALEXANDER_PLUS_K:
        return replace(alexander_plus(make(CatalogTag.HARMONIC_KOEBE, order)), closed_form=tag.value)
    if tag is CatalogTag.ALEXANDER_PLUS_L:
        return replace(alexander_plus(make(CatalogTag.HARMONIC_HALF_PLANE, order)), closed_form=tag.value)
    raise AssertionError(f"unhandled tag {tag}")


def _dilog(z):
    """Principal-branch dilogarithm sum z^n / n^2."""
    return spence(1.0 - np.asarray(z, dtype=np.complex128))


def _koebe(z):
    return z / (1 - z) ** 2


def _half_plane(z):
    return z / (1 - z)


def _harmonic_koebe(z):
    H = (z - z**2 / 2 + z**3 / 6) / (1 - z) ** 3
    G = (z**2 / 2 + z**3 / 6) / (1 - z) ** 3
    return H + np.conj(G)


def _harmonic_half_plane(z):
    M = (z - z**2 / 2) / (1 - z) ** 2
    N = -(z**2 / 2) / (1 - z) ** 2
    return M + np.conj(N)


def _alexander_plus_K(z):
    h = (z * (5 - 3 * z) / (1 - z) ** 2 - np.log(1 - z)) / 6
    g = (z * (3 * z - 1) / (1 - z) ** 2 - np.log(1 - z)) / 6
    return h + np.conj(g)


def _alexander_plus_L(z):
    return -np.log(np.abs(1 - z)) + 1j * np.imag(z / (1 - z))


_CLOSED_FORMS = {
    CatalogTag.KOEBE: _koebe,
    CatalogTag.HALF_PLANE: _half_plane,
    CatalogTag.MACGREGOR_R: lambda z: -z - 2 * np.log(1 - z),
    CatalogTag.CHICHRA_W: lambda z: 2 * _dilog(z) - z,
    CatalogTag.U_SHARP: lambda z: z + z**2 / 2,
    CatalogTag.U_SHARP_CONJ: lambda z: z + np.conj(z**2) / 2,
    CatalogTag.V_SHARP: lambda z: z + z**2 / 4,
    CatalogTag.V_SHARP_CONJ: lambda z: z + np.conj(z**2) / 4,
    CatalogTag.HARMONIC_KOEBE: _harmonic_koebe,
    CatalogTag.HARMONIC_HALF_PLANE: _harmonic_half_plane,
    CatalogTag.ALEXANDER_PLUS_K: _alexander_plus_K,
    CatalogTag.ALEXANDER_PLUS_L: _alexander_plus_L,
}


def eval_closed(tag, z):
    """Exact value of the tagged map at z, |z| < 1 (principal log branch)."""
    tag = _as_tag(tag)
    zz = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(zz) >= 1.0):
        raise DomainError("closed-form evaluation requires |z| < 1")
    out = np.asarray(_CLOSED_FORMS[tag](zz), dtype=np.complex128)
    return complex(out) if out.ndim == 0 else out
