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


#: Li2(1) = pi^2 / 6, correctly rounded
_ZETA2 = 1.6449340668482264

#: B_2k / (2k + 1)! for k = 1..12, the terms of Li2's Bernoulli series in u
#: past u - u^2/4 (the odd Bernoulli numbers past B_1 are 0)
_LI2_BERNOULLI = (
    0.027777777777777776, -0.0002777777777777778, 4.72411186696901e-06, -9.185773074661964e-08,
    1.8978869988971e-09, -4.0647616451442256e-11, 8.921691020456452e-13, -1.9939295860721074e-14,
    4.518980029619918e-16, -1.0356517612181247e-17, 2.395218621026187e-19, -5.581785874325009e-21,
)


def _li2_series(w):
    """Li2(w) for |w| <= 1, Re w <= 1/2: sum B_n u^(n+1) / (n+1)!, u = -log(1 - w).

    There |u| <= pi/3, so the first term left out (k = 13) is below 5e-22 of u.
    """
    x, y = w.real, w.imag
    # -log(1 - w) from real functions: numpy's complex log1p loses relative
    # accuracy at small |w| (2e-5 at w = 1e-12)
    u = -0.5 * np.log1p(x * (x - 2.0) + y * y) + 1j * np.arctan2(y, 1.0 - x)
    u2 = u * u
    tail = _LI2_BERNOULLI[-1]
    for c in _LI2_BERNOULLI[-2::-1]:
        tail = tail * u2 + c
    return u * (1.0 - 0.25 * u + u2 * tail)


def _dilog(z):
    """Principal-branch dilogarithm Li2(z) = sum z^n / n^2 on the closed unit disk.

    Where Re z <= 1/2, the Bernoulli series in u = -log(1 - z); elsewhere the
    reflection Li2(z) = pi^2/6 - log z log(1 - z) - Li2(1 - z), whose Li2(1 - z)
    is that series again; Li2(1) is pi^2/6 exactly.  Each branch runs on its own
    points only, so neither meets log 0.  Against mpmath at 40 digits the
    relative error is below 1e-15 on the disk, the unit circle and near z = 0
    and z = 1 (D. Zagier, "The dilogarithm function", 2007).  Arrays keep their
    shape; a scalar gives a 0-d array.
    """
    z = np.asarray(z, dtype=np.complex128)
    flat = z.ravel()
    out = np.empty_like(flat)
    series = flat.real <= 0.5
    out[series] = _li2_series(flat[series])
    one = flat == 1.0
    out[one] = _ZETA2
    reflected = ~(series | one)
    w = flat[reflected]
    out[reflected] = _ZETA2 - np.log(w) * np.log(1.0 - w) - _li2_series(1.0 - w)
    return out.reshape(z.shape)


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
    if not np.all(np.abs(zz) < 1.0):
        raise DomainError("closed-form evaluation requires finite z with |z| < 1")
    out = np.asarray(_CLOSED_FORMS[tag](zz), dtype=np.complex128)
    return complex(out) if out.ndim == 0 else out
