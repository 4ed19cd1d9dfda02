"""Numeric characters: alternating Weyl sums and their Weyl ratios.

Two kinds of evaluation point are supported.  A Generic point carries a
complex vector u and pairs weights through the quadratic form, (r, u) = r^T G u,
with G u from algebra._generic_pairing_vector (theta uses it too); callers
who want bounded trigonometric characters pass purely imaginary u.
A Variety point carries an integer vector gamma and a shifted level K = k + c,
and pairs through exp(2 pi i gamma^T C^-1 r / K).  Variety phases go through
the exact integer kernel of the phase module (phase.alternating_sums),
which eval_D imports only when it evaluates at a variety point, so generic
points never load it.

At generic points the module keeps the D columns (_D_column, one signed
orbit per weight for all points) and the Weyl ratios over them
(_weyl_ratios, weyl_ratio_sums), stored per tuple of points.  Nothing in
this module loads numpy.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from operator import mul, truediv
from typing import NamedTuple, Union

from .algebra import (
    AlgebraSpec,
    Weight,
    _generic_pairing_vector,
    _signed_dominant,
    require_dominant,
    require_rank,
    signed_orbit,
)
from .errors import CheckedTuple, SingularPointError, check_cap

#: below this magnitude the Weyl denominator counts as a wall, not a value
DENOMINATOR_FLOOR = 1e-9


class GenericPoint(CheckedTuple, NamedTuple("GenericPoint", [("u", tuple)])):
    """Evaluation point with phase e^{(r,u)}, u a complex weight-space vector."""

    __slots__ = ()

    def __new__(cls, u):
        return super().__new__(cls, tuple(complex(x) for x in u))


class VarietyPoint(CheckedTuple, NamedTuple("VarietyPoint", [("gamma", tuple),
                                                             ("level_shifted", int)])):
    """Root-of-unity evaluation point: phase exp(2 pi i gamma^T C^-1 r / K)
    with K = k + c the shifted level."""

    __slots__ = ()

    def __new__(cls, gamma, level_shifted: int):
        gamma = tuple(int(g) for g in gamma)
        if level_shifted <= 0:
            raise ValueError("shifted level K = k + c must be positive")
        return super().__new__(cls, gamma, level_shifted)


EvalPoint = Union[GenericPoint, VarietyPoint]


def _check_point(spec: AlgebraSpec, p: EvalPoint):
    n = len(p.u) if isinstance(p, GenericPoint) else len(p.gamma)
    if n != spec.rank:
        raise ValueError(f"evaluation point has length {n}, expected rank {spec.rank}")


@lru_cache(maxsize=1 << 10)
def _point_pairing_vector(spec: AlgebraSpec, p: GenericPoint) -> tuple:
    """G u of the generic point p, formed once per (spec, p) for every
    D_lam evaluated there."""
    return _generic_pairing_vector(spec, p.u)


def eval_D(spec: AlgebraSpec, lam: Weight, p: EvalPoint) -> complex:
    """Alternating Weyl orbit sum D_lam = sum_w (-1)^w e^{(w(lam), p)}.

    Antisymmetric under precomposed simple reflections of lam; exactly zero
    when lam lies on a wall.  Values are cached; the Weyl-order cap in force
    is checked on every call, in front of the cache.
    """
    require_rank(spec, lam)
    check_cap("weyl_order", spec.weyl_order, spec)
    return _eval_D_cached(spec, lam, p)


@lru_cache(maxsize=1 << 16)
def _eval_D_cached(spec: AlgebraSpec, lam: Weight, p: EvalPoint) -> complex:
    _check_point(spec, p)
    lam = tuple(lam)
    if isinstance(p, GenericPoint):
        return _D_column(spec, lam, [_point_pairing_vector(spec, p)])[0]
    from .phase import alternating_sums

    return alternating_sums(spec, [(lam, 1)], [p.gamma], p.level_shifted)[0]


def _D_column(spec: AlgebraSpec, lam: Weight, pairing_vectors: list) -> list:
    """D_lam at the generic points whose vectors G u are pairing_vectors, from
    one signed-orbit fetch: 0j on a wall, else sign * exp((w lam, u)) added
    from 0j in orbit order, each pairing sum(map(mul, w lam, G u))."""
    images, signs, stabiliser = signed_orbit(spec, lam)
    if stabiliser > 1:
        return [0j] * len(pairing_vectors)
    column = []
    for gu in pairing_vectors:
        total = 0.0 + 0.0j
        for w_lam, sign in zip(images, signs):
            total += sign * cmath.exp(sum(map(mul, w_lam, gu)))
        column.append(total)
    return column


eval_D.cache_info = _eval_D_cached.cache_info


def eval_char(spec: AlgebraSpec, mu: Weight, p: EvalPoint) -> complex:
    """Character of the dominant weight mu as the Weyl ratio
    D_{mu+rho}(p) / D_rho(p)."""
    require_dominant(spec, mu)
    check_cap("weyl_order", spec.weyl_order, spec)
    lam = tuple(m + 1 for m in mu)
    return _weyl_ratios(spec, [lam], (p,))[lam][0]


#: ratios kept per point set; past it new columns are computed but not kept
_RATIO_STORE_ENTRIES = 1 << 16


@lru_cache(maxsize=1 << 6)
def _ratio_columns(spec: AlgebraSpec, points: tuple) -> dict:
    """The store behind _weyl_ratios for one tuple of points:
    rho-shifted dominant lam -> (D_lam(p) / D_rho(p) for p in points), with
    columns only once every D_rho(p) passed the floor, up to
    _RATIO_STORE_ENTRIES ratios."""
    return {}


def _weyl_ratios(spec: AlgebraSpec, shifted, points: tuple) -> dict:
    """The ratio columns over ``points`` of every rho-shifted dominant weight
    in ``shifted``, each ratio divided once; when every point is generic a
    missing column is one _D_column.  Callers check the Weyl-order cap
    first."""
    store = _ratio_columns(spec, points)
    columns = {}
    denominators = None
    for lam in shifted:
        column = store.get(lam)
        if column is None:
            if denominators is None:
                denominators = [_denominator(spec, p) for p in points]
                generic = all(isinstance(p, GenericPoint) for p in points)
                vectors = [_point_pairing_vector(spec, p) for p in points] if generic else None
            values = (_D_column(spec, lam, vectors) if generic
                      else [_eval_D_cached(spec, lam, p) for p in points])
            column = tuple(map(truediv, values, denominators))
            if (len(store) + 1) * len(points) <= _RATIO_STORE_ENTRIES:
                store[lam] = column
        columns[lam] = column
    return columns


def _denominator(spec: AlgebraSpec, p: EvalPoint) -> complex:
    """D_rho(p), which SingularPointError refuses below DENOMINATOR_FLOOR."""
    denominator = _eval_D_cached(spec, spec.rho, p)
    if abs(denominator) < DENOMINATOR_FLOOR:
        raise SingularPointError(
            f"point {p} lies on a wall of {spec}: |D_rho| = {abs(denominator):.3e}"
        )
    return denominator


def weyl_ratio_sums(spec: AlgebraSpec, terms, points) -> list:
    """sum over (lam, c) in terms of c D_lam(p) / D_rho(p) at every point p.

    Each rho-shifted lam is reflected to the dominant chamber once
    (_signed_dominant), so c sign(w) chi_{w(lam) - rho} enters; lam on a
    wall drops out.  A point's value is sum(map(mul, coefficients, its
    ratios), 0j): 0j + c_1 r_1 + c_2 r_2 + ... in term order."""
    check_cap("weyl_order", spec.weyl_order, spec)
    points = tuple(points)
    shifted, coeffs = [], []
    for lam, c in terms:
        dominant, sign = _signed_dominant(spec, tuple(lam))
        if sign:
            shifted.append(dominant)
            coeffs.append(c * sign)
    if not shifted:
        return [0j] * len(points)
    columns = _weyl_ratios(spec, shifted, points)
    return [sum(map(mul, coeffs, ratios), 0j)
            for ratios in zip(*map(columns.__getitem__, shifted))]
