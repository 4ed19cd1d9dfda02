"""Numeric characters: alternating Weyl sums and their Weyl ratios.

Two kinds of evaluation point are supported.  A Generic point carries a
complex vector u and pairs weights through the quadratic form, (r, u) = r^T G u,
with G u from _generic_pairing_vector (theta uses it too); callers who want
bounded trigonometric characters pass purely imaginary u.
A Variety point carries an integer vector gamma and a shifted level K = k + c,
and pairs through exp(2 pi i gamma^T C^-1 r / K).  Variety phases go through
one exact integer kernel: with q clearing the denominators of C^-1 and
L = qK, each phase is an integer exponent mod L, the signed terms are summed
as integer counts per residue, and floating point enters only in one dot
product of those counts with a table of L-th roots of unity.  Root-of-unity
coincidences (e.g. chi_4 = -chi_2 on the 8th roots of unity) therefore cancel
exactly, and D_{w lam} = (-1)^w D_lam holds bit for bit.

Only that kernel (roots_of_unity, phase_kernel, phase_sums) uses numpy, and
it imports numpy on first call: generic points, Weyl ratios and the exact
layers below run in processes that never load it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Union

from .algebra import (
    AlgebraSpec,
    Weight,
    cartan_inverse,
    reflect_to_dominant,
    require_rank,
    signed_orbit,
)
from .errors import CapExceeded, SingularPointError, check_cap

#: below this magnitude the Weyl denominator counts as a wall, not a value
DENOMINATOR_FLOOR = 1e-9

TWO_PI = 2.0 * cmath.pi

#: largest period L = qK for which a table of L-th roots of unity is built
PHASE_TABLE_CAP = 1 << 20

#: entries of one exponent or count array; points are processed in chunks
#: so that neither array grows past this
_CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class GenericPoint:
    """Evaluation point with phase e^{(r,u)}, u a complex weight-space vector."""

    u: tuple

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(complex(x) for x in self.u))


@dataclass(frozen=True)
class VarietyPoint:
    """Root-of-unity evaluation point: phase exp(2 pi i gamma^T C^-1 r / K)
    with K = k + c the shifted level."""

    gamma: tuple
    level_shifted: int

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(int(g) for g in self.gamma))
        if self.level_shifted <= 0:
            raise ValueError("shifted level K = k + c must be positive")


EvalPoint = Union[GenericPoint, VarietyPoint]


def _check_point(spec: AlgebraSpec, p: EvalPoint):
    n = len(p.u) if isinstance(p, GenericPoint) else len(p.gamma)
    if n != spec.rank:
        raise ValueError(f"evaluation point has length {n}, expected rank {spec.rank}")


def _generic_pairing_vector(spec: AlgebraSpec, u):
    """G u, so that (r, u) is a plain dot product against integer labels."""
    g = spec.quad_form
    return tuple(
        sum(float(g[i][j]) * u[j] for j in range(spec.rank)) for i in range(spec.rank)
    )


@lru_cache(maxsize=1 << 10)
def _point_pairing_vector(spec: AlgebraSpec, p: GenericPoint) -> tuple:
    """G u of the generic point p, formed once per (spec, p) for every
    D_lam evaluated there."""
    return _generic_pairing_vector(spec, p.u)


@lru_cache(maxsize=256)
def roots_of_unity(period: int) -> np.ndarray:
    """exp(2 pi i e / L) for e = 0 .. L-1, read-only and built once per L:
    the one table every exact phase of the package is read from.  Callers
    bound L (PHASE_TABLE_CAP, or the Hilbert cap for the Gaussian model).

    Entry e is exp(i y) at y = (2 pi e)(1/L), the angle numpy forms in
    np.exp(2j * np.pi * np.arange(L) / L); the table equals that array bit
    for bit (tests pin it), but is built with cmath.  Like the rest of the
    phase kernel it imports numpy on its first call, so a process that
    builds no array never loads numpy."""
    import numpy as np

    step = 1 / period
    roots = np.array([cmath.exp(1j * (TWO_PI * e * step)) for e in range(period)])
    roots.flags.writeable = False
    return roots


class PhaseKernel(NamedTuple):
    """Exact phases exp(2 pi i r^T M gamma / K) of integer vectors r, gamma
    under a rational matrix M: with q the least common denominator of M,
    B = qM and L = qK, the phase is roots[r^T B gamma mod L]."""

    matrix: np.ndarray   # B mod L, int64
    period: int          # L
    roots: np.ndarray    # roots_of_unity(L)


@lru_cache(maxsize=256)
def phase_kernel(matrix: tuple, level_shifted: int) -> PhaseKernel:
    """The kernel of the rational matrix M (rows of ints or Fractions) at
    shifted level K, built once per (M, K).

    Raises CapExceeded when the root table would pass PHASE_TABLE_CAP or
    int64 exponent arithmetic could overflow; it never wraps silently."""
    q = math.lcm(*(Fraction(x).denominator for row in matrix for x in row))
    period = q * level_shifted
    rank = len(matrix)
    # Both factors of every integer product are reduced into [0, L) first,
    # so a row-times-column sum stays below rank * L * L.
    if period > PHASE_TABLE_CAP or rank * period * period >= 1 << 63:
        raise CapExceeded(
            f"phase kernel at K = {level_shifted} needs a table of {period} roots "
            f"of unity (cap {PHASE_TABLE_CAP})",
            required=period,
        )
    import numpy as np

    matrix_mod = np.array(
        [[int(q * Fraction(x)) % period for x in row] for row in matrix], dtype=np.int64
    )
    matrix_mod.flags.writeable = False
    return PhaseKernel(matrix_mod, period, roots_of_unity(period))


def _lattice_array(rows, rank: int) -> np.ndarray:
    """Integer vectors as an (n, rank) array: int64 when every entry fits,
    Python ints otherwise (reduced mod L before any int64 arithmetic)."""
    import numpy as np

    if not isinstance(rows, np.ndarray):
        rows = [tuple(row) for row in rows]
        try:
            rows = np.array(rows, dtype=np.int64)
        except OverflowError:
            rows = np.array(rows, dtype=object)
    if rows.size == 0:
        return np.zeros((0, rank), dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != rank:
        raise ValueError(f"integer vectors must have length {rank}")
    return rows


def phase_sums(kernel: PhaseKernel, weights, coeffs, points) -> np.ndarray:
    """sum_r c_r exp(2 pi i r^T M gamma / K) at every point gamma.

    Exponents are exact int64 residues mod L; the coefficients are summed per
    (point, residue) as integers (float64 holds them exactly below 2^53), and
    the one floating-point step is the dot product of those counts with the
    root table."""
    import numpy as np

    period = kernel.period
    rank = kernel.matrix.shape[0]
    weights = _lattice_array(weights, rank)
    coeffs = np.asarray(coeffs, dtype=np.int64).reshape(-1)
    if len(coeffs) != len(weights):
        raise ValueError("one coefficient per weight is required")
    # Every per-residue partial sum is bounded by n * max|c|, in Python ints.
    if len(coeffs) and max(int(coeffs.max()), -int(coeffs.min())) * len(coeffs) >= 1 << 53:
        raise CapExceeded("signed coefficients too large to count exactly in float64")
    gammas = (_lattice_array(points, rank) % period).astype(np.int64)
    reduced = (weights % period).astype(np.int64) @ kernel.matrix % period
    chunk = max(1, _CHUNK_ENTRIES // max(len(weights), period))
    offsets = np.arange(chunk, dtype=np.int64) * period
    values = np.empty(len(gammas), dtype=complex)
    for start in range(0, len(gammas), chunk):
        block = gammas[start:start + chunk]
        width = len(block)
        exponents = reduced @ block.T % period + offsets[:width]
        counts = np.bincount(
            exponents.ravel(), weights=np.repeat(coeffs, width), minlength=width * period
        ).reshape(width, period)
        values[start:start + width] = (counts * kernel.roots).sum(axis=1)
    return values


def alternating_sums(spec: AlgebraSpec, terms, gammas, level_shifted: int) -> np.ndarray:
    """sum over (lam, c) in terms of c D_lam(gamma), at every variety point
    gamma of shifted level K, as one exact count per residue.  Terms on a
    wall (stabiliser > 1) are dropped: their alternating sum is zero."""
    kernel = phase_kernel(cartan_inverse(spec), level_shifted)
    orbits = [(signed_orbit(spec, lam), c) for lam, c in terms]
    orbits = [(orbit, c) for orbit, c in orbits if orbit.stabiliser == 1]
    images = [image for orbit, _ in orbits for image in orbit.images]
    coeffs = [c * sign for orbit, c in orbits for sign in orbit.signs]
    return phase_sums(kernel, images, coeffs, gammas)


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
        images, signs, stabiliser = signed_orbit(spec, lam)
        if stabiliser > 1:
            return 0j
        gu = _point_pairing_vector(spec, p)
        total = 0.0 + 0.0j
        for w_lam, sign in zip(images, signs):
            pairing = sum(li * gi for li, gi in zip(w_lam, gu))
            total += sign * cmath.exp(pairing)
        return total
    return complex(alternating_sums(spec, [(lam, 1)], [p.gamma], p.level_shifted)[0])


eval_D.cache_info = _eval_D_cached.cache_info


def eval_char(spec: AlgebraSpec, mu: Weight, p: EvalPoint) -> complex:
    """Character of the dominant weight mu as the Weyl ratio
    D_{mu+rho}(p) / D_rho(p)."""
    require_rank(spec, mu)
    check_cap("weyl_order", spec.weyl_order, spec)
    if any(label < 0 for label in mu):
        raise ValueError(f"{mu} is not dominant; reduce mu + rho with reflect_to_dominant")
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
    in ``shifted``, each ratio divided once.  Callers check the Weyl-order
    cap first."""
    store = _ratio_columns(spec, points)
    columns = {}
    denominators = None
    for lam in shifted:
        column = store.get(lam)
        if column is None:
            if denominators is None:
                denominators = [_denominator(spec, p) for p in points]
            column = tuple([_eval_D_cached(spec, lam, p) / denominator
                            for p, denominator in zip(points, denominators)])
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

    Each rho-shifted lam is reflected to the dominant chamber first, so
    c sign(w) chi_{w(lam) - rho} enters; lam on a wall drops out.  Terms are
    walked once, each adding c times its ratio column to every point, so a
    point's value is 0j + c_1 r_1 + c_2 r_2 + ... in term order."""
    check_cap("weyl_order", spec.weyl_order, spec)
    points = tuple(points)
    reduced = [(reflect_to_dominant(spec, lam), c) for lam, c in terms]
    reduced = [(dom, c * sign) for (dom, sign), c in reduced if sign]
    columns = _weyl_ratios(spec, [lam for lam, _ in reduced], points)
    values = [0j] * len(points)
    for lam, c in reduced:
        values = [value + c * ratio for value, ratio in zip(values, columns[lam])]
    return values
