"""Numeric characters: alternating Weyl sums, their ratios, and the virtual
normal form for arbitrary lattice weights.

Two kinds of evaluation point are supported.  A Generic point carries a
complex vector u and pairs weights through the quadratic form, (r, u) = r^T G u;
callers who want bounded trigonometric characters pass purely imaginary u.
A Variety point carries an integer vector gamma and a shifted level K = k + c,
and pairs through exp(2 pi i gamma^T C^-1 r / K).  Variety phases go through
one exact integer kernel: with q clearing the denominators of C^-1 and
L = qK, each phase is an integer exponent mod L, the signed terms are summed
as integer counts per residue, and floating point enters only in one dot
product of those counts with a table of L-th roots of unity.  Root-of-unity
coincidences (e.g. chi_4 = -chi_2 on the 8th roots of unity) therefore cancel
exactly, and D_{w lam} = (-1)^w D_lam holds bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Union

import numpy as np

from .algebra import (
    AlgebraSpec,
    Weight,
    _check_weyl_order,
    cartan_inverse,
    reflect_to_dominant,
    weyl_orbit,
)
from .errors import CapExceeded, SingularPointError
from .weights import weight_system

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


class VirtualChar(NamedTuple):
    sign: int
    dominant: Weight | None


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


class PhaseKernel(NamedTuple):
    """Exact phases exp(2 pi i r^T M gamma / K) of integer vectors r, gamma
    under a rational matrix M: with q the least common denominator of M,
    B = qM and L = qK, the phase is roots[r^T B gamma mod L]."""

    matrix: np.ndarray   # B mod L, int64
    period: int          # L
    roots: np.ndarray    # exp(2 pi i e / L) for e = 0 .. L-1


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
    matrix_mod = np.array(
        [[int(q * Fraction(x)) % period for x in row] for row in matrix], dtype=np.int64
    )
    # e / L is correctly rounded, so each entry is the phase the rational
    # angle e / L itself gives.
    roots = np.array([cmath.exp(1j * TWO_PI * (e / period)) for e in range(period)])
    matrix_mod.flags.writeable = False
    roots.flags.writeable = False
    return PhaseKernel(matrix_mod, period, roots)


def _lattice_array(rows, rank: int) -> np.ndarray:
    """Integer vectors as an (n, rank) array: int64 when every entry fits,
    Python ints otherwise (reduced mod L before any int64 arithmetic)."""
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


def signed_orbit_array(spec: AlgebraSpec, lam: Weight):
    """The signed Weyl orbit of lam as read-only arrays (images, signs),
    cached per lam.  The Weyl-order cap is checked on every call."""
    _check_weyl_order(spec)
    return _signed_orbit_cached(spec, tuple(lam))


@lru_cache(maxsize=4096)
def _signed_orbit_cached(spec: AlgebraSpec, lam: Weight):
    orbit = weyl_orbit(spec, lam)
    images = _lattice_array([image for image, _ in orbit], spec.rank)
    signs = np.array([sign for _, sign in orbit], dtype=np.int64)
    images.flags.writeable = False
    signs.flags.writeable = False
    return images, signs


def alternating_sums(spec: AlgebraSpec, terms, gammas, level_shifted: int) -> np.ndarray:
    """sum over (lam, c) in terms of c D_lam(gamma), at every variety point
    gamma of shifted level K, as one exact count per residue."""
    kernel = phase_kernel(cartan_inverse(spec), level_shifted)
    orbits = [signed_orbit_array(spec, lam) for lam, _ in terms]
    if not orbits:
        return np.zeros(len(_lattice_array(gammas, spec.rank)), dtype=complex)
    images = np.concatenate([images for images, _ in orbits])
    coeffs = np.concatenate([c * signs for (_, signs), (_, c) in zip(orbits, terms)])
    return phase_sums(kernel, images, coeffs, gammas)


@lru_cache(maxsize=1 << 16)
def eval_D(spec: AlgebraSpec, lam: Weight, p: EvalPoint) -> complex:
    """Alternating Weyl orbit sum D_lam = sum_w (-1)^w e^{(w(lam), p)}.

    Antisymmetric under precomposed simple reflections of lam; identically
    zero (by exact pairwise cancellation) when lam lies on a wall.
    """
    _check_point(spec, p)
    lam = tuple(lam)
    if isinstance(p, GenericPoint):
        orbit = weyl_orbit(spec, lam)
        gu = _generic_pairing_vector(spec, p.u)
        total = 0.0 + 0.0j
        for w_lam, sign in orbit:
            pairing = sum(li * gi for li, gi in zip(w_lam, gu))
            total += sign * cmath.exp(pairing)
        return total
    return complex(alternating_sums(spec, [(lam, 1)], [p.gamma], p.level_shifted)[0])


def eval_char(spec: AlgebraSpec, mu: Weight, p: EvalPoint) -> complex:
    """Character of the dominant weight mu as the Weyl ratio
    D_{mu+rho}(p) / D_rho(p)."""
    if any(label < 0 for label in mu):
        raise ValueError(f"{mu} is not dominant; use virtual_normalize first")
    denominator = eval_D(spec, spec.rho, p)
    if abs(denominator) < DENOMINATOR_FLOOR:
        raise SingularPointError(
            f"point {p} lies on a wall of {spec}: |D_rho| = {abs(denominator):.3e}"
        )
    numerator = eval_D(spec, tuple(m + 1 for m in mu), p)
    return numerator / denominator


def weyl_ratio_sums(spec: AlgebraSpec, terms, points) -> list:
    """sum over (lam, c) in terms of c D_lam(p) / D_rho(p) at every point p.

    Each rho-shifted lam is reflected to the dominant chamber first, so
    c sign(w) chi_{w(lam) - rho} enters; lam on a wall drops out."""
    reduced = [(reflect_to_dominant(spec, lam), c) for lam, c in terms]
    reduced = [(tuple(r - 1 for r in dom), c * sign) for (dom, sign), c in reduced if sign]
    return [sum((c * eval_char(spec, mu, p) for mu, c in reduced), 0j) for p in points]


def eval_char_trace(spec: AlgebraSpec, mu: Weight, p: EvalPoint) -> complex:
    """Character as the plain weight-system sum sum_{r in Omega_mu} m_r e^{(r,p)};
    slower than eval_char but independent of the Weyl-ratio code path."""
    _check_point(spec, p)
    ws = weight_system(spec, mu)
    if isinstance(p, GenericPoint):
        gu = _generic_pairing_vector(spec, p.u)
        return sum(
            mult * cmath.exp(sum(ri * gi for ri, gi in zip(r, gu)))
            for r, mult in ws.entries.items()
        )
    kernel = phase_kernel(cartan_inverse(spec), p.level_shifted)
    values = phase_sums(kernel, list(ws.entries), list(ws.entries.values()), [p.gamma])
    return complex(values[0])


def virtual_normalize(spec: AlgebraSpec, lam: Weight) -> VirtualChar:
    """Reduce an arbitrary lattice weight to its virtual-character normal form.

    chi_lam = sign * chi_dominant where (dominant, sign) comes from reducing
    lam + rho; weights whose shift lands on a wall have sign 0 and no
    dominant representative (their character vanishes identically).
    """
    shifted = tuple(l + 1 for l in lam)
    reduced, sign = reflect_to_dominant(spec, shifted)
    if sign == 0:
        return VirtualChar(0, None)
    return VirtualChar(sign, tuple(r - 1 for r in reduced))


def char_su2_closed(n: int, k: int, x: float) -> float:
    """Closed-form level-k su(2) character sin(pi (n+1) x/(k+2)) / sin(pi x/(k+2))."""
    denominator = math.sin(math.pi * x / (k + 2))
    if abs(denominator) < DENOMINATOR_FLOOR:
        raise SingularPointError(f"x = {x} is a zero of the level-{k} su(2) denominator")
    return math.sin(math.pi * (n + 1) * x / (k + 2)) / denominator
