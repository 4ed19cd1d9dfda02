"""Numeric characters: alternating Weyl sums and their Weyl ratios.

Two kinds of evaluation point are supported.  A Generic point carries a
complex vector u and pairs weights through the quadratic form, (r, u) = r^T G u,
with G u from algebra._generic_pairing_vector (theta uses it too); callers
who want bounded trigonometric characters pass purely imaginary u.
A Variety point carries an integer vector gamma and a shifted level K = k + c,
and pairs through exp(2 pi i gamma^T C^-1 r / K).  Variety phases go through
one exact integer kernel: with q clearing the denominators of C^-1 and
L = qK, each phase is an integer exponent mod L, the signed terms are summed
as integer counts per residue, and floating point enters only in one
math.fsum of count times root per real and imaginary part, correctly
rounded and independent of term order.  Root-of-unity coincidences (e.g.
chi_4 = -chi_2 on the 8th roots of unity) therefore cancel exactly, and
D_{w lam} = (-1)^w D_lam holds bit for bit.

The kernel is plain Python, and nothing in this module loads numpy.  Points
from outside enter it one way: _point_tuple copies them and checks their
lengths once.  alternating_sums merges the signed orbits into residue rows
(_netted_rows, which identity also reads to settle a case whose two sides
net to the same rows without a walk) and pairs every row with every point;
phase_sums pairs every weight with B gamma.  Both walk the points through
_direct_sums, which yields one value per point, so a walk streams.
tests/character_oracle.py keeps an independent numpy counting of the same
sums as the reference.
"""

from __future__ import annotations

import cmath
import math
import sys
from array import array
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import itemgetter, mod, mul, truediv
from typing import Iterator, NamedTuple, Union

from .algebra import (
    TWO_PI,
    AlgebraSpec,
    Weight,
    _generic_pairing_vector,
    _signed_dominant,
    cartan_inverse,
    require_dominant,
    require_rank,
    signed_orbit,
)
from .errors import CapExceeded, CheckedTuple, SingularPointError, check_cap

#: below this magnitude the Weyl denominator counts as a wall, not a value
DENOMINATOR_FLOOR = 1e-9

#: largest period L = qK for which a table of L-th roots of unity is built
PHASE_TABLE_CAP = 1 << 20


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


@lru_cache(maxsize=256)
def roots_of_unity(period: int) -> tuple:
    """exp(2 pi i e / L) for e = 0 .. L-1, built once per L: the one table
    every exact phase of the package is read from.  Callers bound L
    (PHASE_TABLE_CAP, or the Hilbert cap for the Gaussian model).

    Entry e is exp(i y) at y = (2 pi e)(1/L), the angle numpy forms in
    np.exp(2j * np.pi * np.arange(L) / L); the table equals that array bit
    for bit (tests pin it)."""
    step = 1 / period
    return tuple([cmath.exp(1j * (TWO_PI * e * step)) for e in range(period)])


class PhaseKernel(NamedTuple):
    """Exact phases exp(2 pi i r^T M gamma / K) of integer vectors r, gamma
    under a rational matrix M: with q the least common denominator of M,
    B = qM and L = qK, the phase is roots[r^T B gamma mod L]."""

    matrix: tuple        # B mod L, rows of ints
    period: int          # L
    roots: tuple         # roots_of_unity(L)


@lru_cache(maxsize=256)
def phase_kernel(matrix: tuple, level_shifted: int) -> PhaseKernel:
    """The kernel of the rational matrix M (rows of ints or Fractions) at
    shifted level K, built once per (M, K).

    Raises CapExceeded when the root table would pass PHASE_TABLE_CAP."""
    q = math.lcm(*(Fraction(x).denominator for row in matrix for x in row))
    period = q * level_shifted
    if period > PHASE_TABLE_CAP:
        raise CapExceeded(
            f"phase kernel at K = {level_shifted} needs a table of {period} roots "
            f"of unity (cap {PHASE_TABLE_CAP})",
            required=period,
        )
    matrix_mod = tuple(tuple(int(q * Fraction(x)) % period for x in row) for row in matrix)
    return PhaseKernel(matrix_mod, period, roots_of_unity(period))


def _point_tuple(points, rank: int) -> tuple:
    """Integer vectors of length rank, copied into a tuple of tuples and
    checked once: the one way points from outside enter the kernel."""
    points = tuple(tuple(int(x) for x in p) for p in points)
    _require_lengths(points, rank)
    return points


def _require_exact_counts(largest: int, terms: int):
    """Every count per residue is at most terms * largest in size; float64
    holds it exactly below 2^53."""
    if largest * terms >= 1 << 53:
        raise CapExceeded("signed coefficients too large to count exactly in float64")


def _require_lengths(vectors, rank: int):
    if not set(map(len, vectors)) <= {rank}:
        raise ValueError(f"integer vectors must have length {rank}")


def _pairings(kernel: PhaseKernel, vectors: list, us) -> Iterator:
    """For each u in ``us`` (entries in [0, L)), vector . u mod L of every
    vector, one u at a time.  Each coordinate column of the vectors is
    reduced mod L and packed into one int, a field per vector wide enough
    for a sum of rank products of residues, so pairing with u is rank
    products of big ints, read back as an array of fields."""
    period, rank = kernel.period, len(kernel.matrix)
    _require_lengths(vectors, rank)
    bits = (rank * period * period).bit_length()
    code = next(code for code in "BHIQ" if 8 * array(code).itemsize >= bits)
    columns = [int.from_bytes(array(code, map(mod, map(itemgetter(i), vectors),
                                              repeat(period))).tobytes(), sys.byteorder)
               for i in range(rank)]
    size = array(code).itemsize * len(vectors)
    return (map(mod, array(code, sum(map(mul, u, columns)).to_bytes(size, sys.byteorder)),
                repeat(period)) for u in us)


def _residue_rows(kernel: PhaseKernel, weights: list, coeffs: list) -> dict:
    """r^T B mod L -> the net coefficient of the weights r with that row,
    zeros dropped: the phase of r at every point depends on its row alone."""
    rows = zip(*_pairings(kernel, weights, list(zip(*kernel.matrix))))
    netted = {}
    for (row, c), n in Counter(zip(rows, coeffs)).items():
        netted[row] = netted.get(row, 0) + c * n
    return {row: c for row, c in netted.items() if c}


def _direct_sums(kernel: PhaseKernel, vectors: list, coeffs: list, pairs) -> Iterator:
    """sum c exp(2 pi i vector . u / L) for every u in ``pairs``, yielded one
    u at a time.  The coefficients are summed per residue as exact integers;
    the value is one math.fsum each of the real and the imaginary parts of
    the nonzero products count * root, so it is correctly rounded and does
    not depend on the order of the terms."""
    roots = kernel.roots
    for residues in _pairings(kernel, vectors, pairs):
        counts = {}
        for e, c in zip(residues, coeffs):
            counts[e] = counts.get(e, 0) + c
        real, imag = [], []
        for e, c in counts.items():
            if c:
                real.append(c * roots[e].real)
                imag.append(c * roots[e].imag)
        yield complex(math.fsum(real), math.fsum(imag))


def _row_sums(kernel: PhaseKernel, rows: dict, points) -> Iterator:
    """sum over residue rows of c exp(2 pi i row . gamma / L) at every point
    gamma of ``points`` (integer vectors of length rank, checked by the
    caller): each point is reduced mod L and paired with every row
    (_direct_sums), so the cost is rows x points."""
    period = kernel.period
    return _direct_sums(kernel, list(rows), list(rows.values()),
                        ([g % period for g in gamma] for gamma in points))


def phase_sums(kernel: PhaseKernel, weights, coeffs, points) -> list:
    """sum_r c_r exp(2 pi i r^T M gamma / K) at every point gamma.

    Each label r is paired with B gamma, and the coefficients are summed per
    (point, residue) as exact integers; the one floating-point step is one
    math.fsum of count * root per part (_direct_sums)."""
    rank, period = len(kernel.matrix), kernel.period
    weights, given = list(weights), list(coeffs)
    coeffs = list(map(int, given))
    points = _point_tuple(points, rank)
    if len(coeffs) != len(weights):
        raise ValueError("one coefficient per weight is required")
    if coeffs != given:
        raise ValueError("phase_sums coefficients must be integers")
    _require_exact_counts(max(map(abs, coeffs), default=0), len(coeffs))
    return list(_direct_sums(kernel, weights, coeffs, [
        [sum(map(mul, row, gamma)) % period for row in kernel.matrix] for gamma in points
    ]))


#: residue rows of the signed orbits kept per (spec, K, lam)
_ORBIT_ROW_ENTRIES = 1 << 10


@lru_cache(maxsize=_ORBIT_ROW_ENTRIES)
def _orbit_rows(spec: AlgebraSpec, level_shifted: int, lam: Weight) -> tuple:
    """(rows, images): the residue rows of the signed orbit of lam with
    netted signs, as (row, sign) pairs, and its image count; ((), 0) on a
    wall, where the alternating sum vanishes."""
    images, signs, stabiliser = signed_orbit(spec, lam)
    if stabiliser > 1:
        return (), 0
    kernel = phase_kernel(cartan_inverse(spec), level_shifted)
    return tuple(_residue_rows(kernel, images, signs).items()), len(images)


def _netted_rows(spec: AlgebraSpec, terms, level_shifted: int) -> tuple:
    """(kernel, rows): the phase kernel at shifted level K and the residue
    rows of sum over (lam, c) in terms of c D_lam, netted across the terms
    with zeros dropped.  Terms on a wall (stabiliser > 1) are dropped: their
    alternating sum is zero.  Each orbit's residue rows are kept per
    (spec, K, lam).  The Weyl-order cap is checked first, and every count
    is checked to stay exact in float64."""
    check_cap("weyl_order", spec.weyl_order, spec)
    kernel = phase_kernel(cartan_inverse(spec), level_shifted)
    rows = {}
    largest = images = 0
    for lam, c in terms:
        orbit_rows, size = _orbit_rows(spec, level_shifted, tuple(lam))
        if size:
            largest, images = max(largest, abs(c)), images + size
        for row, sign in orbit_rows:
            rows[row] = rows.get(row, 0) + c * sign
    _require_exact_counts(largest, images)
    return kernel, {row: c for row, c in rows.items() if c}


def alternating_sums(spec: AlgebraSpec, terms, gammas, level_shifted: int) -> list:
    """sum over (lam, c) in terms of c D_lam(gamma), at every variety point
    gamma of shifted level K, as one exact count per residue of the netted
    rows (_netted_rows)."""
    kernel, rows = _netted_rows(spec, terms, level_shifted)
    return list(_row_sums(kernel, rows, _point_tuple(gammas, spec.rank)))


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
