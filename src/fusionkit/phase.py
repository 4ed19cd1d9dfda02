"""The exact integer phase kernel: sums of signed roots of unity at variety
points, counted per residue.

A variety point carries an integer vector gamma and a shifted level
K = k + c, and pairs weights through exp(2 pi i gamma^T C^-1 r / K).  With q
clearing the denominators of the rational matrix (C^-1 here, the quadratic
form for the Verlinde S matrix) and L = qK, each phase is an integer
exponent mod L, the signed terms are summed as integer counts per residue,
and floating point enters only in one math.fsum of count times root per
real and imaginary part, correctly rounded and independent of term order.
Root-of-unity coincidences (e.g. chi_4 = -chi_2 on the 8th roots of unity)
therefore cancel exactly, and D_{w lam} = (-1)^w D_lam holds bit for bit.

The kernel is plain Python and loads no numpy.  Points from outside enter
it one way: _point_tuple copies them and checks their lengths once.
alternating_sums merges the signed orbits into residue rows (_netted_rows,
which identity also reads to settle a case whose two sides net to the same
rows without a walk) and pairs every row with every point; phase_sums pairs
every weight with B gamma.  Both walk the points through _direct_sums, which
yields one value per point, so a walk streams.  roots_of_unity is the one
table of L-th roots that every exact phase of the package, the clock/shift
model's included, is read from.  tests/character_oracle.py keeps an
independent numpy counting of the same sums as the reference.
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
from operator import itemgetter, mod, mul
from typing import Iterator, NamedTuple

from .algebra import TWO_PI, AlgebraSpec, Weight, cartan_inverse, signed_orbit
from .errors import CapExceeded, check_cap

#: largest period L = qK for which a table of L-th roots of unity is built
PHASE_TABLE_CAP = 1 << 20


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
