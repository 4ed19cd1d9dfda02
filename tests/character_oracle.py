"""Characters and both sides of the character identity, summed directly, as
oracles for the tests: the weight-system trace of a character, independent
of the Weyl-ratio code path, and the two sides of

    sum_{mu' in Omega_mu} chi_{mu'+nu} = sum_iota N_{mu nu}^iota chi_iota

at one point, each through characters.weyl_ratio_sums.  It also keeps an
independent numpy counting of the phase sums (matmul mod L and bincount),
whose values characters.phase_sums must match bit for bit: both round each
sum once, with math.fsum.  Test modules import
this file as a plain module (``from character_oracle import ...``); pytest
puts the tests directory on sys.path.
"""

import cmath
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from fusionkit.algebra import AlgebraSpec, Weight, cartan_inverse
from fusionkit.characters import (
    EvalPoint,
    GenericPoint,
    _check_point,
    _generic_pairing_vector,
    weyl_ratio_sums,
)
from fusionkit.errors import CapExceeded
from fusionkit.fusion import _shifted_terms, fuse_level_k, tensor_decompose
from fusionkit.identity import _rhs_terms
from fusionkit.phase import PHASE_TABLE_CAP, phase_kernel, phase_sums, roots_of_unity
from fusionkit.weights import weight_system


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


def lhs_char_sum(spec: AlgebraSpec, mu: Weight, nu: Weight, p: EvalPoint) -> complex:
    """sum over Omega_mu (with multiplicity) of the virtual character of
    mu' + nu at p."""
    return weyl_ratio_sums(spec, _shifted_terms(spec, mu, nu), [p])[0]


def rhs_fusion_sum(spec: AlgebraSpec, mu: Weight, nu: Weight, p: EvalPoint,
                   k: int | None = None) -> complex:
    """sum_iota N_{mu nu}^iota chi_iota(p), with N the tensor coefficients
    when k is None (algebra level) and the level-k fusion table otherwise."""
    mu, nu = tuple(mu), tuple(nu)
    table = tensor_decompose(spec, mu, nu) if k is None else fuse_level_k(spec, mu, nu, k)
    return weyl_ratio_sums(spec, _rhs_terms(table), [p])[0]


class NumpyPhaseKernel(NamedTuple):
    matrix: np.ndarray   # B mod L, int64
    period: int          # L
    roots: np.ndarray    # the root table as an array


def numpy_phase_kernel(matrix: tuple, level_shifted: int) -> NumpyPhaseKernel:
    """The int64 kernel of the rational matrix M at shifted level K."""
    q = math.lcm(*(Fraction(x).denominator for row in matrix for x in row))
    period = q * level_shifted
    rank = len(matrix)
    # Both factors of every integer product are reduced into [0, L) first,
    # so a row-times-column sum stays below rank * L * L.
    if period > PHASE_TABLE_CAP or rank * period * period >= 1 << 63:
        raise CapExceeded(f"phase kernel at K = {level_shifted} needs {period} roots",
                          required=period)
    matrix_mod = np.array(
        [[int(q * Fraction(x)) % period for x in row] for row in matrix], dtype=np.int64
    )
    return NumpyPhaseKernel(matrix_mod, period, np.array(roots_of_unity(period)))


def _lattice_array(rows, rank: int) -> np.ndarray:
    """Integer vectors as an (n, rank) array: int64 when every entry fits,
    Python ints otherwise (reduced mod L before any int64 arithmetic)."""
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


#: entries of one exponent or count array; points are processed in chunks
_CHUNK_ENTRIES = 1 << 18


def numpy_phase_sums(kernel: NumpyPhaseKernel, weights, coeffs, points) -> np.ndarray:
    """sum_r c_r exp(2 pi i r^T M gamma / K) at every point gamma: int64
    exponents mod L, counts per (point, residue) from np.bincount, and one
    math.fsum per part of counts times roots per point, so each value is
    correctly rounded."""
    period = kernel.period
    rank = kernel.matrix.shape[0]
    weights = _lattice_array(weights, rank)
    coeffs = np.asarray(coeffs, dtype=np.int64).reshape(-1)
    if len(coeffs) != len(weights):
        raise ValueError("one coefficient per weight is required")
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
        values[start:start + width] = [complex(math.fsum(row.real), math.fsum(row.imag))
                                       for row in counts * kernel.roots]
    return values
