"""Tensor products, level-k fusion by alcove folding, and a Verlinde-style
S-matrix oracle.

Tensor decomposition is the signed reflection algorithm: shift every weight
of one factor by the other highest weight plus rho, reduce to the dominant
chamber with parity, and accumulate.  Level-k fusion folds each tensor
summand into the level-(k+c) affine alcove, alternating finite reflections
(negative labels) with the affine reflection about (beta, theta) = k + c;
anything landing on a wall is discarded.  All of that is exact integer
arithmetic.  The independent oracle builds the S matrix numerically from
alternating Weyl sums and evaluates the standard ratio; a rounding guard
turns silent drift into a loud error.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .algebra import (
    AlgebraSpec,
    Weight,
    _theta_row,
    comarks,
    reflect_to_dominant,
)
from .characters import phase_kernel, phase_sums, signed_orbit_array
from .errors import InvariantViolation, OracleMismatchError
from .weights import weight_system

_FOLD_LIMIT = 10_000


def level_pairing(spec: AlgebraSpec, lam: Weight) -> int:
    """(lam, theta): the level at which lam first becomes integrable."""
    if len(lam) != spec.rank:
        raise ValueError(f"weight length does not match rank {spec.rank}")
    d, row = _theta_row(spec)
    numerator = sum(l * t for l, t in zip(lam, row))
    value, remainder = divmod(numerator, d)
    if remainder:
        raise InvariantViolation(f"(lam, theta) = {numerator}/{d} is not an integer for {lam}")
    return value


def is_integrable(spec: AlgebraSpec, lam: Weight, k: int) -> bool:
    return all(label >= 0 for label in lam) and level_pairing(spec, lam) <= k


def tensor_decompose(spec: AlgebraSpec, mu: Weight, nu: Weight,
                     dim_cap: int | None = None) -> dict:
    """Decompose mu (x) nu into irreducibles at algebra level (k = infinity).

    Returns a map dominant weight -> multiplicity.  The signed accumulation
    must come out nonnegative; a negative count raises InvariantViolation.
    """
    mu, nu = tuple(mu), tuple(nu)
    ws = weight_system(spec, mu, dim_cap=dim_cap)
    counts: dict[Weight, int] = {}
    for mu_prime, mult in ws.entries.items():
        shifted = tuple(n + m + 1 for n, m in zip(nu, mu_prime))
        reduced, sign = reflect_to_dominant(spec, shifted)
        if sign == 0:
            continue
        summand = tuple(r - 1 for r in reduced)
        counts[summand] = counts.get(summand, 0) + mult * sign
    counts = {w: c for w, c in counts.items() if c != 0}
    if any(c < 0 for c in counts.values()):
        raise InvariantViolation(f"signed tensor accumulation of {mu} x {nu} went negative")
    return counts


def _fold_to_alcove(spec: AlgebraSpec, beta: Weight, level_shifted: int):
    """Fold a rho-shifted weight into the open level-K affine alcove.

    Returns (weight, sign) with sign 0 when beta is stuck to a wall
    (some label 0, or (beta, theta) = K).  Each round reduces to the
    dominant chamber by finite reflections, then reflects once about
    (beta, theta) = K.  Exact integers throughout.
    """
    theta = spec.highest_root
    current = tuple(beta)
    sign = 1
    for _ in range(_FOLD_LIMIT):
        current, finite_sign = reflect_to_dominant(spec, current)
        if finite_sign == 0:
            return None, 0
        sign *= finite_sign
        height = level_pairing(spec, current)
        if height == level_shifted:
            return None, 0
        if height < level_shifted:
            return current, sign
        current = tuple(b + (level_shifted - height) * t for b, t in zip(current, theta))
        sign = -sign
    raise InvariantViolation(f"alcove folding did not terminate for {beta}")


def fuse_level_k(spec: AlgebraSpec, mu: Weight, nu: Weight, k: int) -> dict:
    """Level-k fusion coefficients by folding the tensor decomposition."""
    mu, nu = tuple(mu), tuple(nu)
    for lam in (mu, nu):
        if not is_integrable(spec, lam, k):
            raise ValueError(f"{lam} is not integrable at level {k}")
    return dict(_fuse_cached(spec, mu, nu, k))


@lru_cache(maxsize=4096)
def _fuse_cached(spec: AlgebraSpec, mu: Weight, nu: Weight, k: int):
    level_shifted = k + spec.dual_coxeter
    counts: dict[Weight, int] = {}
    for summand, mult in tensor_decompose(spec, mu, nu).items():
        folded, sign = _fold_to_alcove(
            spec, tuple(s + 1 for s in summand), level_shifted
        )
        if sign == 0:
            continue
        target = tuple(f - 1 for f in folded)
        counts[target] = counts.get(target, 0) + mult * sign
    counts = {w: c for w, c in counts.items() if c != 0}
    if any(c < 0 for c in counts.values()):
        raise InvariantViolation(f"folded accumulation of {mu} x {nu} at k={k} went negative")
    if not all(is_integrable(spec, w, k) for w in counts):
        raise InvariantViolation(f"folding {mu} x {nu} at k={k} left the level-k alcove")
    return tuple(sorted(counts.items()))


def level_k_weights(spec: AlgebraSpec, k: int) -> list:
    """All dominant weights integrable at level k, in lexicographic order."""
    if k < 0:
        raise ValueError("level must be nonnegative")
    bounds = comarks(spec)
    found = []
    for labels in product(*(range(k // b + 1) for b in bounds)):
        if sum(l * b for l, b in zip(labels, bounds)) <= k:
            found.append(labels)
    return sorted(found)


@lru_cache(maxsize=64)
def _s_matrix(spec: AlgebraSpec, k: int):
    """Rows of the numeric S matrix over integrable weights, unit-normalized.

    Row alpha is sum_w (-1)^w exp(-2 pi i (w(alpha+rho), beta+rho)/K), summed
    over the signed orbit of alpha+rho by the phase kernel of G; the minus
    sign is the kernel's phase at the point -(beta+rho).  Any overall scalar
    drops out of the Verlinde ratio, so rows are normalized numerically
    instead of carrying the closed-form lattice-volume prefactor.
    """
    weights = level_k_weights(spec, k)
    kernel = phase_kernel(spec.quad_form, k + spec.dual_coxeter)
    points = [tuple(-b - 1 for b in beta) for beta in weights]
    rows = []
    for alpha in weights:
        images, signs = signed_orbit_array(spec, tuple(a + 1 for a in alpha))
        row = phase_sums(kernel, images, signs, points)
        row /= np.linalg.norm(row)
        rows.append(tuple(complex(x) for x in row))
    return tuple(weights), tuple(rows)


def verlinde_N(spec: AlgebraSpec, mu: Weight, nu: Weight, lam: Weight, k: int) -> int:
    """Independent fusion-coefficient oracle via the S-matrix ratio
    sum_sigma S_{mu sigma} S_{nu sigma} S*_{lam sigma} / S_{0 sigma}."""
    for w in (mu, nu, lam):
        if not is_integrable(spec, w, k):
            raise ValueError(f"{tuple(w)} is not integrable at level {k}")
    weights, rows = _s_matrix(spec, k)
    index = {w: i for i, w in enumerate(weights)}
    vacuum = rows[index[(0,) * spec.rank]]
    row_mu, row_nu, row_lam = (rows[index[tuple(w)]] for w in (mu, nu, lam))
    total = sum(
        row_mu[s] * row_nu[s] * row_lam[s].conjugate() / vacuum[s]
        for s in range(len(weights))
    )
    nearest = round(total.real)
    residual = abs(total - nearest)
    if residual > 1e-6:
        raise OracleMismatchError(
            f"Verlinde ratio {total} for N_{{{mu},{nu}}}^{lam} at k={k} "
            f"is {residual:.2e} from an integer"
        )
    return nearest


def verlinde_table(spec: AlgebraSpec, mu: Weight, nu: Weight, k: int) -> dict:
    """Full fusion row of the oracle: lam -> N for every integrable lam."""
    table = {}
    for lam in level_k_weights(spec, k):
        n = verlinde_N(spec, mu, nu, lam, k)
        if n:
            table[lam] = n
    return table
