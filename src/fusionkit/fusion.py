"""Tensor products, level-k fusion by alcove folding, and a Verlinde-style
S-matrix oracle.

Tensor decomposition is the signed reflection algorithm: form the rho-shifted
weights beta = nu + mu' + rho over the weights mu' of V(mu) (_shifted_terms,
also read by identity), reduce each to the dominant chamber with parity, and
accumulate.  Level-k fusion (Kac-Walton) folds each beta into the level-(k+c)
affine alcove, alternating finite reflections (negative labels) with the
affine reflection about (beta, theta) = k + c; anything landing on a wall is
discarded.  The fold depends on beta alone, so it is memoised per (spec, K)
under an integer key, shared by every pair at the level, and read one row of
nu per mu.  All of that is exact integer arithmetic, and require_integrable
is the one guard on level-k input.  The
independent oracle builds the S matrix numerically from alternating Weyl
sums and evaluates the standard ratio; a rounding guard turns silent drift
into a loud error.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

from .algebra import (
    AlgebraSpec,
    Weight,
    comarks,
    reflect_to_dominant,
    require_rank,
    signed_orbit,
)
from .errors import InvariantViolation, OracleMismatchError, check_cap
from .weights import _weight_system_cached, weyl_dimension

_FOLD_LIMIT = 10_000

#: rho-shifted weights kept per (spec, K) fold memo; past it folds are not kept
_FOLD_MEMO_ENTRIES = 1 << 14


def level_pairing(spec: AlgebraSpec, lam: Weight) -> int:
    """(lam, theta) over the comarks: the level where lam becomes integrable."""
    require_rank(spec, lam)
    return sum(l * a for l, a in zip(lam, comarks(spec)))


def is_integrable(spec: AlgebraSpec, lam: Weight, k: int) -> bool:
    return level_pairing(spec, lam) <= k and all(label >= 0 for label in lam)


def require_integrable(spec: AlgebraSpec, k: int, *weights) -> None:
    """Raise ValueError unless every weight is integrable at level k."""
    for lam in weights:
        if not is_integrable(spec, lam, k):
            raise ValueError(f"{tuple(lam)} is not integrable at level {k}")


def _shifted_terms(spec: AlgebraSpec, mu: Weight, nu: Weight) -> list:
    """(nu + mu' + rho, m) over the weights mu' of V(mu), in weight-system
    order, read from the cached weight system under weight_system's dim cap."""
    mu = tuple(mu)
    check_cap("dim", weyl_dimension(spec, mu), mu)
    return [(tuple([n + m + 1 for n, m in zip(nu, mu_prime)]), mult)
            for mu_prime, mult in _weight_system_cached(spec, mu)]


def tensor_decompose(spec: AlgebraSpec, mu: Weight, nu: Weight) -> dict:
    """Decompose mu (x) nu into irreducibles at algebra level (k = infinity).

    Returns a map dominant weight -> multiplicity.  The signed accumulation
    must come out nonnegative; a negative count raises InvariantViolation.
    """
    mu, nu = tuple(mu), tuple(nu)
    require_rank(spec, mu, nu)
    counts: dict[Weight, int] = {}
    for shifted, mult in _shifted_terms(spec, mu, nu):
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
    """Level-k fusion coefficients of mu (x) nu: fuse_level_k_rows on [nu]."""
    return fuse_level_k_rows(spec, mu, [nu], k)[0]


def fuse_level_k_rows(spec: AlgebraSpec, mu: Weight, nus, k: int) -> list:
    """One level-k fusion table per nu in nus: fold every rho-shifted weight
    nu + mu' + rho of mu (x) nu into the level-(k+c) alcove and accumulate
    the signs, with the finite (tensor) accumulation as a check.  The guards
    run once per weight, before the memo; V(mu) is read once, and each term
    finds its fold entry by its key, nu's code plus that of mu' + rho."""
    mu, nus = tuple(mu), [tuple(nu) for nu in nus]
    require_integrable(spec, k, mu, *nus)
    check_cap("dim", weyl_dimension(spec, mu), mu)  # the fold memo holds V(mu)
    level_shifted = k + spec.dual_coxeter
    memo = _fold_memo(spec, level_shifted)
    # digits label + 4K lie in [0, 8K): integrable nu has labels in [0, k], and
    # a weight of V(mu) has labels in [-3k, 3k] (|(mu', a^v)| <= 3 (mu, theta))
    base, offset = 8 * level_shifted, 4 * level_shifted
    powers = [base ** i for i in range(spec.rank)]
    terms = []
    for mu_prime, mult in _weight_system_cached(spec, mu):
        shift = tuple([m + 1 for m in mu_prime])
        if min(shift) < -offset or max(shift) + k >= offset:
            raise InvariantViolation(f"weight {mu_prime} of {mu} lies outside the fold key range")
        terms.append((sum((s + offset) * p for s, p in zip(shift, powers)), mult, shift))
    tables = []
    for nu in nus:
        code = sum(n * p for n, p in zip(nu, powers))
        finite, counts = {}, {}  # dominant weight -> signed count, before and after folding
        for shift_code, mult, shift in terms:
            entry = memo.get(code + shift_code)
            if entry is None:
                beta = tuple([n + s for n, s in zip(nu, shift)])
                entry = _fold_entry(spec, beta, k, memo, code + shift_code)
            summand, sign, target, folded_sign = entry
            if sign:
                finite[summand] = finite.get(summand, 0) + mult * sign
            if folded_sign:
                counts[target] = counts.get(target, 0) + mult * folded_sign
        if any(c < 0 for c in finite.values()):
            raise InvariantViolation(f"signed tensor accumulation of {mu} x {nu} went negative")
        counts = {w: c for w, c in sorted(counts.items()) if c != 0}
        if any(c < 0 for c in counts.values()):
            raise InvariantViolation(f"folded accumulation of {mu} x {nu} at k={k} went negative")
        tables.append(counts)
    return tables


@lru_cache(maxsize=4)
def _fold_memo(spec: AlgebraSpec, level_shifted: int) -> dict:
    """key -> _fold_entry(beta) at K = level_shifted, up to _FOLD_MEMO_ENTRIES."""
    return {}


def _fold_entry(spec: AlgebraSpec, beta: Weight, k: int, memo: dict, key: int) -> tuple:
    """(tensor summand, its sign, level-k summand, its sign) of one rho-shifted
    weight, signs 0 on a wall: the finite reduction of beta, then the alcove
    fold of that.  Kept in memo under key while it has room."""
    reduced, sign = reflect_to_dominant(spec, beta)
    if sign == 0:
        entry = (None, 0, None, 0)
    else:
        folded, affine_sign = _fold_to_alcove(spec, reduced, k + spec.dual_coxeter)
        target = None if affine_sign == 0 else tuple(f - 1 for f in folded)
        if target is not None and not is_integrable(spec, target, k):
            raise InvariantViolation(f"folding {beta} at k={k} left the level-k alcove")
        entry = (tuple(r - 1 for r in reduced), sign, target, sign * affine_sign)
    if len(memo) < _FOLD_MEMO_ENTRIES:
        memo[key] = entry
    return entry


def level_k_weights(spec: AlgebraSpec, k: int) -> list:
    """All dominant weights integrable at level k, in lexicographic order,
    as a fresh list."""
    if k < 0:
        raise ValueError("level must be nonnegative")
    return list(_level_k_weights(spec, k))


@lru_cache(maxsize=64)
def _level_k_weights(spec: AlgebraSpec, k: int) -> tuple:
    bounds = comarks(spec)
    found = []
    for labels in product(*(range(k // b + 1) for b in bounds)):
        if sum(l * b for l, b in zip(labels, bounds)) <= k:
            found.append(labels)
    return tuple(sorted(found))


@lru_cache(maxsize=64)
def _s_matrix(spec: AlgebraSpec, k: int):
    """Rows of the numeric S matrix over integrable weights, unit-normalized.

    Row alpha is sum_w (-1)^w exp(-2 pi i (w(alpha+rho), beta+rho)/K), summed
    over the signed orbit of alpha+rho by the phase kernel of G; the minus
    sign is the kernel's phase at the point -(beta+rho).  Any overall scalar
    drops out of the Verlinde ratio, so rows are normalized numerically
    instead of carrying the closed-form lattice-volume prefactor.
    """
    from .characters import phase_kernel, phase_sums

    weights = level_k_weights(spec, k)
    kernel = phase_kernel(spec.quad_form, k + spec.dual_coxeter)
    points = [tuple(-b - 1 for b in beta) for beta in weights]
    rows = []
    for alpha in weights:
        images, signs, _ = signed_orbit(spec, tuple(a + 1 for a in alpha))
        row = phase_sums(kernel, images, signs, points)
        norm = math.hypot(*(part for x in row for part in (x.real, x.imag)))
        rows.append(tuple(x / norm for x in row))
    return tuple(weights), tuple(rows)


def verlinde_table(spec: AlgebraSpec, mu: Weight, nu: Weight, k: int) -> dict:
    """Full fusion row of the independent oracle: lam -> N for every
    integrable lam, by the S-matrix ratio
    sum_sigma S_{mu sigma} S_{nu sigma} S*_{lam sigma} / S_{0 sigma}."""
    weights = level_k_weights(spec, k)
    require_integrable(spec, k, mu, nu)
    check_cap("weyl_order", spec.weyl_order, spec)  # the cached S matrix sums signed orbits
    _, rows = _s_matrix(spec, k)
    vacuum, row_mu, row_nu = (rows[weights.index(tuple(w))] for w in ((0,) * spec.rank, mu, nu))
    # t_sigma = S_{mu sigma} S_{nu sigma} / S_{0 sigma} does not depend on lam
    t = [a * b / v for a, b, v in zip(row_mu, row_nu, vacuum)]
    table = {}
    for lam, row_lam in zip(weights, rows):
        total = sum(t_sigma * s.conjugate() for t_sigma, s in zip(t, row_lam))
        nearest = round(total.real)
        residual = abs(total - nearest)
        if residual > 1e-6:
            raise OracleMismatchError(
                f"Verlinde ratio {total} for N_{{{mu},{nu}}}^{lam} at k={k} "
                f"is {residual:.2e} from an integer"
            )
        if nearest:
            table[lam] = nearest
    return table
