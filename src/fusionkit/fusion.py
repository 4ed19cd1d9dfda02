"""Tensor products and level-k fusion by alcove folding.

Tensor decomposition is the signed reflection algorithm: form the rho-shifted
weights beta = nu + mu' + rho over the weights mu' of V(mu) (identity reads
them as _shifted_terms), reduce each to the dominant chamber with parity, and
accumulate.  Level-k fusion (Kac-Walton) folds each beta into the level-(k+c)
affine alcove, alternating finite reflections (negative labels) with the
affine reflection about (beta, theta) = k + c; anything landing on a wall is
discarded.  The reduction and the fold depend on beta alone, so each is
memoised under an integer key (_keyed_terms), the fold per (spec, K), and
both are read one row of nu per mu.  All of that is exact integer
arithmetic; require_dominant guards the input at k = infinity and
require_integrable at level k.  The independent Verlinde S-matrix oracle
that these tables are checked against lives in the verlinde module.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import mul

from .algebra import (
    AlgebraSpec,
    Weight,
    _signed_dominant,
    comarks,
    require_dominant,
    require_rank,
)
from .errors import InvariantViolation, check_cap
from .weights import _weight_system_cached, weyl_dimension

_FOLD_LIMIT = 10_000

#: rho-shifted weights kept per (spec, K) fold memo; past it folds are not kept
_FOLD_MEMO_ENTRIES = 1 << 14

#: rho-shifted weights kept per tensor memo; past it reductions are not kept
_TENSOR_MEMO_ENTRIES = 1 << 14

#: the least key offset of a tensor memo, so that small weights share one
_TENSOR_OFFSET = 1 << 6


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
    """Decompose mu (x) nu into irreducibles at algebra level (k = infinity):
    tensor_decompose_rows on [nu]."""
    return tensor_decompose_rows(spec, mu, [nu])[0]


def tensor_decompose_rows(spec: AlgebraSpec, mu: Weight, nus) -> list:
    """One table per nu in nus, dominant weight -> multiplicity, each summand
    where it first appears in V(mu)'s weight-system order: every rho-shifted
    weight nu + mu' + rho is reduced to the dominant chamber with parity and
    the signs accumulate.  A negative count raises InvariantViolation.

    mu and every nu must be dominant.  The guards run once per weight, before
    the memo; V(mu) is read once, and each term finds its reduction by its
    key, nu's code plus that of mu' + rho."""
    mu, nus = tuple(mu), [tuple(nu) for nu in nus]
    require_dominant(spec, mu, *nus)
    check_cap("dim", weyl_dimension(spec, mu), mu)  # the tensor memo holds V(mu)
    # labels of mu' + rho lie in [1 - 3L, 1 + 3L], L = (mu, theta) (see
    # _keyed_terms), and those of nu in [0, top]
    top = max((max(nu) for nu in nus), default=0)
    offset = max(_TENSOR_OFFSET, 1 << (3 * level_pairing(spec, mu) + top + 1).bit_length())
    powers, terms = _keyed_terms(spec, mu, offset, top, "tensor")
    memo = _tensor_memo(spec, offset)
    tables = []
    for nu in nus:
        code = sum(map(mul, nu, powers))
        counts = {}
        for shift_code, mult, shift in terms:
            entry = memo.get(code + shift_code)
            if entry is None:
                reduced, sign = _signed_dominant(spec, tuple([n + s for n, s in zip(nu, shift)]))
                entry = _keep(memo, code + shift_code, _TENSOR_MEMO_ENTRIES,
                              (reduced and tuple([r - 1 for r in reduced]), sign))
            summand, sign = entry
            if sign:
                counts[summand] = counts.get(summand, 0) + mult * sign
        counts = {w: c for w, c in counts.items() if c}
        if any(c < 0 for c in counts.values()):
            raise InvariantViolation(f"signed tensor accumulation of {mu} x {nu} went negative")
        tables.append(counts)
    return tables


def _keyed_terms(spec: AlgebraSpec, mu: Weight, offset: int, top: int, kind: str) -> tuple:
    """(powers, terms): the weights mu' of V(mu), read once, as terms (key,
    multiplicity, mu' + rho), where digit i of the key in base 2 offset is
    label i of mu' + rho plus offset.  Adding the code sum(nu * powers) of a
    nu with labels in [0, top] keys nu + mu' + rho, injectively within one
    offset.  A label of mu' + rho below -offset or at offset - top or above
    raises InvariantViolation; every label of mu' lies in [-3L, 3L], L the
    level (mu, theta), since |(mu', alpha^v)| <= 2 (mu, theta) / (alpha,
    alpha) and short roots have (alpha, alpha) >= 2/3."""
    base = 2 * offset
    powers = [base ** i for i in range(spec.rank)]
    terms = []
    for mu_prime, mult in _weight_system_cached(spec, mu):
        shift = tuple([m + 1 for m in mu_prime])
        if min(shift) < -offset or max(shift) + top >= offset:
            raise InvariantViolation(f"weight {mu_prime} of {mu} lies outside the {kind} key range")
        terms.append((sum((s + offset) * p for s, p in zip(shift, powers)), mult, shift))
    return powers, terms


@lru_cache(maxsize=4)
def _tensor_memo(spec: AlgebraSpec, offset: int) -> dict:
    """key -> (tensor summand, its sign) of the rho-shifted weights keyed
    under offset (_keyed_terms), up to _TENSOR_MEMO_ENTRIES."""
    return {}


@lru_cache(maxsize=4)
def _fold_memo(spec: AlgebraSpec, level_shifted: int) -> dict:
    """key -> _fold_entry(beta) at K = level_shifted, up to _FOLD_MEMO_ENTRIES."""
    return {}


def _keep(memo: dict, key: int, entries: int, entry: tuple) -> tuple:
    """entry, kept in memo under key while the memo holds fewer than entries."""
    if len(memo) < entries:
        memo[key] = entry
    return entry


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
        current, finite_sign = _signed_dominant(spec, current)
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
    # integrable nu has labels in [0, k], and a weight of V(mu) has labels in
    # [-3k, 3k] (_keyed_terms), so the digits lie in [0, 8K)
    powers, terms = _keyed_terms(spec, mu, 4 * level_shifted, k, "fold")
    tables = []
    for nu in nus:
        code = sum(map(mul, nu, powers))
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


def _fold_entry(spec: AlgebraSpec, beta: Weight, k: int, memo: dict, key: int) -> tuple:
    """(tensor summand, its sign, level-k summand, its sign) of one rho-shifted
    weight, signs 0 on a wall: the finite reduction of beta, then the alcove
    fold of that.  Kept in memo under key while it has room."""
    reduced, sign = _signed_dominant(spec, beta)
    if sign == 0:
        entry = (None, 0, None, 0)
    else:
        folded, affine_sign = _fold_to_alcove(spec, reduced, k + spec.dual_coxeter)
        target = None if affine_sign == 0 else tuple(f - 1 for f in folded)
        if target is not None and not is_integrable(spec, target, k):
            raise InvariantViolation(f"folding {beta} at k={k} left the level-k alcove")
        entry = (tuple(r - 1 for r in reduced), sign, target, sign * affine_sign)
    return _keep(memo, key, _FOLD_MEMO_ENTRIES, entry)


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
