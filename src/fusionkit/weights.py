"""Weight systems of irreducible highest-weight representations.

Only the dominant weights of V(mu) are found directly, by descending from mu
along positive roots inside the dominant chamber.  The Freudenthal recursion
runs on them alone (multiplicity is Weyl-invariant; Moody-Patera 1982), and
every other weight is an image in the orbit walk of one of them
(algebra._walk), carrying its multiplicity.  Every pairing is an integer
numerator over the common denominator D of the quadratic form; each formula
divides once, exactly.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, sub
from typing import NamedTuple

from .algebra import (
    AlgebraSpec,
    Weight,
    _reduce,
    _walk,
    dominant_conjugate,
    integer_gram,
    pairing_numerator,
    positive_roots,
    require_dominant,
)
from .errors import CheckedTuple, InvariantViolation, check_cap


class WeightSystem(CheckedTuple, NamedTuple("WeightSystem", [
        ("spec", AlgebraSpec), ("highest", Weight), ("entries", dict)])):
    """Weights of one irreducible representation with multiplicities.

    ``entries`` maps each weight (Dynkin labels) to its positive integer
    multiplicity; the highest weight always carries multiplicity 1.
    """

    __slots__ = ()

    def __new__(cls, spec: AlgebraSpec, highest: Weight, entries: dict):
        if entries.get(highest) != 1:
            raise InvariantViolation(f"highest weight {highest} does not have multiplicity 1")
        return super().__new__(cls, spec, highest, entries)

    def __repr__(self) -> str:
        # entries, one per weight, is left out
        return f"WeightSystem(spec={self.spec!r}, highest={self.highest!r})"


def weyl_dimension(spec: AlgebraSpec, mu: Weight) -> int:
    """Dimension of the irreducible representation mu by the Weyl product
    formula over positive roots; exact."""
    mu = tuple(mu)
    require_dominant(spec, mu)
    return _weyl_dimension_cached(spec, mu)


@lru_cache(maxsize=4096)
def _weyl_dimension_cached(spec: AlgebraSpec, mu: Weight) -> int:
    # prod (mu+rho, alpha) / prod (rho, alpha); the factors D cancel
    numerator = denominator = 1
    for row in _root_rows(spec):
        numerator *= sum((m + 1) * r for m, r in zip(mu, row))
        denominator *= sum(row)
    dim, remainder = divmod(numerator, denominator)
    if remainder:
        raise InvariantViolation(f"Weyl dimension of {mu} came out as {numerator}/{denominator}")
    return dim


@lru_cache(maxsize=None)
def _root_rows(spec: AlgebraSpec) -> tuple:
    """(D G) alpha for each positive root alpha, so (lam, alpha) = lam . row / D."""
    _, dg = integer_gram(spec)
    return tuple(tuple(sum(g * a for g, a in zip(row, alpha)) for row in dg)
                 for alpha in positive_roots(spec))


def weight_system(spec: AlgebraSpec, mu: Weight) -> WeightSystem:
    """Compute the weight system of the irreducible representation mu.

    Raises CapExceeded (via the Weyl dimension formula, before any heavy
    work) when the representation is larger than the dim cap in force.
    """
    mu = tuple(mu)
    check_cap("dim", weyl_dimension(spec, mu), mu)
    return WeightSystem(spec=spec, highest=mu, entries=dict(_weight_system_cached(spec, mu)))


def square_sum(spec: AlgebraSpec, mu: Weight) -> int:
    """Sum of squared multiplicities of V(mu), cached per mu, without a
    copy of the weight system; the same dim cap check as weight_system."""
    mu = tuple(mu)
    check_cap("dim", weyl_dimension(spec, mu), mu)
    return _square_sum_cached(spec, mu)


@lru_cache(maxsize=4096)
def _square_sum_cached(spec: AlgebraSpec, mu: Weight) -> int:
    return sum(m * m for _, m in _weight_system_cached(spec, mu))


@lru_cache(maxsize=512)
def _weight_system_cached(spec: AlgebraSpec, mu: Weight):
    """(weight, multiplicity) pairs of V(mu): the Weyl orbit of each dominant
    weight, every image carrying its multiplicity; checked once against the
    Weyl dimension when built."""
    mults = _dominant_multiplicities(spec, mu, _dominant_weights(spec, mu))
    entries = tuple(sorted((w, m) for lam, m in mults.items() for w in _walk(spec, lam)[0]))
    total, dim = sum(m for _, m in entries), weyl_dimension(spec, mu)
    if total != dim:
        raise InvariantViolation(f"multiplicities of {mu} add up to {total}, "
                                 f"not the Weyl dimension {dim}")
    return entries


def _dominant_weights(spec: AlgebraSpec, mu: Weight) -> set:
    """The dominant weights of V(mu), reached from mu by subtracting positive
    roots without leaving the dominant chamber: every dominant lam < mu lies
    at or below some dominant mu - alpha, alpha > 0 (Stembridge, The partial
    order of dominant weights, 1998)."""
    roots = positive_roots(spec)
    found = {mu}
    frontier = [mu]
    while frontier:
        below = {lower for lam in frontier for alpha in roots
                 for lower in [tuple(map(sub, lam, alpha))] if min(lower) >= 0}
        frontier = below - found
        found |= frontier
    return found


def _dominant_multiplicities(spec: AlgebraSpec, mu: Weight, dominant_weights) -> dict:
    """Freudenthal recursion on the dominant weights, top down:

        ((mu+rho)^2 - (lam+rho)^2) m_lam = 2 sum_{alpha>0} sum_{j>=1}
                                             m_{lam+j alpha} (lam+j alpha, alpha)

    Dominant weights are visited by increasing denominator: for dominant
    lam below lam', (lam+rho)^2 < (lam'+rho)^2 (Humphreys, section 13.4).
    The dominant conjugate of lam + j alpha lies above lam, so its
    multiplicity is known when lam is reached, and lam + j alpha is a weight
    exactly when it has one; the alpha-string through lam is unbroken.
    """
    mu_rho = tuple(m + 1 for m in mu)
    norm_top = pairing_numerator(spec, mu_rho, mu_rho)
    # (alpha, (D G) alpha, D (alpha, alpha)) per positive root
    roots = [(alpha, row, sum(a * r for a, r in zip(alpha, row)))
             for alpha, row in zip(positive_roots(spec), _root_rows(spec))]

    # both sides are numerators over D, which cancels in the ratio
    dominant = sorted(
        (norm_top - pairing_numerator(spec, lam_rho, lam_rho), lam)
        for lam in dominant_weights for lam_rho in [tuple(l + 1 for l in lam)]
    )
    mults: dict[Weight, int] = {}
    for denominator, lam in dominant:
        if lam == mu:
            mults[lam] = 1
            continue
        if denominator <= 0:
            raise InvariantViolation(f"Freudenthal denominator {denominator}/D at {lam} in {mu}")
        acc = 0
        for alpha, row, step in roots:
            base = sum(l * r for l, r in zip(lam, row))
            j, shifted = 1, tuple(map(add, lam, alpha))
            while mult := mults.get(_reduce(spec, shifted)[0]):
                acc += mult * (base + j * step)
                j, shifted = j + 1, tuple(map(add, shifted, alpha))
        value, remainder = divmod(2 * acc, denominator)
        if remainder or value <= 0:
            raise InvariantViolation(f"multiplicity {2 * acc}/{denominator} of {lam} in {mu} "
                                     f"is not a positive integer")
        mults[lam] = value
    return mults


def conjugate(spec: AlgebraSpec, mu: Weight) -> Weight:
    """Highest weight of the conjugate representation, -w0(mu)."""
    require_dominant(spec, mu)
    return dominant_conjugate(spec, tuple(-m for m in mu))
