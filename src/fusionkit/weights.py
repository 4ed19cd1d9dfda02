"""Weight systems of irreducible highest-weight representations.

The full multiset of weights is built by walking root strings down from the
highest weight; multiplicities come from the Freudenthal recursion evaluated
at the dominant weights only (multiplicity is Weyl-invariant), then spread
over the Weyl orbits.  Every pairing is an integer numerator over the common
denominator D of the quadratic form; each formula divides once, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .algebra import (
    AlgebraSpec,
    Weight,
    _coefficient_height,
    dominant_conjugate,
    integer_gram,
    pairing_numerator,
    positive_roots,
)
from .errors import CapExceeded, DEFAULT_CAPS, InvariantViolation


@dataclass
class WeightSystem:
    """Weights of one irreducible representation with multiplicities.

    ``entries`` maps each weight (Dynkin labels) to its positive integer
    multiplicity; the highest weight always carries multiplicity 1.
    """

    spec: AlgebraSpec
    highest: Weight
    entries: dict = field(repr=False)

    def __post_init__(self):
        if self.entries.get(self.highest) != 1:
            raise InvariantViolation(f"highest weight {self.highest} does not have multiplicity 1")


def weyl_dimension(spec: AlgebraSpec, mu: Weight) -> int:
    """Dimension of the irreducible representation mu by the Weyl product
    formula over positive roots; exact."""
    mu = tuple(mu)
    if any(label < 0 for label in mu):
        raise ValueError(f"{mu} is not dominant")
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


def weight_system(spec: AlgebraSpec, mu: Weight, dim_cap: int | None = None) -> WeightSystem:
    """Compute the weight system of the irreducible representation mu.

    Raises CapExceeded (via the Weyl dimension formula, before any heavy
    work) when the representation is larger than the configured cap.
    """
    mu = tuple(mu)
    if len(mu) != spec.rank:
        raise ValueError(f"weight length does not match rank {spec.rank}")
    if any(label < 0 for label in mu):
        raise ValueError(f"{mu} is not dominant")
    cap = DEFAULT_CAPS.dim if dim_cap is None else dim_cap
    dim = weyl_dimension(spec, mu)
    if dim > cap:
        raise CapExceeded(f"dim({mu}) = {dim} exceeds cap {cap}", required=dim)
    entries = dict(_weight_system_cached(spec, mu))
    ws = WeightSystem(spec=spec, highest=mu, entries=entries)
    if sum(entries.values()) != dim:
        raise InvariantViolation(f"multiplicities of {mu} add up to {sum(entries.values())}, "
                                 f"not the Weyl dimension {dim}")
    return ws


@lru_cache(maxsize=512)
def _weight_system_cached(spec: AlgebraSpec, mu: Weight):
    members = _weight_set(spec, mu)
    mults = _dominant_multiplicities(spec, mu, members)
    return tuple((w, mults[dominant_conjugate(spec, w)]) for w in sorted(members))


def _weight_set(spec: AlgebraSpec, mu: Weight):
    """The saturated set of weights of V(mu), walked by root strings:
    lam - alpha_i belongs whenever (steps up along alpha_i) + lam_i >= 1."""
    simple = spec.cartan
    members = {mu}
    frontier = [mu]
    while frontier:
        nxt = []
        for lam in frontier:
            for i in range(spec.rank):
                alpha = simple[i]
                up = 0
                probe = tuple(l + a for l, a in zip(lam, alpha))
                while probe in members:
                    up += 1
                    probe = tuple(p + a for p, a in zip(probe, alpha))
                if up + lam[i] >= 1:
                    below = tuple(l - a for l, a in zip(lam, alpha))
                    if below not in members:
                        members.add(below)
                        nxt.append(below)
        frontier = nxt
    return members

def _depth(spec: AlgebraSpec, mu: Weight, lam: Weight) -> int:
    """Height of mu - lam in simple-root coordinates."""
    return _coefficient_height(spec.cartan, tuple(m - l for m, l in zip(mu, lam)))


def _dominant_multiplicities(spec: AlgebraSpec, mu: Weight, members):
    """Freudenthal recursion on the dominant weights, top down:

        ((mu+rho)^2 - (lam+rho)^2) m_lam = 2 sum_{alpha>0} sum_{j>=1}
                                             m_{lam+j alpha} (lam+j alpha, alpha)
    """
    mu_rho = tuple(m + 1 for m in mu)
    norm_top = pairing_numerator(spec, mu_rho, mu_rho)
    # (alpha, (D G) alpha, D (alpha, alpha)) per positive root
    roots = [(alpha, row, sum(a * r for a, r in zip(alpha, row)))
             for alpha, row in zip(positive_roots(spec), _root_rows(spec))]

    dominant = sorted(
        (w for w in members if all(label >= 0 for label in w)),
        key=lambda w: _depth(spec, mu, w),
    )
    mults: dict[Weight, int] = {}
    for lam in dominant:
        if lam == mu:
            mults[lam] = 1
            continue
        lam_rho = tuple(l + 1 for l in lam)
        # both sides are numerators over D, which cancels in the ratio
        denominator = norm_top - pairing_numerator(spec, lam_rho, lam_rho)
        if denominator <= 0:
            raise InvariantViolation(f"Freudenthal denominator {denominator}/D at {lam} in {mu}")
        acc = 0
        for alpha, row, step in roots:
            base = sum(l * r for l, r in zip(lam, row))
            j = 1
            shifted = tuple(l + j * a for l, a in zip(lam, alpha))
            while shifted in members:
                acc += mults[dominant_conjugate(spec, shifted)] * (base + j * step)
                j += 1
                shifted = tuple(l + j * a for l, a in zip(lam, alpha))
        value, remainder = divmod(2 * acc, denominator)
        if remainder or value <= 0:
            raise InvariantViolation(f"multiplicity {2 * acc}/{denominator} of {lam} in {mu} "
                                     f"is not a positive integer")
        mults[lam] = value
    return mults


def dimension(ws: WeightSystem) -> int:
    """Sum of multiplicities = dim of the representation."""
    return sum(ws.entries.values())


def mult_sum_squares(ws: WeightSystem) -> int:
    """Sum of squared multiplicities over the weight system."""
    return sum(m * m for m in ws.entries.values())


def conjugate(spec: AlgebraSpec, mu: Weight) -> Weight:
    """Highest weight of the conjugate representation, -w0(mu)."""
    if any(label < 0 for label in mu):
        raise ValueError(f"{mu} is not dominant")
    return dominant_conjugate(spec, tuple(-m for m in mu))
