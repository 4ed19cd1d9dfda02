"""Exact Cartan data and Weyl-group operations for the simple Lie algebras.

Weights are tuples of integer Dynkin labels throughout.  With the Cartan
convention C[i][j] = 2(alpha_i, alpha_j)/(alpha_j, alpha_j), the simple root
alpha_i written in Dynkin labels is row i of C, so every reflection is
integer-exact.  The symmetric quadratic form G = C^-1 diag((alpha_i,alpha_i)/2)
pairs weights; long roots are normalized to squared length 2, hence G = C^-1
exactly for the simply-laced series.  Every exact pairing is an integer
numerator over D, the lcm of the denominators of G: (lam, mu) =
lam^T (D G) mu / D with D G integral (integer_gram, pairing_numerator).

No floating point is used anywhere in this module: wall detection (the sign-0
case of reflect_to_dominant) has to be exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import CapExceeded, DEFAULT_CAPS, InvariantViolation

Weight = tuple  # integer Dynkin labels

_DUAL_COXETER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n - 1,
    "C": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
    "E": {6: 12, 7: 18, 8: 30},
    "F": {4: 9},
    "G": {2: 4},
}

_WEYL_ORDER = {
    "A": lambda n: math.factorial(n + 1),
    "B": lambda n: 2**n * math.factorial(n),
    "C": lambda n: 2**n * math.factorial(n),
    "D": lambda n: 2 ** (n - 1) * math.factorial(n),
    "E": {6: 51840, 7: 2903040, 8: 696729600},
    "F": {4: 1152},
    "G": {2: 12},
}

_VALID_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 3,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


@dataclass(frozen=True)
class AlgebraSpec:
    """Immutable description of a simple Lie algebra.

    Attributes
    ----------
    cartan : rank x rank tuple of integer rows; row i is the simple root
        alpha_i in Dynkin labels.
    quad_form : rank x rank tuple of Fraction rows; (lam, mu) = lam^T G mu.
    rho : the Weyl vector, all Dynkin labels 1.
    dual_coxeter : the level shift c appearing in k + c.
    highest_root : Dynkin labels of the highest root theta.
    weyl_order : |W| from the standard closed forms.
    """

    series: str
    rank: int
    cartan: tuple
    quad_form: tuple
    rho: tuple
    dual_coxeter: int
    highest_root: tuple
    weyl_order: int

    def __hash__(self) -> int:
        # every other field is a function of (series, rank)
        return hash((self.series, self.rank))

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def _chain_cartan(rank: int) -> list[list[int]]:
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        c[i][i + 1] = -1
        c[i + 1][i] = -1
    return c


def _cartan_and_halfnorms(series: str, rank: int):
    """Cartan matrix and the half squared lengths d_i = (alpha_i,alpha_i)/2."""
    one = Fraction(1)
    half = Fraction(1, 2)
    c = _chain_cartan(rank)
    d = [one] * rank
    if series == "B":
        c[rank - 2][rank - 1] = -2  # last root short
        d[rank - 1] = half
    elif series == "C":
        c[rank - 1][rank - 2] = -2  # last root long, the rest short
        d = [half] * (rank - 1) + [one]
    elif series == "D":
        c[rank - 2][rank - 1] = c[rank - 1][rank - 2] = 0
        c[rank - 3][rank - 1] = c[rank - 1][rank - 3] = -1
    elif series == "E":
        c[rank - 2][rank - 1] = c[rank - 1][rank - 2] = 0
        c[rank - 4][rank - 1] = c[rank - 1][rank - 4] = -1
    elif series == "F":
        c = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
        d = [one, one, half, half]
    elif series == "G":
        c = [[2, -3], [-1, 2]]
        d = [one, Fraction(1, 3)]
    return tuple(tuple(row) for row in c), tuple(d)


def _gauss_jordan(rows):
    """Exact Gauss-Jordan elimination of a square integer/rational matrix:
    (det, inverse) as Fractions, with inverse None when det = 0."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = -det
        scale = aug[col][col]
        det *= scale
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return det, tuple(tuple(row[n:]) for row in aug)


def build_algebra(series: str, rank: int) -> AlgebraSpec:
    """Construct the Cartan data for a valid (series, rank) pair.

    Supported: A_n (n>=1), B_n (n>=2), C_n (n>=3), D_n (n>=4), E6/E7/E8,
    F4, G2.  Anything else is rejected.
    """
    series = series.upper()
    if series not in _VALID_RANKS or not isinstance(rank, int) or not _VALID_RANKS[series](rank):
        raise ValueError(f"not a simple Lie algebra: {series}{rank}")
    cartan, halfnorms = _cartan_and_halfnorms(series, rank)
    inv = _cartan_inverse_cached(cartan)
    quad_form = tuple(tuple(inv[i][j] * halfnorms[j] for j in range(rank)) for i in range(rank))

    entry = _DUAL_COXETER[series]
    dual_coxeter = entry(rank) if callable(entry) else entry[rank]
    entry = _WEYL_ORDER[series]
    weyl_order = entry(rank) if callable(entry) else entry[rank]

    roots = _positive_roots_from_cartan(cartan)
    theta = max(roots, key=lambda r: _coefficient_height(cartan, r))

    return AlgebraSpec(
        series=series,
        rank=rank,
        cartan=cartan,
        quad_form=quad_form,
        rho=(1,) * rank,
        dual_coxeter=dual_coxeter,
        highest_root=theta,
        weyl_order=weyl_order,
    )


def cartan_inverse(spec: AlgebraSpec) -> tuple:
    return _cartan_inverse_cached(spec.cartan)


@lru_cache(maxsize=None)
def _cartan_inverse_cached(cartan):
    return _gauss_jordan(cartan)[1]


@lru_cache(maxsize=None)
def integer_gram(spec: AlgebraSpec):
    """(D, D G) with D the lcm of the denominators of the quadratic form G,
    so that (x, y) = x^T (D G) y / D with an integral matrix D G."""
    d = math.lcm(*(x.denominator for row in spec.quad_form for x in row))
    return d, tuple(tuple(int(x * d) for x in row) for row in spec.quad_form)


def pairing_numerator(spec: AlgebraSpec, lam: Weight, mu: Weight) -> int:
    """lam^T (D G) mu in Python ints, so (lam, mu) = result / D exactly."""
    if len(lam) != spec.rank or len(mu) != spec.rank:
        raise ValueError(f"weight length does not match rank {spec.rank}")
    _, dg = integer_gram(spec)
    return sum(li * sum(g * mj for g, mj in zip(row, mu)) for li, row in zip(lam, dg) if li)


def inner_product(spec: AlgebraSpec, lam: Weight, mu: Weight) -> Fraction:
    """Exact symmetric pairing lam^T G mu of two weights."""
    return Fraction(pairing_numerator(spec, lam, mu), integer_gram(spec)[0])


@lru_cache(maxsize=None)
def _theta_row(spec: AlgebraSpec):
    """(D, (D G) theta), so (lam, theta) = lam . row / D."""
    d, dg = integer_gram(spec)
    return d, tuple(sum(g * t for g, t in zip(row, spec.highest_root)) for row in dg)


def simple_reflection(spec: AlgebraSpec, i: int, lam: Weight) -> Weight:
    """Reflection in the i-th simple root (1-based), lam - lam_i * alpha_i."""
    if not 1 <= i <= spec.rank:
        raise ValueError(f"reflection index {i} out of range 1..{spec.rank}")
    coeff = lam[i - 1]
    if coeff == 0:
        return tuple(lam)
    alpha = spec.cartan[i - 1]
    return tuple(l - coeff * a for l, a in zip(lam, alpha))


class SignedDominant(NamedTuple):
    weight: Weight | None
    sign: int


def reflect_to_dominant(spec: AlgebraSpec, beta: Weight) -> SignedDominant:
    """Reduce beta to the dominant chamber, tracking the reflection parity.

    Always reflects at the lowest-index negative label, so the sign of a
    given input is reproducible.  A zero label at any stage means beta is
    fixed by a reflection and the result is (None, 0).
    """
    current = tuple(beta)
    sign = 1
    while True:
        if 0 in current:
            return SignedDominant(None, 0)
        negative = next((idx for idx, label in enumerate(current) if label < 0), None)
        if negative is None:
            return SignedDominant(current, sign)
        current = simple_reflection(spec, negative + 1, current)
        sign = -sign


def dominant_conjugate(spec: AlgebraSpec, lam: Weight) -> Weight:
    """The unique dominant weight in the Weyl orbit of lam (no sign, walls ok)."""
    current = tuple(lam)
    while True:
        negative = next((idx for idx, label in enumerate(current) if label < 0), None)
        if negative is None:
            return current
        current = simple_reflection(spec, negative + 1, current)


def _check_weyl_order(spec: AlgebraSpec, cap: int | None = None):
    """Raise CapExceeded when |W| is above the Weyl-order cap."""
    cap = DEFAULT_CAPS.weyl_order if cap is None else cap
    if spec.weyl_order > cap:
        raise CapExceeded(
            f"Weyl group of {spec} has {spec.weyl_order} elements (cap {cap})",
            required=spec.weyl_order,
        )


def weyl_orbit(spec: AlgebraSpec, lam: Weight, cap: int | None = None):
    """Signed Weyl orbit of lam: closure of (lam, +1) under simple reflections.

    Each element carries the parity of a word reaching it.  For regular lam
    the orbit has one entry per image; a lam fixed by some reflection shows
    up with both parities (callers detect stabilizers that way).
    """
    _check_weyl_order(spec, cap)
    start = (tuple(lam), 1)
    seen = {start}
    order = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for weight, sign in frontier:
            for i in range(1, spec.rank + 1):
                image = (simple_reflection(spec, i, weight), -sign)
                if image not in seen:
                    seen.add(image)
                    order.append(image)
                    nxt.append(image)
        frontier = nxt
    return order


def weyl_elements(spec: AlgebraSpec, cap: int | None = None):
    """All Weyl group elements as words in simple reflections (1-based).

    Words come from a breadth-first walk of the orbit of rho, so they are
    reduced and their length parity is (-1)^w.
    """
    _check_weyl_order(spec, cap)
    return _weyl_elements_cached(spec)


@lru_cache(maxsize=None)
def _weyl_elements_cached(spec: AlgebraSpec):
    seen = {spec.rho: ()}
    frontier = [spec.rho]
    words = [()]
    while frontier:
        nxt = []
        for image in frontier:
            word = seen[image]
            for i in range(1, spec.rank + 1):
                reflected = simple_reflection(spec, i, image)
                if reflected not in seen:
                    # new = s_i o old, applied right-to-left by apply_word
                    seen[reflected] = (i,) + word
                    words.append((i,) + word)
                    nxt.append(reflected)
        frontier = nxt
    if len(words) != spec.weyl_order:
        raise InvariantViolation(f"found {len(words)} Weyl elements of {spec}, "
                                 f"expected {spec.weyl_order}")
    return tuple(words)


def apply_word(spec: AlgebraSpec, word, lam: Weight) -> Weight:
    """Apply a reflection word (rightmost factor first) to a weight."""
    current = tuple(lam)
    for i in reversed(word):
        current = simple_reflection(spec, i, current)
    return current


def word_sign(word) -> int:
    return -1 if len(word) % 2 else 1


def positive_roots(spec: AlgebraSpec):
    """All positive roots in Dynkin labels, found by closing the simple roots
    under root-string addition; ordered by height then lexicographically."""
    return _positive_roots_from_cartan(spec.cartan)


@lru_cache(maxsize=None)
def _positive_roots_from_cartan(cartan):
    simple = [tuple(row) for row in cartan]
    height = {root: 1 for root in simple}
    frontier = list(simple)
    while frontier:
        nxt = []
        for beta in frontier:
            for i, alpha in enumerate(simple):
                down = 0
                probe = tuple(b - a for b, a in zip(beta, alpha))
                while probe in height:
                    down += 1
                    probe = tuple(p - a for p, a in zip(probe, alpha))
                if down - beta[i] >= 1:  # the string continues upward
                    above = tuple(b + a for b, a in zip(beta, alpha))
                    if above not in height:
                        height[above] = height[beta] + 1
                        nxt.append(above)
        frontier = nxt
    return tuple(sorted(height, key=lambda r: (height[r], r)))


def _coefficient_height(cartan, root) -> int:
    """Sum of the simple-root coefficients of a root given in Dynkin labels."""
    inv = _cartan_inverse_cached(cartan)
    rank = len(cartan)
    total = sum(sum(inv[j][i] * root[j] for j in range(rank)) for i in range(rank))
    if total.denominator != 1:
        raise InvariantViolation(f"{root} has a non-integral height {total}")
    return int(total)


def cartan_determinant(spec: AlgebraSpec) -> int:
    """det C, exactly; equals the index of the root lattice in the weight
    lattice."""
    det, _ = _gauss_jordan(spec.cartan)
    if det.denominator != 1:
        raise InvariantViolation(f"det C = {det} of {spec} is not an integer")
    return int(det)


def comarks(spec: AlgebraSpec) -> tuple:
    """(omega_i, theta) for each fundamental weight; these are the integers
    bounding Dynkin labels of level-k integrable weights."""
    d, row = _theta_row(spec)
    values = []
    for numerator in row:
        value, remainder = divmod(numerator, d)
        if remainder or value <= 0:
            raise InvariantViolation(f"comark {numerator}/{d} of {spec} is not a positive integer")
        values.append(value)
    return tuple(values)
