"""Exact Cartan data and Weyl-group operations for the simple Lie algebras.

Weights are tuples of integer Dynkin labels throughout.  With the Cartan
convention C[i][j] = 2(alpha_i, alpha_j)/(alpha_j, alpha_j), the simple root
alpha_i written in Dynkin labels is row i of C, so every reflection is
integer-exact.  The symmetric quadratic form G = C^-1 diag((alpha_i,alpha_i)/2)
pairs weights; long roots are normalized to squared length 2, hence G = C^-1
exactly for the simply-laced series.  Every exact pairing is an integer
numerator over D, the lcm of the denominators of G: (lam, mu) =
lam^T (D G) mu / D with D G integral (integer_gram, pairing_numerator).

signed_orbit is the one orbit enumerator: a level-by-level walk from the
dominant conjugate that returns every image once, its sign (-1)^w and the
order of the stabiliser.  No orbit is kept: every orbit, on a wall or off
it, replays the walk program (each image's parent and simple reflection) of
the first orbit walked with its algebra and zero labels.  No float enters
any exact decision: wall detection (a zero label of the dominant conjugate)
has to be exact.  The one float pairing, G u against integer labels
(_generic_pairing_vector), lives here too, so that characters and theta
sums share it without loading each other.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import sub
from typing import NamedTuple

from .errors import InvariantViolation, check_cap

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


_SPEC_FIELDS = ("series", "rank", "cartan", "quad_form", "rho", "dual_coxeter",
                "highest_root", "weyl_order")


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

    Equal specs agree in every field; the hash reads (series, rank), which
    fix every other field, once, since every cache of the package is keyed
    on the spec.  _replace returns a copy with some fields changed; pickle
    and copy rebuild a spec through the constructor, which hashes afresh.
    """

    __slots__ = _SPEC_FIELDS + ("_hash",)

    def __init__(self, series, rank, cartan, quad_form, rho, dual_coxeter, highest_root,
                 weyl_order):
        values = (series, rank, cartan, quad_form, rho, dual_coxeter, highest_root, weyl_order)
        for name, value in zip(self.__slots__, values + (hash((series, rank)),)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"AlgebraSpec is immutable; cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"AlgebraSpec is immutable; cannot delete {name}")

    def __reduce__(self):
        return AlgebraSpec, self._values()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in _SPEC_FIELDS)

    def _replace(self, **changes) -> AlgebraSpec:
        return AlgebraSpec(**{**dict(zip(_SPEC_FIELDS, self._values())), **changes})

    def __eq__(self, other):
        if other.__class__ is not AlgebraSpec:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"AlgebraSpec({', '.join(f'{n}={getattr(self, n)!r}' for n in _SPEC_FIELDS)})"

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


def _coroot_labels(spec: AlgebraSpec) -> tuple:
    """Dynkin labels of the simple coroots alpha_i / d_i, the rows of
    diag(1/d) C; every 1/d_i above is 1, 2 or 3, so they are integers."""
    _, halfnorms = _cartan_and_halfnorms(spec.series, spec.rank)
    return tuple(tuple(int(x / d) for x in row) for row, d in zip(spec.cartan, halfnorms))


def _gauss_jordan(rows):
    """Exact Gauss-Jordan elimination of a square integer/rational matrix:
    (det, inverse, pivots) as Fractions, the last two None when det = 0.
    pivots holds each pivot d_i with its row divided by d_i, as the forward
    pass meets them; with no row exchange (none on a Cartan matrix) they
    are the LDL^T factors of a symmetric matrix."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    det = Fraction(1)
    pivots = []
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return Fraction(0), None, None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = -det
        scale = aug[col][col]
        det *= scale
        aug[col] = [x / scale for x in aug[col]]
        pivots.append((scale, tuple(aug[col][:n])))
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return det, tuple(tuple(row[n:]) for row in aug), tuple(pivots)


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
    # positive roots come ordered by height, and theta is the unique highest
    theta = _positive_roots_from_cartan(cartan)[-1]

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


def require_rank(spec: AlgebraSpec, *weights) -> None:
    """Raise ValueError unless every weight has one label per simple root.
    Public entry points call it; their hot internal loops do not."""
    for lam in weights:
        if len(lam) != spec.rank:
            raise ValueError(f"weight length does not match rank {spec.rank}")


def require_dominant(spec: AlgebraSpec, *weights) -> None:
    """require_rank, then raise ValueError unless every label of every
    weight is nonnegative."""
    require_rank(spec, *weights)
    for lam in weights:
        if any(label < 0 for label in lam):
            raise ValueError(f"{tuple(lam)} is not dominant")


def pairing_numerator(spec: AlgebraSpec, lam: Weight, mu: Weight) -> int:
    """lam^T (D G) mu in Python ints, so (lam, mu) = result / D exactly."""
    require_rank(spec, lam, mu)
    _, dg = integer_gram(spec)
    return sum(li * sum(g * mj for g, mj in zip(row, mu)) for li, row in zip(lam, dg) if li)


TWO_PI = 2.0 * math.pi


def _generic_pairing_vector(spec: AlgebraSpec, u):
    """G u, so that (r, u) is a plain dot product against integer labels."""
    g = spec.quad_form
    return tuple(
        sum(float(g[i][j]) * u[j] for j in range(spec.rank)) for i in range(spec.rank)
    )


class SignedDominant(NamedTuple):
    weight: Weight | None
    sign: int


def _reduce(spec: AlgebraSpec, beta: Weight):
    """(dominant conjugate of beta, parity of the reduction), reflecting at
    the lowest-index negative label so the parity is reproducible."""
    cartan = spec.cartan
    current = tuple(beta)
    parity = 1
    while True:
        for idx, label in enumerate(current):
            if label < 0:
                break
        else:
            return current, parity
        # s_i(lam) = lam - lam_i alpha_i at the first negative label i
        current = tuple([l - label * a for l, a in zip(current, cartan[idx])])
        parity = -parity


def reflect_to_dominant(spec: AlgebraSpec, beta: Weight) -> SignedDominant:
    """Reduce beta to the dominant chamber, tracking the reflection parity.

    beta lies on a wall (is fixed by a reflection) exactly when its dominant
    conjugate has a zero label; the result is then (None, 0).  The rank is
    checked here; the memoised reduction behind it, _signed_dominant, is
    what the hot loops of fusion and characters call.
    """
    require_rank(spec, beta)
    return _signed_dominant(spec, tuple(beta))


@lru_cache(maxsize=1 << 15)
def _signed_dominant(spec: AlgebraSpec, beta: Weight) -> SignedDominant:
    dominant, parity = _reduce(spec, beta)
    if 0 in dominant:
        return SignedDominant(None, 0)
    return SignedDominant(dominant, parity)


def dominant_conjugate(spec: AlgebraSpec, lam: Weight) -> Weight:
    """The unique dominant weight in the Weyl orbit of lam (no sign, walls ok)."""
    require_rank(spec, lam)
    return _reduce(spec, lam)[0]


class SignedOrbit(NamedTuple):
    """The Weyl orbit of lam, each image once, with the signs (-1)^w of the
    elements reaching them and the order of the stabiliser of lam."""

    images: tuple       # weights in Dynkin labels
    signs: tuple        # +-1, one per image
    stabiliser: int     # |W| / |orbit|; > 1 exactly on a wall


def signed_orbit(spec: AlgebraSpec, lam: Weight) -> SignedOrbit:
    """The signed Weyl orbit of lam as tuples, replayed on every call; the
    Weyl-order cap is checked on every call.

    On a wall (stabiliser > 1) each image is still listed once, with the
    parity of one element reaching it; alternating sums over such an orbit
    vanish, and symmetric ones weigh each image by the stabiliser."""
    require_rank(spec, lam)
    check_cap("weyl_order", spec.weyl_order, spec)
    dominant, sign = _reduce(spec, lam)
    images, ends = _orbit(spec, dominant)
    signs, start = [], 0
    for end in ends:
        signs += [sign] * (end - start)
        start, sign = end, -sign
    stabiliser, remainder = divmod(spec.weyl_order, len(images))
    if remainder:
        raise InvariantViolation(f"orbit of {lam} in {spec} has {len(images)} images, "
                                 f"which does not divide |W| = {spec.weyl_order}")
    return SignedOrbit(tuple(images), tuple(signs), stabiliser)


#: (spec, zero labels) -> (parents, generators, level ends), the walk program of
#: one stabiliser type; at most _PROGRAM_MOVES moves kept, the oldest dropped first
_walk_programs = {}
_PROGRAM_MOVES = 1 << 23


def _orbit(spec: AlgebraSpec, dominant: Weight):
    """(images, level ends) of the level walk from a dominant weight, replayed
    from the walk program of its stabiliser type, or walked once to make it.
    A program keeps parents in array('I') and generators in array('B'), five
    bytes a move, 42 MB at the bound.

    Let J be the zero labels of dominant lam.  Label i of w lam has the sign
    of (lam, w^-1 alpha_i^vee), which depends on J only, and distinct cosets
    w W_J give distinct images w lam, so the walk's (parent, i) sequence is
    the same for every lam of type J (Bjorner-Brenti, Combinatorics of
    Coxeter Groups, 1.6 and 2.4); _replay reads it."""
    key = (spec, tuple(x == 0 for x in dominant))
    program = _walk_programs.get(key)
    if program is not None:
        return _replay(spec, dominant, *program[:2]), program[2]
    images, ends, moves = _walk(spec, dominant)
    if len(moves) <= _PROGRAM_MOVES:
        from array import array  # loaded by the first orbit, not at CLI start-up

        while sum(len(kept[0]) for kept in _walk_programs.values()) > _PROGRAM_MOVES - len(moves):
            del _walk_programs[next(iter(_walk_programs))]
        _walk_programs[key] = (array("I", [m // spec.rank for m in moves]),
                               array("B", [m % spec.rank for m in moves]), tuple(ends))
    return images, ends


def _walk(spec: AlgebraSpec, dominant: Weight):
    """(images, level ends, moves) of the level walk from a dominant weight:
    level j is images[ends[j - 1]:ends[j]], and image n > 0 is first reached
    as s_i of image p, moves[n - 1] = p * rank + i.

    s_i at a positive label lengthens the shortest element by one, so levels
    are disjoint and each is deduplicated on its own, first occurrence in
    (parent, i) order (a dict keeps a key where it was first set).  s_i
    subtracts c alpha_i, formed once per (i, c) in this walk."""
    cartan, rank = spec.cartan, spec.rank
    steps = {}
    images, ends, moves = [], [], []
    level, start = [dominant], 0
    while level:
        images += level
        ends.append(len(images))
        reflected = {}
        for n, weight in enumerate(level, start):
            for i, c in enumerate(weight):
                if c > 0:
                    step = steps.get((i, c))
                    if step is None:
                        step = steps[i, c] = [c * a for a in cartan[i]]
                    reflected.setdefault(tuple(map(sub, weight, step)), n * rank + i)
        start = len(images)
        moves += reflected.values()
        level = list(reflected)
    return images, ends, moves


def _replay(spec: AlgebraSpec, dominant: Weight, parents, generators) -> list:
    """The images of the level walk from a dominant weight, from the walk
    program of its type: each image is its parent minus c alpha_i, c the
    parent's label i, with no label scan and no deduplication."""
    cartan = spec.cartan
    steps = [{} for _ in cartan]
    images = [dominant]
    append = images.append
    for p, i in zip(parents, generators):
        parent = images[p]
        c = parent[i]
        step = steps[i].get(c)
        if step is None:
            step = steps[i][c] = [c * a for a in cartan[i]]
        append(tuple(map(sub, parent, step)))
    return images


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


@lru_cache(maxsize=None)
def comarks(spec: AlgebraSpec) -> tuple:
    """(omega_i, theta) for each fundamental weight: the integers a_i with
    (lam, theta) = sum_i lam_i a_i, which bound level-k Dynkin labels."""
    d, dg = integer_gram(spec)
    values = []
    for row in dg:
        numerator = sum(g * t for g, t in zip(row, spec.highest_root))
        value, remainder = divmod(numerator, d)
        if remainder or value <= 0:
            raise InvariantViolation(f"comark {numerator}/{d} of {spec} is not a positive integer")
        values.append(value)
    return tuple(values)
