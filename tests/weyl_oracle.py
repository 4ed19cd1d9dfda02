"""Independent Weyl-group oracles for the tests: one simple reflection with
its range check, a breadth-first signed orbit over (weight, sign) pairs, the
level walk that signed_orbit replays, the group as reduced reflection words,
and det C.

They share nothing with algebra.signed_orbit, so the level walk is checked
against a different enumeration, and the walk-program replay against the
walk itself.  Test modules import this file as a plain module
(``from weyl_oracle import ...``); pytest puts the tests directory on
sys.path.
"""

from functools import lru_cache
from operator import sub

from fusionkit.algebra import AlgebraSpec, Weight, _gauss_jordan, integer_gram, positive_roots
from fusionkit.errors import InvariantViolation, check_cap


def simple_reflection(spec: AlgebraSpec, i: int, lam: Weight) -> Weight:
    """Reflection in the i-th simple root (1-based), lam - lam_i * alpha_i."""
    if not 1 <= i <= spec.rank:
        raise ValueError(f"reflection index {i} out of range 1..{spec.rank}")
    coeff = lam[i - 1]
    if coeff == 0:
        return tuple(lam)
    alpha = spec.cartan[i - 1]
    return tuple(l - coeff * a for l, a in zip(lam, alpha))


def cartan_determinant(spec: AlgebraSpec) -> int:
    """det C, exactly; equals the index of the root lattice in the weight
    lattice."""
    det, _, _ = _gauss_jordan(spec.cartan)
    if det.denominator != 1:
        raise InvariantViolation(f"det C = {det} of {spec} is not an integer")
    return int(det)


def weyl_orbit(spec: AlgebraSpec, lam: Weight):
    """Signed Weyl orbit of lam: closure of (lam, +1) under simple reflections.

    Each element carries the parity of a word reaching it.  For regular lam
    the orbit has one entry per image; a lam fixed by some reflection shows
    up with both parities.
    """
    check_cap("weyl_order", spec.weyl_order, spec)
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


def level_walk(spec: AlgebraSpec, lam: Weight):
    """(images, signs, stabiliser) of the level walk from the dominant
    conjugate of lam, reached by reflecting at the lowest-index negative
    label: level by level, each level the first occurrences of s_i w over w
    in the previous level and i with a positive label of w, in that order,
    with s_i subtracting c alpha_i formed once per (i, c)."""
    dominant, sign = tuple(lam), 1
    while min(dominant) < 0:
        i = next(i for i, label in enumerate(dominant) if label < 0)
        dominant, sign = simple_reflection(spec, i + 1, dominant), -sign
    cartan = spec.cartan
    steps = {}
    images, signs = [], []
    level = [dominant]
    while level:
        images += level
        signs += [sign] * len(level)
        reflected = {}
        for weight in level:
            for i, c in enumerate(weight):
                if c > 0:
                    step = steps.get((i, c))
                    if step is None:
                        step = steps[i, c] = [c * a for a in cartan[i]]
                    reflected[tuple(map(sub, weight, step))] = None
        level = list(reflected)
        sign = -sign
    stabiliser, remainder = divmod(spec.weyl_order, len(images))
    if remainder:
        raise InvariantViolation(f"level walk of {lam} found {len(images)} images")
    return tuple(images), tuple(signs), stabiliser


def weyl_elements(spec: AlgebraSpec):
    """All Weyl group elements as words in simple reflections (1-based).

    Words come from a breadth-first walk of the orbit of rho, so they are
    reduced and their length parity is (-1)^w.
    """
    check_cap("weyl_order", spec.weyl_order, spec)
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


def weight_set(spec: AlgebraSpec, mu: Weight) -> list:
    """The weights of V(mu) by root-string saturation, in the order found:
    lam - alpha_i belongs whenever (steps up along alpha_i) + lam_i >= 1.
    Each step down subtracts one simple root, so the weights come level by
    level in depth below mu."""
    simple = spec.cartan
    members = {tuple(mu)}
    order = [tuple(mu)]
    frontier = list(order)
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
        order += nxt
        frontier = nxt
    return order


def weight_multiplicities(spec: AlgebraSpec, mu: Weight) -> dict:
    """Multiplicities of V(mu) on weight_set: Freudenthal's recursion at its
    dominant weights, top down by depth, with lam + j alpha a weight exactly
    when it is in the set,

        ((mu+rho)^2 - (lam+rho)^2) m_lam = 2 sum_{alpha>0} sum_{j>=1}
                                             m_{lam+j alpha} (lam+j alpha, alpha),

    then every weight carries the multiplicity of its dominant conjugate,
    reached by simple reflections.  The pairings are exact numerators over
    D (algebra.integer_gram)."""
    d_gram = integer_gram(spec)[1]

    def pair(x, y):
        return sum(a * g * b for a, row in zip(x, d_gram) for g, b in zip(row, y))

    def dominant(lam):
        while min(lam) < 0:
            lam = simple_reflection(spec, lam.index(min(lam)) + 1, lam)
        return lam

    members = weight_set(spec, mu)
    found = set(members)
    mu_rho = tuple(m + 1 for m in mu)
    top = pair(mu_rho, mu_rho)
    # (alpha, (D G) alpha) per positive root
    roots = [(alpha, [sum(g * a for g, a in zip(row, alpha)) for row in d_gram])
             for alpha in positive_roots(spec)]
    mults = {tuple(mu): 1}
    for lam in members[1:]:
        if min(lam) < 0:
            continue
        acc = 0
        for alpha, row in roots:
            shifted = tuple(l + a for l, a in zip(lam, alpha))
            while shifted in found:
                acc += mults[dominant(shifted)] * sum(x * r for x, r in zip(shifted, row))
                shifted = tuple(s + a for s, a in zip(shifted, alpha))
        lam_rho = tuple(l + 1 for l in lam)
        value, remainder = divmod(2 * acc, top - pair(lam_rho, lam_rho))
        if remainder or value <= 0:
            raise InvariantViolation(f"multiplicity of {lam} in {mu} came out as "
                                     f"{2 * acc}/{top - pair(lam_rho, lam_rho)}")
        mults[lam] = value
    return {lam: mults[dominant(lam)] for lam in members}
