"""Character evaluation: Weyl ratios, trace sums, virtual characters, and
the su(2) closed forms they must reproduce."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fusionkit import algebra, characters
from fusionkit.algebra import build_algebra, reflect_to_dominant
from fusionkit.characters import (
    GenericPoint,
    VarietyPoint,
    eval_char,
    eval_D,
    weyl_ratio_sums,
)
from fusionkit.errors import CapExceeded, Caps, SingularPointError, use_caps
from fusionkit.fusion import _shifted_terms
from fusionkit.identity import make_report
from fusionkit.weights import weyl_dimension

from character_oracle import eval_char_trace
from su2_oracle import char_su2_closed
from weyl_oracle import apply_word, weyl_elements, word_sign

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)
A3 = build_algebra("A", 3)
B2 = build_algebra("B", 2)
G2 = build_algebra("G", 2)


def su2_point(u: float) -> GenericPoint:
    # (r, (2iu,)) = i u r under G = [[1/2]], so chi_1 = 2 cos u
    return GenericPoint((2j * u,))


def random_regular_point(spec, rng, scale=2.8):
    while True:
        p = GenericPoint(tuple(1j * rng.uniform(0.2, scale) for _ in range(spec.rank)))
        if abs(eval_D(spec, spec.rho, p)) > 1e-6:
            return p


def _eval_D_21(p):
    return eval_D(A2, (2, 1), p)


def _eval_char_10(p):
    return eval_char(A2, (1, 0), p)


def _ratio_sums_21(p):
    return weyl_ratio_sums(A2, [((2, 1), 1)], [p])


def _ratio_sums_columns(p):
    """A left side with repeated terms over three points: warm ratio
    columns, pairing vectors and memoised reductions."""
    points = [p, GenericPoint((0.5j, 1.1j)), GenericPoint((1.3j, 0.2j))]
    return weyl_ratio_sums(A2, _shifted_terms(A2, (1, 1), (1, 0)), points)


@pytest.mark.parametrize("warm,evaluate", [
    (_eval_D_21, _eval_D_21),
    (_eval_char_10, _eval_char_10),
    (_ratio_sums_21, _ratio_sums_21),
    (_ratio_sums_21, _eval_char_10),
    (_ratio_sums_columns, _ratio_sums_columns),
], ids=["eval_D", "eval_char", "weyl_ratio_sums", "eval_char_after_weyl_ratio_sums",
        "weyl_ratio_sums_columns"])
def test_weyl_cap_checked_on_cache_hit(warm, evaluate):
    """The D_lam cache and the ratio columns sit behind each entry point's
    Weyl-order check."""
    point = GenericPoint((0.3j, 0.7j))
    warm(point)
    with use_caps(Caps(weyl_order=1)), pytest.raises(CapExceeded):
        evaluate(point)


def test_su2_character_table():
    rng = random.Random(1)
    for _ in range(10):
        u = rng.uniform(0.1, 3.0)
        p = su2_point(u)
        assert eval_char(A1, (0,), p) == 1
        assert abs(eval_char(A1, (1,), p) - 2 * math.cos(u)) < 1e-12
        assert abs(eval_char(A1, (2,), p) - (math.cos(2 * u) + 2 * math.cos(u) ** 2)) < 1e-12
        assert abs(eval_char(A1, (3,), p) - 4 * math.cos(u) * math.cos(2 * u)) < 1e-12


def test_char_at_zero_point_is_dimension():
    # chi_mu(u) = dim(mu) + O(|u|^2) as u -> 0 through regular points
    p = GenericPoint((5e-3j, 6.5e-3j))
    for mu in [(1, 0), (1, 1), (2, 1)]:
        assert abs(eval_char(A2, mu, p) - weyl_dimension(A2, mu)) < 0.05


def test_eval_D_variety_two_term():
    # direct 2-term evaluation at gamma=1, K=4, lam=2
    value = eval_D(A1, (2,), VarietyPoint((1,), 4))
    assert abs(value - 2j) < 1e-14


def test_eval_D_antisymmetry():
    rng = random.Random(2)
    for spec in (A2, B2):
        words = weyl_elements(spec)
        for _ in range(15):
            lam = tuple(rng.randint(-3, 4) for _ in range(spec.rank))
            p = random_regular_point(spec, rng)
            base = eval_D(spec, lam, p)
            word = rng.choice(words)
            assert abs(eval_D(spec, apply_word(spec, word, lam), p)
                       - word_sign(word) * base) < 1e-12


def test_eval_D_vanishes_on_walls():
    p = random_regular_point(A2, random.Random(3))
    assert eval_D(A2, (0, 2), p) == 0  # stabilized by s1: exact cancellation
    assert eval_D(A2, (3, 0), p) == 0


def test_weyl_invariance_of_characters():
    rng = random.Random(4)
    words = weyl_elements(A2)
    for _ in range(10):
        p = random_regular_point(A2, rng)
        word = rng.choice(words)
        moved = GenericPoint(apply_word(A2, word, p.u))
        for mu in [(1, 0), (1, 1)]:
            assert abs(eval_char(A2, mu, p) - eval_char(A2, mu, moved)) < 1e-10


@pytest.mark.parametrize("spec,mu", [
    (A1, (3,)), (A2, (1, 1)), (A2, (2, 1)), (B2, (1, 1)),
])
def test_ratio_equals_trace_form(spec, mu):
    rng = random.Random(hash(mu) & 0xFFFF)
    for _ in range(50):
        p = random_regular_point(spec, rng)
        assert abs(eval_char(spec, mu, p) - eval_char_trace(spec, mu, p)) < 1e-10


def test_trace_form_on_variety_points():
    for gamma in range(1, 4):
        p = VarietyPoint((gamma,), 5)
        for n in range(3):
            assert abs(eval_char(A1, (n,), p) - eval_char_trace(A1, (n,), p)) < 1e-12


def test_virtual_character_su2_laws():
    """chi_lam = sign * chi_dominant, (dominant + rho, sign) the reduction of
    lam + rho: chi_{-1} = 0 and chi_{-m} = -chi_{m-2}."""
    assert reflect_to_dominant(A1, (0,)) == (None, 0)
    assert reflect_to_dominant(A1, (-1,)) == ((1,), -1)
    for m in range(2, 7):
        assert reflect_to_dominant(A1, (1 - m,)) == ((m - 1,), -1)


def test_virtual_character_consistency_with_D_ratio():
    """sign * chi_dominant = D_{lam+rho}/D_rho for arbitrary lattice weights."""
    rng = random.Random(6)
    for spec in (A1, A2):
        for _ in range(40):
            lam = tuple(rng.randint(-4, 4) for _ in range(spec.rank))
            p = random_regular_point(spec, rng)
            shifted, sign = reflect_to_dominant(spec, tuple(x + 1 for x in lam))
            direct = (eval_D(spec, tuple(x + 1 for x in lam), p)
                      / eval_D(spec, spec.rho, p))
            value = sign * eval_char(spec, tuple(x - 1 for x in shifted), p) if sign else 0j
            assert abs(value - direct) < 1e-9


def test_su2_closed_form_matches_variety_eval():
    for k in (1, 2, 3):
        for gamma in range(1, k + 2):
            p = VarietyPoint((gamma,), k + 2)
            for n in range(k + 1):
                assert abs(eval_char(A1, (n,), p) - char_su2_closed(n, k, gamma)) < 1e-12


def test_su2_closed_form_identities():
    assert char_su2_closed(0, 4, 1.3) == 1.0
    assert abs(char_su2_closed(3, 2, 1.0)) < 1e-12           # chi_{k+1} = 0
    assert abs(char_su2_closed(4, 2, 1.0) + char_su2_closed(2, 2, 1.0)) < 1e-12


def test_chi4_equals_minus_chi2_on_eighth_roots():
    for gamma in (1, 3):
        p = VarietyPoint((gamma,), 4)
        assert eval_char(A1, (4,), p) + eval_char(A1, (2,), p) == 0


def test_singular_point_rejected():
    with pytest.raises(SingularPointError):
        eval_char(A1, (1,), GenericPoint((0j,)))
    with pytest.raises(SingularPointError):
        eval_char(A1, (1,), VarietyPoint((0,), 4))
    with pytest.raises(SingularPointError):
        char_su2_closed(1, 2, 4.0)  # sin(pi) denominator


def test_point_validation():
    with pytest.raises(ValueError):
        eval_D(A2, (1, 0), GenericPoint((1j,)))
    with pytest.raises(ValueError):
        eval_char(A1, (-1,), VarietyPoint((1,), 4))
    with pytest.raises(ValueError):
        VarietyPoint((1,), 0)


def test_point_constructors_coerce():
    """VarietyPoint keeps integer labels and a positive level, GenericPoint
    complex coordinates; the repr of a generic point is what witness JSON
    records."""
    variety = VarietyPoint((1.0, True), 4)
    assert variety.gamma == (1, 1) and {type(g) for g in variety.gamma} == {int}
    assert variety._replace(gamma=(2.0, 3)).gamma == (2, 3)  # _replace runs the checks too
    with pytest.raises(ValueError, match="must be positive"):
        variety._replace(level_shifted=0)
    generic = GenericPoint((1, 0.5j))
    assert generic.u == (1 + 0j, 0.5j) and {type(x) for x in generic.u} == {complex}
    assert repr(GenericPoint((0.5j, 2))) == "GenericPoint(u=(0.5j, (2+0j)))"
    report = make_report("witness", 0.0, [(generic, 1j, 0j)])
    assert report.to_dict()["witnesses"][0]["point"] == "GenericPoint(u=((1+0j), 0.5j))"


# ---------------------------------------------------------------------------
# the ratio columns behind weyl_ratio_sums and eval_char


def reference_ratio_sum(spec, terms, p):
    """The term-by-term formula the ratio columns replace."""
    return sum((c * (eval_D(spec, lam, p) / eval_D(spec, spec.rho, p)) for lam, c in terms), 0j)


def random_terms(spec, rng, count=12):
    """rho-shifted terms with dominant, reflected and wall weights."""
    return [(tuple(rng.randint(-3, 5) for _ in range(spec.rank)), rng.randint(-3, 3))
            for _ in range(count)]


def orbit_terms(spec, rng, count=64):
    """rho-shifted terms drawn from the signed orbits of a few dominant
    weights, so that many reduce to one dominant weight, with coefficients
    of both signs, and some lie on a wall."""
    pool = [tuple(rng.randint(0, 3) for _ in range(spec.rank)) for _ in range(4)]
    images = [image for lam in pool for image in algebra.signed_orbit(spec, lam).images]
    return [(rng.choice(images), rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(count)]


@pytest.mark.parametrize("spec,variety", [
    (A1, False), (A2, False), (B2, False), (G2, False), (A2, True), (A3, False),
], ids=["A1", "A2", "B2", "G2", "A2-variety", "A3"])
def test_weyl_ratio_sums_equal_term_formula(spec, variety):
    """Bit for bit, on short random term lists and on lists of 64 terms that
    repeat dominant weights with mixed signs."""
    rng = random.Random(7)
    if variety:
        points = [VarietyPoint(g, 5) for g in [(1, 1), (1, 2), (2, 1), (1, 3)]]
    else:
        points = [random_regular_point(spec, rng) for _ in range(6)]
    for n in range(12):
        terms = random_terms(spec, rng) if n < 8 else orbit_terms(spec, rng)
        if n >= 8:
            reduced = [reflect_to_dominant(spec, lam) for lam, _ in terms]
            assert len({lam for lam, sign in reduced if sign}) < len(terms) / 2
            assert {sign for _, sign in reduced} >= {-1, 1}
        expected = [reference_ratio_sum(spec, terms, p) for p in points]
        for store in (characters._ratio_columns, characters._eval_D_cached,
                      characters._point_pairing_vector, algebra._signed_dominant):
            store.cache_clear()
        assert weyl_ratio_sums(spec, terms, points) == expected  # cold stores
        assert weyl_ratio_sums(spec, terms, points) == expected  # warm stores
        assert weyl_ratio_sums(spec, terms[::-1], points[::-1]) == [
            reference_ratio_sum(spec, terms[::-1], p) for p in points[::-1]]


def reference_D(spec, lam, p):
    """D_lam at a generic point as eval_D summed it term by term: each
    pairing a generator sum, each term added to a running total."""
    images, signs, stabiliser = algebra.signed_orbit(spec, lam)
    if stabiliser > 1:
        return 0j
    gu = algebra._generic_pairing_vector(spec, p.u)
    total = 0.0 + 0.0j
    for w_lam, sign in zip(images, signs):
        total += sign * cmath.exp(sum(li * gi for li, gi in zip(w_lam, gu)))
    return total


def bits(values):
    return [(z.real.hex(), z.imag.hex()) for z in values]


@pytest.mark.parametrize("spec", [A1, A2, B2, G2, A3], ids=["A1", "A2", "B2", "G2", "A3"])
def test_D_column_equals_eval_D_bit_for_bit(spec):
    """One orbit fetch per lam gives, at every generic point, the bits of
    _eval_D_cached and of the term-by-term sum, on regular and wall lam."""
    rng = random.Random(11)
    points = [random_regular_point(spec, rng) for _ in range(6)]
    vectors = [algebra._generic_pairing_vector(spec, p.u) for p in points]
    regular = [tuple(rng.randint(1, 4) for _ in range(spec.rank)) for _ in range(3)]
    walls = [(0,) + lam[1:] for lam in regular]
    for lam in regular + walls:
        characters._eval_D_cached.cache_clear()
        column = characters._D_column(spec, lam, vectors)
        assert bits(column) == bits(characters._eval_D_cached(spec, lam, p) for p in points)
        assert bits(column) == bits(reference_D(spec, lam, p) for p in points)
        assert (lam in walls) == (column == [0j] * len(points))


def test_singular_point_raises_on_cold_and_warm_table():
    regular, singular = GenericPoint((0.3j, 0.7j)), GenericPoint((0j, 0j))
    terms = [((2, 1), 1), ((1, 1), 2)]
    weyl_ratio_sums(A2, terms, [regular])
    messages = []
    for _ in range(2):
        with pytest.raises(SingularPointError) as raised:
            weyl_ratio_sums(A2, terms, [regular, singular])
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert "lies on a wall of A2" in messages[0]


def test_empty_terms_give_zero_without_D_rho():
    points = [GenericPoint((0j, 0j)), GenericPoint((0.31j, 0.77j))]
    before = eval_D.cache_info()
    assert weyl_ratio_sums(A2, [], points) == [0j] * len(points)
    # a wall term reduces away too: nothing is left to divide
    assert weyl_ratio_sums(A2, [((0, 2), 5)], points) == [0j] * len(points)
    after = eval_D.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_eval_char_reads_the_table_weyl_ratio_sums_filled():
    point = GenericPoint((0.41j, 1.3j))
    [value] = weyl_ratio_sums(A2, [((2, 3), 1)], [point])
    before = eval_D.cache_info()
    assert eval_char(A2, (1, 2), point) == value
    after = eval_D.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


@pytest.mark.parametrize("series,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("G", 2),
])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_weyl_ratio_matches_weight_system_trace(series, rank, data):
    """Weyl ratio vs the weight-system trace, two independent evaluations."""
    spec = build_algebra(series, rank)
    mu = data.draw(st.tuples(*[st.integers(0, 3)] * rank))
    p = random_regular_point(spec, random.Random(data.draw(st.integers(0, 2**32))))
    with use_caps(Caps(dim=300_000)):  # C3 at (3, 3, 3) has dimension 262144
        trace = eval_char_trace(spec, mu, p)
    [ratio] = weyl_ratio_sums(spec, [(tuple(m + 1 for m in mu), 1)], [p])
    assert abs(ratio - trace) <= 1e-9 * abs(trace)
