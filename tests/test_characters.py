"""Character evaluation: Weyl ratios, trace sums, virtual normal forms, and
the su(2) closed forms they must reproduce."""

import math
import random

import pytest

from fusionkit.algebra import build_algebra
from fusionkit.characters import (
    GenericPoint,
    VarietyPoint,
    char_su2_closed,
    eval_char,
    eval_char_trace,
    eval_D,
    virtual_normalize,
    weyl_ratio_sums,
)
from fusionkit.errors import CapExceeded, Caps, SingularPointError, use_caps
from fusionkit.weights import dimension, weight_system

from weyl_oracle import apply_word, weyl_elements, word_sign

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)
B2 = build_algebra("B", 2)


def su2_point(u: float) -> GenericPoint:
    # (r, (2iu,)) = i u r under G = [[1/2]], so chi_1 = 2 cos u
    return GenericPoint((2j * u,))


def random_regular_point(spec, rng, scale=2.8):
    while True:
        p = GenericPoint(tuple(1j * rng.uniform(0.2, scale) for _ in range(spec.rank)))
        if abs(eval_D(spec, spec.rho, p)) > 1e-6:
            return p


@pytest.mark.parametrize("evaluate", [
    lambda p: eval_D(A2, (2, 1), p),
    lambda p: eval_char(A2, (1, 0), p),
    lambda p: weyl_ratio_sums(A2, [((2, 1), 1)], [p]),
], ids=["eval_D", "eval_char", "weyl_ratio_sums"])
def test_weyl_cap_checked_on_cache_hit(evaluate):
    """The D_lam cache sits behind each entry point's Weyl-order check."""
    point = GenericPoint((0.3j, 0.7j))
    evaluate(point)
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
        assert abs(eval_char(A2, mu, p) - dimension(weight_system(A2, mu))) < 0.05


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


def test_virtual_normalize_su2_laws():
    assert virtual_normalize(A1, (-1,)) == (0, None)
    assert virtual_normalize(A1, (-2,)) == (-1, (0,))
    for m in range(2, 7):
        assert virtual_normalize(A1, (-m,)) == (-1, (m - 2,))


def test_virtual_normalize_consistency_with_D_ratio():
    """sign * chi_dominant = D_{lam+rho}/D_rho for arbitrary lattice weights."""
    rng = random.Random(6)
    for spec in (A1, A2):
        for _ in range(40):
            lam = tuple(rng.randint(-4, 4) for _ in range(spec.rank))
            p = random_regular_point(spec, rng)
            sign, dom = virtual_normalize(spec, lam)
            direct = (eval_D(spec, tuple(x + 1 for x in lam), p)
                      / eval_D(spec, spec.rho, p))
            value = sign * eval_char(spec, dom, p) if sign else 0j
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
