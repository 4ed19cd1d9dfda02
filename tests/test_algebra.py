"""Cartan data, reflections, and Weyl orbit machinery."""

import random
from fractions import Fraction

import pytest

from fusionkit.algebra import (
    _gauss_jordan,
    apply_word,
    build_algebra,
    cartan_determinant,
    cartan_inverse,
    comarks,
    dominant_conjugate,
    inner_product,
    positive_roots,
    reflect_to_dominant,
    simple_reflection,
    weyl_elements,
    weyl_orbit,
    word_sign,
)
from fusionkit.errors import CapExceeded

ALL_SMALL = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
             ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4)]


def test_a1_tables():
    a1 = build_algebra("A", 1)
    assert a1.cartan == ((2,),)
    assert a1.quad_form == ((Fraction(1, 2),),)
    assert a1.dual_coxeter == 2
    assert a1.rho == (1,)
    assert a1.highest_root == (2,)


def test_a2_tables():
    a2 = build_algebra("A", 2)
    assert a2.cartan == ((2, -1), (-1, 2))
    assert a2.dual_coxeter == 3
    assert a2.highest_root == (1, 1)
    assert inner_product(a2, a2.rho, a2.rho) == 2


@pytest.mark.parametrize("series,rank", [("A", 0), ("B", 1), ("C", 2), ("D", 3),
                                         ("E", 5), ("E", 9), ("F", 3), ("G", 4),
                                         ("H", 2)])
def test_invalid_algebras_rejected(series, rank):
    with pytest.raises(ValueError):
        build_algebra(series, rank)


@pytest.mark.parametrize("series,rank", ALL_SMALL + [("E", 6), ("E", 7), ("E", 8)])
def test_cartan_invariants(series, rank):
    spec = build_algebra(series, rank)
    n = spec.rank
    for i in range(n):
        assert spec.cartan[i][i] == 2
        for j in range(n):
            if i != j:
                assert spec.cartan[i][j] <= 0
    assert cartan_determinant(spec) > 0
    assert spec.rho == (1,) * n
    # G symmetric; G = C^-1 exactly for the simply-laced series
    for i in range(n):
        for j in range(n):
            assert spec.quad_form[i][j] == spec.quad_form[j][i]
    if series in ("A", "D", "E"):
        assert spec.quad_form == cartan_inverse(spec)
    # the highest root is long: (theta, theta) = 2
    assert inner_product(spec, spec.highest_root, spec.highest_root) == 2


_LATTICE_INDEX = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2,
                  "D": lambda n: 4, "E": lambda n: 9 - n, "F": lambda n: 1, "G": lambda n: 1}


@pytest.mark.parametrize("series,rank", ALL_SMALL + [("E", 6), ("E", 7), ("E", 8)])
def test_gauss_jordan_det_and_inverse(series, rank):
    spec = build_algebra(series, rank)
    det, inverse = _gauss_jordan(spec.cartan)
    assert det == cartan_determinant(spec) == _LATTICE_INDEX[series](rank)
    identity = [[sum(spec.cartan[i][m] * inverse[m][j] for m in range(rank))
                 for j in range(rank)] for i in range(rank)]
    assert identity == [[int(i == j) for j in range(rank)] for i in range(rank)]


def test_gauss_jordan_pivoting_and_singular():
    assert _gauss_jordan([[0, 1], [1, 0]]) == (-1, ((0, 1), (1, 0)))
    assert _gauss_jordan([[1, 2], [2, 4]]) == (0, None)
    assert _gauss_jordan([[Fraction(1, 2), 0], [0, 3]])[0] == Fraction(3, 2)


@pytest.mark.parametrize("series,rank", ALL_SMALL + [("E", 6), ("E", 7), ("E", 8)])
def test_dual_coxeter_against_rho_pairing(series, rank):
    spec = build_algebra(series, rank)
    assert inner_product(spec, spec.rho, spec.highest_root) + 1 == spec.dual_coxeter
    assert spec.dual_coxeter == 1 + sum(comarks(spec))


@pytest.mark.parametrize("series,rank", ALL_SMALL)
def test_root_base_roundtrip(series, rank):
    """Simple-root inner products computed through Dynkin labels reproduce
    the symmetrized Cartan matrix C_ij d_j."""
    spec = build_algebra(series, rank)
    inv = cartan_inverse(spec)
    halfnorms = [sum(spec.quad_form[i][j] * spec.cartan[i][j] for j in range(rank))
                 for i in range(rank)]  # (alpha_i, alpha_i)/2 via G C^T diag
    for i in range(rank):
        for j in range(rank):
            lhs = inner_product(spec, spec.cartan[i], spec.cartan[j])
            assert lhs == spec.cartan[i][j] * halfnorms[j]
            assert lhs == spec.cartan[j][i] * halfnorms[i]


def test_simple_reflection_examples():
    a1 = build_algebra("A", 1)
    assert simple_reflection(a1, 1, (3,)) == (-3,)
    a2 = build_algebra("A", 2)
    assert simple_reflection(a2, 1, (1, 0)) == (-1, 1)
    with pytest.raises(ValueError):
        simple_reflection(a2, 3, (1, 0))


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_reflection_involution_and_isometry(series, rank):
    spec = build_algebra(series, rank)
    rng = random.Random(11)
    for _ in range(30):
        lam = tuple(rng.randint(-5, 5) for _ in range(rank))
        mu = tuple(rng.randint(-5, 5) for _ in range(rank))
        i = rng.randint(1, rank)
        assert simple_reflection(spec, i, simple_reflection(spec, i, lam)) == lam
        assert inner_product(spec, simple_reflection(spec, i, lam),
                             simple_reflection(spec, i, mu)) == inner_product(spec, lam, mu)


def test_reflect_to_dominant_examples():
    a1 = build_algebra("A", 1)
    assert reflect_to_dominant(a1, (-3,)) == ((3,), -1)
    a2 = build_algebra("A", 2)
    assert reflect_to_dominant(a2, (2, 1)) == ((2, 1), 1)     # already dominant
    assert reflect_to_dominant(a2, (0, 4)) == (None, 0)       # wall
    assert reflect_to_dominant(a2, (-1, 3)).sign == -1


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("A", 3)])
def test_reflect_to_dominant_consistent_over_orbit(series, rank):
    spec = build_algebra(series, rank)
    rng = random.Random(3)
    for _ in range(10):
        beta = tuple(rng.randint(1, 4) for _ in range(rank))  # strictly dominant
        for image, sign in weyl_orbit(spec, beta):
            reduced, image_sign = reflect_to_dominant(spec, image)
            assert reduced == beta
            assert image_sign == sign


@pytest.mark.parametrize("series,rank", ALL_SMALL)
def test_orbit_of_rho_has_weyl_order(series, rank):
    spec = build_algebra(series, rank)
    orbit = weyl_orbit(spec, spec.rho)
    assert len(orbit) == spec.weyl_order
    assert len({w for w, _ in orbit}) == spec.weyl_order


def test_wall_weight_appears_with_both_parities():
    a2 = build_algebra("A", 2)
    orbit = weyl_orbit(a2, (1, 0))
    start = [(w, s) for w, s in orbit if w == (1, 0)]
    assert ((1, 0), 1) in start and ((1, 0), -1) in start


def test_orbit_cap():
    e8 = build_algebra("E", 8)
    with pytest.raises(CapExceeded):
        weyl_orbit(e8, e8.rho)
    with pytest.raises(CapExceeded):
        weyl_elements(e8)


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2), ("D", 4)])
def test_weyl_elements_act_like_the_orbit(series, rank):
    spec = build_algebra(series, rank)
    words = weyl_elements(spec)
    assert len(words) == spec.weyl_order
    images = {(apply_word(spec, w, spec.rho), word_sign(w)) for w in words}
    assert images == set(weyl_orbit(spec, spec.rho))


def test_dominant_conjugate_matches_signed_reduction():
    a3 = build_algebra("A", 3)
    rng = random.Random(5)
    for _ in range(25):
        lam = tuple(rng.randint(-4, 4) for _ in range(3))
        dom = dominant_conjugate(a3, lam)
        assert all(x >= 0 for x in dom)
        assert dom in {w for w, _ in weyl_orbit(a3, lam)}


@pytest.mark.parametrize("series,rank", ALL_SMALL)
def test_positive_root_count(series, rank):
    spec = build_algebra(series, rank)
    # number of positive roots = (dim g - rank)/2, via the standard dims
    dims = {"A": rank * (rank + 2), "B": rank * (2 * rank + 1),
            "C": rank * (2 * rank + 1), "D": rank * (2 * rank - 1),
            "G": 14, "F": 52}
    assert len(positive_roots(spec)) == (dims[series] - rank) // 2
