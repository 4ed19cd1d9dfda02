"""Cartan data, reflections, and Weyl orbit machinery."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from fusionkit import algebra
from fusionkit.algebra import (
    _gauss_jordan,
    build_algebra,
    cartan_inverse,
    comarks,
    dominant_conjugate,
    integer_gram,
    pairing_numerator,
    positive_roots,
    reflect_to_dominant,
    signed_orbit,
)
from fusionkit.errors import CapExceeded, Caps, use_caps

from weyl_oracle import (
    apply_word,
    cartan_determinant,
    simple_reflection,
    weyl_elements,
    weyl_orbit,
    word_sign,
)

ALL_SMALL = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
             ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4)]


def pairing(spec, lam, mu) -> Fraction:
    """(lam, mu) as the integer numerator over D."""
    return Fraction(pairing_numerator(spec, lam, mu), integer_gram(spec)[0])


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
    assert pairing(a2, a2.rho, a2.rho) == 2


@pytest.mark.parametrize("series,rank", ALL_SMALL + [("E", 6)])
def test_specs_built_twice_compare_and_hash_equal(series, rank):
    """The hash is computed once at construction, from (series, rank) alone,
    and stays out of comparison and repr."""
    first, second = build_algebra(series, rank), build_algebra(series, rank)
    assert first is not second
    assert first == second
    assert hash(first) == hash(second) == hash((series, rank))
    assert "_hash" not in repr(first)
    assert first != build_algebra("A", 1 if rank > 1 else 2)


def test_forged_spec_compares_unequal_and_specs_are_immutable():
    """_replace forges a copy: it hashes like the original, since the hash
    reads (series, rank) only, but compares unequal; the original keeps its
    fields, and no field can be set in place."""
    spec = build_algebra("A", 2)
    forged = spec._replace(highest_root=(1, 0))
    assert forged.highest_root == (1, 0) and spec.highest_root == (1, 1)
    assert hash(forged) == hash(spec) and forged != spec
    assert spec._replace() == spec
    with pytest.raises(AttributeError):
        spec.rank = 3
    with pytest.raises(AttributeError):
        del spec.rank
    assert spec.rank == 2
    assert str(spec) == "A2" and repr(spec).startswith("AlgebraSpec(series='A', rank=2, ")


@pytest.mark.parametrize("clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.copy,
                                   copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_spec_survives_pickle_and_copy(clone):
    """A spec round-trips through pickle and copy equal, with the same hash,
    forged fields included."""
    for spec in (build_algebra("G", 2), build_algebra("A", 2)._replace(highest_root=(1, 0))):
        twin = clone(spec)
        assert twin == spec and hash(twin) == hash(spec)
        assert twin.highest_root == spec.highest_root


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
    assert pairing(spec, spec.highest_root, spec.highest_root) == 2


_LATTICE_INDEX = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2,
                  "D": lambda n: 4, "E": lambda n: 9 - n, "F": lambda n: 1, "G": lambda n: 1}


@pytest.mark.parametrize("series,rank", ALL_SMALL + [("E", 6), ("E", 7), ("E", 8)])
def test_gauss_jordan_det_and_inverse(series, rank):
    spec = build_algebra(series, rank)
    det, inverse, _ = _gauss_jordan(spec.cartan)
    assert det == cartan_determinant(spec) == _LATTICE_INDEX[series](rank)
    identity = [[sum(spec.cartan[i][m] * inverse[m][j] for m in range(rank))
                 for j in range(rank)] for i in range(rank)]
    assert identity == [[int(i == j) for j in range(rank)] for i in range(rank)]


def test_gauss_jordan_pivoting_and_singular():
    assert _gauss_jordan([[0, 1], [1, 0]])[:2] == (-1, ((0, 1), (1, 0)))
    assert _gauss_jordan([[1, 2], [2, 4]]) == (0, None, None)
    assert _gauss_jordan([[Fraction(1, 2), 0], [0, 3]])[0] == Fraction(3, 2)


ADE = ([("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
       + [("E", 6), ("E", 7), ("E", 8)])


@pytest.mark.parametrize("series,rank", ADE)
def test_gauss_jordan_pivots_factor_the_cartan_form(series, rank):
    """The forward pivots d_i and normalised rows m_i of C are its LDL^T
    factors: sum_i d_i (x_i + sum_{j>i} m_ij x_j)^2 = x^T C x, exactly."""
    spec = build_algebra(series, rank)
    pivots = _gauss_jordan(spec.cartan)[2]
    assert all(row[:i + 1] == (0,) * i + (1,) for i, (_, row) in enumerate(pivots))
    rng = random.Random(rank)
    for _ in range(25):
        x = [rng.randint(-9, 9) for _ in range(rank)]
        form = sum(x[i] * c * x[j] for i, row in enumerate(spec.cartan) for j, c in enumerate(row))
        squares = sum(d * sum(m * xj for m, xj in zip(row[i:], x[i:])) ** 2
                      for i, (d, row) in enumerate(pivots))
        assert isinstance(squares, Fraction) and squares == form, x


@pytest.mark.parametrize("series,rank", ALL_SMALL + [("E", 6), ("E", 7), ("E", 8)])
def test_dual_coxeter_against_rho_pairing(series, rank):
    spec = build_algebra(series, rank)
    assert pairing(spec, spec.rho, spec.highest_root) + 1 == spec.dual_coxeter
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
            lhs = pairing(spec, spec.cartan[i], spec.cartan[j])
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
        assert pairing(spec, simple_reflection(spec, i, lam),
                       simple_reflection(spec, i, mu)) == pairing(spec, lam, mu)


def test_reflect_to_dominant_examples():
    a1 = build_algebra("A", 1)
    assert reflect_to_dominant(a1, (-3,)) == ((3,), -1)
    a2 = build_algebra("A", 2)
    assert reflect_to_dominant(a2, (2, 1)) == ((2, 1), 1)     # already dominant
    assert reflect_to_dominant(a2, (0, 4)) == (None, 0)       # wall
    assert reflect_to_dominant(a2, (-1, 3)).sign == -1


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("A", 3)])
def test_reflect_to_dominant_consistent_over_orbit(series, rank):
    """Every orbit image reduces to beta with the orbit's sign, and the
    memoised reduction equals a fresh walk after its cache is cleared."""
    spec = build_algebra(series, rank)
    rng = random.Random(3)
    for _ in range(10):
        beta = tuple(rng.randint(1, 4) for _ in range(rank))  # strictly dominant
        images, signs, _ = signed_orbit(spec, beta)
        algebra._signed_dominant.cache_clear()
        fresh = [reflect_to_dominant(spec, image) for image in images]
        memoised = [reflect_to_dominant(spec, image) for image in images]
        assert algebra._signed_dominant.cache_info().hits == len(images)
        assert memoised == fresh
        for sign, (reduced, image_sign) in zip(signs, memoised):
            assert reduced == beta
            assert image_sign == sign


@pytest.mark.parametrize("series,rank", ALL_SMALL)
def test_orbit_of_rho_has_weyl_order(series, rank):
    spec = build_algebra(series, rank)
    images, _, stabiliser = signed_orbit(spec, spec.rho)
    assert stabiliser == 1
    assert len(set(images)) == len(images) == spec.weyl_order


def test_wall_weight_has_a_nontrivial_stabiliser():
    a2 = build_algebra("A", 2)
    images, signs, stabiliser = signed_orbit(a2, (1, 0))
    assert stabiliser == 2
    assert sorted(images) == [(-1, 1), (0, -1), (1, 0)]
    assert signs == (1, -1, 1)
    assert signed_orbit(a2, (1, 1)).stabiliser == 1


def test_orbit_cap():
    e8 = build_algebra("E", 8)
    with pytest.raises(CapExceeded):
        signed_orbit(e8, e8.rho)


def test_raised_weyl_order_cap_reaches_the_orbit_walk():
    """|W(E7)| is above the default cap; raising the cap in force lets the
    56-image orbit of the minuscule weight through."""
    e7 = build_algebra("E", 7)
    minuscule = (1, 0, 0, 0, 0, 0, 0)
    with pytest.raises(CapExceeded):
        signed_orbit(e7, minuscule)
    with use_caps(Caps(weyl_order=e7.weyl_order)):
        assert len(signed_orbit(e7, minuscule).images) == 56
    with pytest.raises(CapExceeded):
        signed_orbit(e7, minuscule)


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2), ("D", 4)])
def test_weyl_elements_act_like_the_orbit(series, rank):
    spec = build_algebra(series, rank)
    words = weyl_elements(spec)
    assert len(words) == spec.weyl_order
    images = {(apply_word(spec, w, spec.rho), word_sign(w)) for w in words}
    assert images == set(weyl_orbit(spec, spec.rho))
    walked = signed_orbit(spec, spec.rho)
    assert images == set(zip(walked.images, walked.signs))


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


def fraction_height(spec, root) -> Fraction:
    """The simple-root coefficients of root summed in Fractions over C^-1."""
    inv = cartan_inverse(spec)
    return sum(sum(inv[j][i] * root[j] for j in range(spec.rank)) for i in range(spec.rank))


@pytest.mark.parametrize("series,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 3),
    ("C", 4), ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
def test_integer_height_matches_fraction_formula(series, rank):
    """positive_roots is sorted by the integral heights of the Fraction
    formula, and the highest root is its last entry, the one root of
    greatest height."""
    spec = build_algebra(series, rank)
    roots = positive_roots(spec)
    heights = [fraction_height(spec, root) for root in roots]
    assert all(height.denominator == 1 for height in heights)
    assert heights == sorted(heights)
    assert roots[-1] == spec.highest_root
    assert heights.count(heights[-1]) == 1
