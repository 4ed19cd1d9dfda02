"""Property tests of the signed-orbit walk against the breadth-first oracle
and the reflection words of tests/weyl_oracle.py."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusionkit.algebra import (
    build_algebra,
    dominant_conjugate,
    reflect_to_dominant,
    signed_orbit,
)
from fusionkit.characters import alternating_sums
from fusionkit.errors import InvariantViolation

from weyl_oracle import apply_word, weyl_elements, weyl_orbit

ALGEBRAS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3),
            ("D", 4), ("G", 2), ("F", 4)]

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)


def labels(rank, low=-4, high=4):
    return st.tuples(*[st.integers(low, high)] * rank)


def walked(spec, lam):
    orbit = signed_orbit(spec, lam)
    return list(zip(orbit.images, orbit.signs))


@pytest.mark.parametrize("series,rank", ALGEBRAS)
@PROPERTY
@given(data=st.data())
def test_walk_matches_oracle(series, rank, data):
    spec = build_algebra(series, rank)
    lam = data.draw(labels(rank))
    orbit = signed_orbit(spec, lam)
    signed = walked(spec, lam)
    oracle = set(weyl_orbit(spec, lam))
    assert len(signed) * orbit.stabiliser == spec.weyl_order
    assert len({image for image, _ in signed}) == len(signed)
    if orbit.stabiliser == 1:
        assert set(signed) == oracle
    else:
        # the oracle reaches every image of a wall orbit with both parities
        assert oracle == {(image, s) for image, _ in signed for s in (1, -1)}
    fixing = sum(apply_word(spec, word, lam) == lam for word in weyl_elements(spec))
    assert fixing == orbit.stabiliser


@pytest.mark.parametrize("series,rank", ALGEBRAS)
@PROPERTY
@given(data=st.data())
def test_walk_keeps_oracle_order_from_a_regular_dominant_weight(series, rank, data):
    spec = build_algebra(series, rank)
    lam = data.draw(labels(rank, 1, 4))
    assert walked(spec, lam) == weyl_orbit(spec, lam)


@pytest.mark.parametrize("series,rank", ALGEBRAS)
@PROPERTY
@given(data=st.data())
def test_stabiliser_marks_walls(series, rank, data):
    spec = build_algebra(series, rank)
    lam = data.draw(labels(rank))
    on_wall = signed_orbit(spec, lam).stabiliser > 1
    assert on_wall == (0 in dominant_conjugate(spec, lam))
    assert on_wall == (reflect_to_dominant(spec, lam).sign == 0)


@pytest.mark.parametrize("series,rank", ALGEBRAS)
@PROPERTY
@given(data=st.data())
def test_wall_terms_leave_alternating_sums_unchanged(series, rank, data):
    spec = build_algebra(series, rank)
    lam = data.draw(labels(rank))
    dominant = list(data.draw(labels(rank, 0, 4)))
    dominant[data.draw(st.integers(0, rank - 1))] = 0
    wall = apply_word(spec, data.draw(st.lists(st.integers(1, rank), max_size=6)), dominant)
    c, c_wall = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    level_shifted = 1 + spec.dual_coxeter
    gammas = data.draw(st.lists(labels(rank, 0, level_shifted - 1), min_size=1, max_size=4))
    base = alternating_sums(spec, [(lam, c)], gammas, level_shifted)
    both = alternating_sums(spec, [(lam, c), (wall, c_wall)], gammas, level_shifted)
    assert np.array_equal(both, base)
    assert np.array_equal(alternating_sums(spec, [(wall, c_wall)], gammas, level_shifted),
                          np.zeros(len(gammas), dtype=complex))


def test_e6_rho_matches_oracle():
    spec = build_algebra("E", 6)
    assert walked(spec, spec.rho) == weyl_orbit(spec, spec.rho)
    assert signed_orbit(spec, spec.rho).stabiliser == 1


def test_orbit_size_must_divide_weyl_order():
    forged = build_algebra("A", 2)._replace(weyl_order=7)
    with pytest.raises(InvariantViolation):
        signed_orbit(forged, (1, 1))
