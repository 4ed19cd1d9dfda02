"""Property tests of the signed-orbit walk against the breadth-first oracle
and the reflection words of tests/weyl_oracle.py."""

from array import array
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusionkit import algebra
from fusionkit.algebra import (
    build_algebra,
    dominant_conjugate,
    reflect_to_dominant,
    signed_orbit,
)
from fusionkit.errors import InvariantViolation
from fusionkit.fusion import level_k_weights
from fusionkit.phase import alternating_sums

from weyl_oracle import apply_word, level_walk, weyl_elements, weyl_orbit

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


#: (algebra, start) pinned to the level walk: the D5 level-1 orbits that
#: fuse D5 --k 1 --oracle sums (mu + rho for each integrable mu), B3 wall
#: weights, and starts outside the dominant chamber, on a wall and off it
ORDER_PINS = [("D5", (2, 1, 1, 1, 1)), ("D5", (1, 1, 1, 1, 1)), ("D5", (1, 1, 1, 2, 1)),
              ("D5", (1, 1, 1, 1, 2)), ("B3", (1, 0, 1)), ("B3", (0, 2, 0)),
              ("B3", (2, -3, 1)), ("A3", (-2, 3, -1)), ("G2", (-1, 2)), ("D4", (1, -1, 0, 2))]


@pytest.mark.parametrize("name,lam", ORDER_PINS)
def test_walk_order_is_pinned(name, lam):
    """Images, their order, the signs and the stabiliser of the walk are
    those of the level walk; from a regular dominant weight they are also
    the breadth-first oracle's."""
    spec = build_algebra(name[0], int(name[1:]))
    orbit = signed_orbit(spec, lam)
    images, signs, stabiliser = level_walk(spec, lam)
    assert orbit == (images, signs, stabiliser)
    assert orbit.stabiliser == sum(apply_word(spec, word, lam) == tuple(lam)
                                   for word in weyl_elements(spec))
    if min(lam) > 0:
        assert list(zip(images, signs)) == weyl_orbit(spec, lam)


def test_d5_level_one_orbits_are_pinned():
    """The pins above are every orbit of fuse D5 --k 1 --oracle."""
    spec = build_algebra("D", 5)
    starts = {lam for name, lam in ORDER_PINS if name == "D5"}
    assert starts == {tuple(a + 1 for a in mu) for mu in level_k_weights(spec, 1)}


def test_e6_rho_matches_oracle(cold_memos):
    spec = build_algebra("E", 6)
    assert walked(spec, spec.rho) == weyl_orbit(spec, spec.rho)
    assert signed_orbit(spec, spec.rho) == level_walk(spec, spec.rho)
    assert signed_orbit(spec, spec.rho).stabiliser == 1


def test_orbit_size_must_divide_weyl_order():
    forged = build_algebra("A", 2)._replace(weyl_order=7)
    with pytest.raises(InvariantViolation):
        signed_orbit(forged, (1, 1))


# ---------------------------------------------------------------------------
# replay of the walk program against the level walk of tests/weyl_oracle.py

REPLAY_ALGEBRAS = ALGEBRAS + [("D", 5)]


def regular_starts(spec):
    """mu + rho for every dominant mu of level <= 3: the regular dominant
    weights whose orbits the S matrix sums up to k = 3."""
    return [tuple(a + 1 for a in mu) for mu in level_k_weights(spec, 3)]


def zero_labels(lam):
    return tuple(x == 0 for x in lam)


def typed_starts(spec):
    """Two dominant weights of every stabiliser type (set of zero labels),
    the first of each type first: its other labels all 1, then 2, 3, 1, ...
    (the two agree on the type with every label zero)."""
    types = list(product((True, False), repeat=spec.rank))
    return ([tuple(int(not zero) for zero in type_) for type_ in types]
            + [tuple(0 if zero else 1 + (i + 1) % 3 for i, zero in enumerate(type_))
               for type_ in types])


def assert_replays(spec, starts):
    for lam in starts:
        assert signed_orbit(spec, lam) == level_walk(spec, lam), lam


def count_walks(monkeypatch):
    """The dominant weights that _walk is called on, in call order."""
    walked_from = []
    walk = algebra._walk
    monkeypatch.setattr(algebra, "_walk", lambda spec, lam: walked_from.append(lam)
                        or walk(spec, lam))
    return walked_from


@pytest.mark.parametrize("series,rank", REPLAY_ALGEBRAS)
def test_replay_equals_the_level_walk(series, rank, cold_memos, monkeypatch):
    """Images, order, signs and stabiliser of every orbit, on a wall or off
    it, are the level walk's; the first orbit of each stabiliser type is
    walked once and keeps the program of its type, and every later one,
    regular ones of level <= 3 included, is replayed from it."""
    spec = build_algebra(series, rank)
    walked_from = count_walks(monkeypatch)
    starts = typed_starts(spec)
    assert_replays(spec, starts + regular_starts(spec))
    types = len(starts) // 2
    assert walked_from == starts[:types]
    assert list(algebra._walk_programs) == [(spec, zero_labels(lam)) for lam in starts[:types]]


@pytest.mark.parametrize("series,rank", REPLAY_ALGEBRAS)
def test_replay_from_non_dominant_starts(series, rank, cold_memos):
    """Starts outside the dominant chamber, regular and on walls: the replay
    starts from the dominant conjugate with the reduction's parity."""
    spec = build_algebra(series, rank)
    starts = []
    for lam in regular_starts(spec)[:6] + typed_starts(spec)[1:6]:
        images, _, _ = level_walk(spec, lam)
        starts += images[1::max(1, len(images) // 5)]
    assert all(min(lam) < 0 for lam in starts)
    assert_replays(spec, starts)


def mutate(program, mutant, rank):
    """A copy of a walk program with one wrong parent or one wrong generator
    at the first image of its fourth level."""
    parents, generators, ends = program
    n = ends[2]  # the first image of the fourth level, 0-based in parents
    parents, generators = array("I", parents), array("B", generators)
    if mutant == "parent":
        parents[n - 1] = parents[n - 1] + 1 if parents[n - 1] + 1 < ends[2] else ends[1]
    else:
        generators[n - 1] = (generators[n - 1] + 1) % rank
    return parents, generators, ends


@pytest.mark.parametrize("mutant", ["parent", "generator"])
def test_replay_mutants_fail(mutant, cold_memos, monkeypatch):
    """A walk program with one wrong parent or one wrong generator, on the
    third level of D5, gives orbits that differ from the level walk, for
    the regular type and for a wall type alike."""
    spec = build_algebra("D", 5)
    regular = regular_starts(spec)
    wall = sorted({(0,) + lam[1:] for lam in regular})
    for starts in (regular, wall):
        signed_orbit(spec, starts[0])
        key = (spec, zero_labels(starts[0]))
        mutated = mutate(algebra._walk_programs[key], mutant, spec.rank)
        monkeypatch.setitem(algebra._walk_programs, key, mutated)
        for lam in starts:
            with pytest.raises(AssertionError):
                assert_replays(spec, [lam])


@pytest.mark.parametrize("series,rank", [("B", 3), ("D", 4)])
def test_program_store_is_bounded_by_moves(series, rank, cold_memos, monkeypatch):
    """Under a small bound the kept moves never pass it, the oldest program
    goes first, a program larger than the bound is used but not kept, and
    every orbit is still the level walk's; a type whose program was dropped
    is walked again."""
    spec = build_algebra(series, rank)
    bound = spec.weyl_order // 2
    monkeypatch.setattr(algebra, "_PROGRAM_MOVES", bound)
    walked_from = count_walks(monkeypatch)
    expected, walks = {}, []  # type -> moves, oldest first; the starts walked
    for lam in typed_starts(spec) * 2:
        key = (spec, zero_labels(lam))
        if key not in expected:
            walks.append(lam)
            moves = len(level_walk(spec, lam)[0]) - 1
            if moves <= bound:
                while sum(expected.values()) + moves > bound:
                    del expected[next(iter(expected))]
                expected[key] = moves
        assert_replays(spec, [lam])
        kept = [(key, len(program[0])) for key, program in algebra._walk_programs.items()]
        assert kept == list(expected.items())
        assert sum(moves for _, moves in kept) <= bound
    assert (spec, (False,) * rank) not in expected  # |W| - 1 moves, above the bound
    assert walked_from == walks
