"""Weight systems: Freudenthal multiplicities and derived quantities."""

import random
from itertools import product

import pytest

from fusionkit import weights
from fusionkit.algebra import build_algebra
from fusionkit.errors import DEFAULT_CAPS, CapExceeded, Caps, InvariantViolation, use_caps
from fusionkit.weights import (
    WeightSystem,
    conjugate,
    square_sum,
    weight_system,
    weyl_dimension,
)

from weyl_oracle import apply_word, weight_multiplicities, weyl_elements

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)


def test_su2_weight_systems():
    assert weight_system(A1, (2,)).entries == {(-2,): 1, (0,): 1, (2,): 1}
    assert weight_system(A1, (1,)).entries == {(-1,): 1, (1,): 1}
    assert weight_system(A1, (0,)).entries == {(0,): 1}


def test_su2_dimension_is_label_plus_one():
    for n in range(8):
        assert sum(weight_system(A1, (n,)).entries.values()) == n + 1
        assert weyl_dimension(A1, (n,)) == n + 1


def test_a2_adjoint():
    ws = weight_system(A2, (1, 1))
    assert len(ws.entries) == 7
    assert ws.entries[(0, 0)] == 2
    assert weyl_dimension(A2, (1, 1)) == 8
    assert square_sum(A2, (1, 1)) == 10


def test_a2_small_sum_squares():
    assert square_sum(A2, (1, 0)) == 3
    assert weyl_dimension(A2, (1, 0)) == 3
    assert square_sum(A2, (2, 0)) == 6


@pytest.mark.parametrize("series,rank,max_label", [
    ("A", 1, 3), ("A", 2, 3), ("B", 2, 3), ("G", 2, 3),
    ("A", 3, 3), ("B", 3, 3), ("C", 3, 3),
])
def test_freudenthal_agrees_with_weyl_dimension(series, rank, max_label):
    spec = build_algebra(series, rank)
    for labels in product(range(max_label + 1), repeat=rank):
        if weyl_dimension(spec, labels) > 20000:
            continue
        with use_caps(Caps(dim=20000)):
            ws = weight_system(spec, labels)
        assert sum(ws.entries.values()) == weyl_dimension(spec, labels)


@pytest.mark.parametrize("series,rank,label_sum", [
    ("A", 1, 6), ("A", 2, 4), ("A", 3, 3), ("A", 4, 2), ("B", 2, 3), ("B", 3, 2),
    ("C", 3, 2), ("C", 4, 1), ("D", 4, 2), ("D", 5, 1), ("G", 2, 4), ("F", 4, 1),
    ("E", 6, 1), ("E", 7, 1),
])
def test_weight_system_matches_the_saturation_oracle(series, rank, label_sum):
    """Every V(mu) with labels summing to at most label_sum, under the
    default dim cap (147 in all: the E7 representation of dim 365,750 is
    above it), has the weights and multiplicities of the root-string
    saturation reference."""
    spec = build_algebra(series, rank)
    for labels in product(range(label_sum + 1), repeat=rank):
        if sum(labels) <= label_sum and weyl_dimension(spec, labels) <= DEFAULT_CAPS.dim:
            expected = weight_multiplicities(spec, labels)
            assert weight_system(spec, labels).entries == expected, labels


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("A", 3)])
def test_weyl_invariance_of_multiplicities(series, rank):
    spec = build_algebra(series, rank)
    rng = random.Random(17)
    words = weyl_elements(spec)
    for labels in [(1,) * rank, (2, 1) + (0,) * (rank - 2)]:
        ws = weight_system(spec, labels)
        entries = list(ws.entries.items())
        for _ in range(20):
            w, mult = rng.choice(entries)
            word = rng.choice(words)
            assert ws.entries[apply_word(spec, word, w)] == mult


def test_entries_lie_under_highest_weight():
    ws = weight_system(A2, (2, 1))
    inv = [[2, 1], [1, 2]]  # 3 * C^-1 for A2
    for w in ws.entries:
        diff = (ws.highest[0] - w[0], ws.highest[1] - w[1])
        coeffs = [sum(inv[i][j] * diff[j] for j in range(2)) for i in range(2)]
        assert all(c % 3 == 0 and c >= 0 for c in coeffs)


def test_conjugate_examples():
    assert conjugate(A2, (1, 0)) == (0, 1)
    assert conjugate(A2, (2, 1)) == (1, 2)
    assert conjugate(A2, (0, 0)) == (0, 0)
    b2 = build_algebra("B", 2)
    assert conjugate(b2, (2, 1)) == (2, 1)  # -w0 = identity outside A/D/E6


def test_conjugate_is_involutive_and_negates_weights():
    for mu in [(1, 0), (2, 1), (0, 3)]:
        bar = conjugate(A2, mu)
        assert conjugate(A2, bar) == mu
        ws = weight_system(A2, mu)
        ws_bar = weight_system(A2, bar)
        assert {tuple(-x for x in w): m for w, m in ws.entries.items()} == ws_bar.entries


@pytest.mark.parametrize("mu", [(0, 0), (1, 0), (1, 1), (2, 2), (3, 0)])
def test_sum_squares_dominates_dimension(mu):
    ws = weight_system(A2, mu)
    assert square_sum(A2, mu) >= weyl_dimension(A2, mu)
    all_ones = all(m == 1 for m in ws.entries.values())
    assert (square_sum(A2, mu) == weyl_dimension(A2, mu)) == all_ones


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        weight_system(A2, (-1, 0))
    with pytest.raises(ValueError):
        weight_system(A2, (1,))
    with pytest.raises(CapExceeded):
        with use_caps(Caps(dim=100)):
            weight_system(A2, (9, 9))


@pytest.mark.parametrize("entries", [{(1, 0): 2, (0, 0): 1}, {(0, 0): 1}])
def test_highest_weight_multiplicity_must_be_one(entries):
    with pytest.raises(InvariantViolation, match=r"highest weight \(1, 0\)"):
        WeightSystem(A2, (1, 0), entries)


def test_weight_system_repr_leaves_out_entries():
    system = weight_system(A2, (2, 2))
    assert repr(system) == f"WeightSystem(spec={A2!r}, highest=(2, 2))"


def test_weyl_dimension_checked_when_the_system_is_built(monkeypatch):
    """The multiplicity sum is checked once, in the cached build; a cold
    build with a wrong multiplicity still raises, every time."""
    original = weights._dominant_multiplicities

    def one_too_many(spec, mu, members):
        mults = original(spec, mu, members)
        mults[(0, 0)] += 1
        return mults

    weights._weight_system_cached.cache_clear()
    monkeypatch.setattr(weights, "_dominant_multiplicities", one_too_many)
    try:
        for _ in range(2):
            with pytest.raises(InvariantViolation,
                               match="add up to 9, not the Weyl dimension 8"):
                weight_system(A2, (1, 1))
    finally:
        weights._weight_system_cached.cache_clear()
