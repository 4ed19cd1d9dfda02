"""Clock/shift operators, primary states, the S operator, and operator fusion."""

import cmath
import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from fusionkit import cli, csmodel
from fusionkit.algebra import _coroot_labels, build_algebra
from fusionkit.csmodel import (
    FourierOperator,
    basis_state,
    build_model,
    character_as_inner_product,
    check_clock_commutator,
    check_s_conjugation,
    clock_op,
    inner_product,
    operator_fusion_rows,
    primary_state,
    s_operator,
    shift_op,
    wilson_operator,
)
from fusionkit.errors import CapExceeded, Caps, OracleMismatchError, use_caps
from fusionkit.fusion import fuse_level_k, level_k_weights
from fusionkit.phase import roots_of_unity
from fusionkit.verlinde import verlinde_table

import csmodel_oracle as oracle
from weyl_oracle import apply_word, weyl_elements, word_sign

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)


def random_state(model, rng):
    return tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(model.cover_size))


def norm(state) -> float:
    return float(np.linalg.norm(np.array(state)))


def max_gap(x, y) -> float:
    return float(np.abs(np.array(x) - np.array(y)).max())


def bfs_radical(model):
    """Reference radical: breadth-first closure of K Q-vee's generators mod L."""
    rank, period = model.spec.rank, model.period
    generators = [tuple(model.level_shifted * c % period for c in row)
                  for row in _coroot_labels(model.spec)]
    seen = {(0,) * rank}
    frontier = [(0,) * rank]
    while frontier:
        nxt = []
        for element in frontier:
            for gen in generators:
                candidate = tuple((e + g) % period for e, g in zip(element, gen))
                if candidate not in seen:
                    seen.add(candidate)
                    nxt.append(candidate)
        frontier = nxt
    return tuple(sorted(seen))


def word_primary_state(model, r):
    """Reference primary state: one term per Weyl word, in word order."""
    spec = model.spec
    shifted = tuple(x + 1 for x in r)
    state = np.zeros(model.shape, dtype=complex)
    amplitude = 1.0 / math.sqrt(spec.weyl_order * len(model.radical))
    for word in weyl_elements(spec):
        image = apply_word(spec, word, shifted)
        for t in model.radical:
            index = tuple((x + dt) % model.period for x, dt in zip(image, t))
            state[index] += word_sign(word) * amplitude
    return state


@pytest.mark.parametrize("series,rank,k", [("A", 1, 6), ("A", 2, 2), ("A", 2, 4),
                                           ("A", 3, 1), ("B", 2, 2), ("C", 3, 1),
                                           ("G", 2, 2)])
def test_primary_state_matches_word_sum(series, rank, k):
    """The signed-orbit primary states equal the Weyl-word sums bit for bit:
    for regular weights both walks visit the images in the same order."""
    model = build_model(build_algebra(series, rank), k)
    for r in level_k_weights(model.spec, k):
        assert np.array_equal(oracle.to_array(model, primary_state(model, r)),
                              word_primary_state(model, r))


#: every (series, rank, k) the csmodel tests and golden cases build a model of
MODELS = ([("A", 1, k) for k in range(1, 7)] + [("A", 2, k) for k in range(1, 6)]
          + [("A", 3, 1), ("B", 2, 2), ("C", 3, 1), ("D", 4, 1), ("G", 2, 1), ("G", 2, 2)])


@pytest.mark.parametrize("series,rank,k", MODELS)
def test_radical_matches_bfs(series, rank, k):
    model = build_model(build_algebra(series, rank), k)
    assert model.radical == bfs_radical(model)


def test_model_sizes():
    m = build_model(A1, 2)
    assert (m.period, m.size, m.denominator_clear) == (8, 8, 2)
    assert build_model(A1, 1).period == 6
    m2 = build_model(A2, 1)
    assert (m2.denominator_clear, m2.period) == (3, 12)
    assert m2.size == 4 * 4 * 3  # K^rank det C, the faithful quotient
    assert repr(m2) == (f"GaussianModel(spec={A2!r}, k=1, level_shifted=4, "
                        "denominator_clear=3, period=12)")
    with pytest.raises(CapExceeded):
        with use_caps(Caps(hilbert=100)):
            build_model(A2, 1)
    with pytest.raises(ValueError):
        build_model(A1, -1)


def test_states_are_flat_row_major_tuples():
    model = build_model(A2, 1)
    state = basis_state(model, (1, 2))
    assert isinstance(state, tuple) and len(state) == model.cover_size == 144
    support = {(i // model.period, i % model.period) for i, x in enumerate(state) if x}
    assert support == {((1 + t0) % 12, (2 + t1) % 12) for t0, t1 in model.radical}
    assert isinstance(primary_state(model, (1, 0)), tuple)


def test_a1_level2_clock_eigenvalues_are_eighth_roots():
    m = build_model(A1, 2)
    a = clock_op(m, 1)
    eigenvalues = set()
    for v in range(8):
        state = basis_state(m, (v,))
        image = a.apply(state)
        eigenvalues.add(complex(image[v] / state[v]).conjugate().conjugate())
    roots = {cmath.exp(2j * cmath.pi * n / 8) for n in range(8)}
    assert all(min(abs(e - r) for r in roots) < 1e-12 for e in eigenvalues)
    assert len({round(cmath.phase(e), 9) for e in eigenvalues}) == 8


def test_clock_shift_unitary_and_idempotent():
    m = build_model(A1, 2)
    psi = random_state(m, random.Random(3))
    for op in (clock_op(m, 1), shift_op(m, 1)):
        assert abs(norm(op.apply(psi)) - norm(psi)) < 1e-12
        # order divides L: applying L times is the identity
        state = psi
        for _ in range(m.period):
            state = op.apply(state)
        assert max_gap(state, psi) < 1e-10


def test_clock_commutator_phase():
    m = build_model(A1, 2)
    # a b a^-1 b^-1 = exp(2 pi i (1/2) / 4) = exp(i pi / 4) on every state
    a, b = clock_op(m, 1), shift_op(m, 1)
    group = a @ b @ a.dagger() @ b.dagger()
    psi = basis_state(m, (0,))
    ratio = group.apply(psi)[0] / psi[0]
    assert abs(ratio - cmath.exp(1j * cmath.pi / 4)) < 1e-14


@pytest.mark.parametrize("spec,kmax", [(A1, 6), (A2, 2)])
def test_clock_commutator_residuals(spec, kmax):
    for k in range(1, kmax + 1):
        assert check_clock_commutator(build_model(spec, k)) < 1e-12


@pytest.mark.parametrize("spec,kmax", [(A1, 4), (A2, 2)])
def test_primary_orthonormality(spec, kmax):
    for k in range(1, kmax + 1):
        model = build_model(spec, k)
        weights = level_k_weights(spec, k)
        states = {r: primary_state(model, r) for r in weights}
        for r in weights:
            for s in weights:
                value = inner_product(states[r], states[s])
                assert abs(value - (1.0 if r == s else 0.0)) < 1e-12


@pytest.mark.parametrize("series,rank,k", [("A", 1, 6), ("A", 2, 5), ("B", 2, 2),
                                           ("C", 3, 1), ("G", 2, 2)])
def test_primary_norms_within_one_rounding(series, rank, k):
    """inner_product sums its real and imaginary parts with math.fsum, so
    <psi|psi> is 1 to within one rounding of the products (2.22e-16), where
    a sequential sum drifts further, and it equals np.vdot to rounding."""
    model = build_model(build_algebra(series, rank), k)
    for r in level_k_weights(model.spec, k):
        psi = primary_state(model, r)
        assert abs(inner_product(psi, psi) - 1.0) <= 2.220446049250313e-16
        assert abs(inner_product(psi, psi) - np.vdot(psi, psi)) < 1e-15


def test_inner_product_is_antilinear_in_the_bra():
    model = build_model(A2, 2)
    rng = random.Random(8)
    x, y = random_state(model, rng), random_state(model, rng)
    value = inner_product(x, y)
    assert abs(value - np.vdot(x, y)) < 1e-12
    assert abs(inner_product(y, x) - value.conjugate()) < 1e-12
    assert abs(inner_product(tuple(2j * z for z in x), y) - (-2j) * value) < 1e-12


def test_primary_count_a1_level2():
    m = build_model(A1, 2)
    nonzero = [r for r in level_k_weights(A1, 2) if norm(primary_state(m, r)) > 1e-12]
    assert len(nonzero) == 3


def test_wall_state_vanishes():
    """The antisymmetrized shift of the vacuum collapses to zero when r + rho
    lands on an affine wall: at A1 level 2, r = (3,) gives r + rho = 4 = L/2,
    fixed by negation mod 8."""

    m = build_model(A1, 2)
    state = np.zeros(m.shape, dtype=complex)
    for word in weyl_elements(A1):
        image = apply_word(A1, word, (4,))
        state[(image[0] % m.period,)] += word_sign(word) / math.sqrt(2)
    assert np.linalg.norm(state) == 0.0


def test_wilson_identity_and_shift_structure():
    m = build_model(A1, 2)
    identity_op = wilson_operator(m, (0,))
    psi = random_state(m, random.Random(7))
    assert identity_op.apply(psi) == psi
    # Omega_1 = {-1, +1}: shift up plus shift down
    op = wilson_operator(m, (1,))
    b = shift_op(m, 1)
    expected = np.array(b.apply(psi)) + np.array(b.dagger().apply(psi))
    assert max_gap(op.apply(psi), expected) < 1e-12


@pytest.mark.parametrize("spec,k", [(A1, 2), (A1, 4), (A2, 1), (A2, 2)])
def test_state_operator_correspondence(spec, k):
    model = build_model(spec, k)
    psi0 = primary_state(model, (0,) * spec.rank)
    for mu in level_k_weights(spec, k):
        image = wilson_operator(model, mu).apply(psi0)
        assert max_gap(image, primary_state(model, mu)) < 1e-12


def test_s_vacuum_is_uniform():
    m = build_model(A1, 2)
    state = s_operator(m).apply_inverse(basis_state(m, (0,)))
    assert np.allclose(state, 1.0 / math.sqrt(8))
    m2 = build_model(A2, 1)
    state2 = s_operator(m2).apply_inverse(basis_state(m2, (0, 0)))
    # uniform over the 48 physical states = constant on the covering array
    assert np.allclose(state2, state2[0])
    assert abs(norm(state2) - 1.0) < 1e-12


def test_s_unitary_on_a1():
    m = build_model(A1, 2)
    s = s_operator(m)
    rng = random.Random(11)
    for _ in range(10):
        psi = random_state(m, rng)
        assert abs(norm(s.apply(psi)) - norm(psi)) < 1e-12
        assert max_gap(s.apply(s.apply_inverse(psi)), psi) < 1e-12


@pytest.mark.parametrize("spec,kmax", [(A1, 4), (A2, 2)])
def test_s_conjugation(spec, kmax):
    for k in range(1, kmax + 1):
        assert check_s_conjugation(build_model(spec, k)) < 1e-10


def test_fourier_cap():
    d4 = build_algebra("D", 4)
    model = build_model(d4, 1)
    with pytest.raises(CapExceeded):
        FourierOperator(model)


def test_weyl_cap_checked_on_cached_primary_state():
    model = build_model(A2, 2)
    primary_state(model, (1, 0))
    with use_caps(Caps(weyl_order=1)), pytest.raises(CapExceeded):
        primary_state(model, (1, 0))


def test_weyl_cap_checked_on_kept_fourier_image():
    model = build_model(A2, 2)
    character_as_inner_product(model, (1, 1), (1, 0))
    with use_caps(Caps(weyl_order=1)), pytest.raises(CapExceeded):
        character_as_inner_product(model, (1, 1), (1, 0))


def test_character_inner_product_values():
    m = build_model(A1, 2)
    # gamma = 0 sits on a wall of the alternating sum
    assert abs(character_as_inner_product(m, (0,), (1,))) < 1e-14
    value = character_as_inner_product(m, (1,), (1,))
    assert abs(value - 0.5j) < 1e-12  # (1/sqrt8)(1/sqrt2) 2i sin(pi/2)


@pytest.mark.parametrize("spec,kmax", [(A1, 4), (A2, 1)])
def test_character_inner_product_scan(spec, kmax):
    for k in range(1, kmax + 1):
        model = build_model(spec, k)
        for mu in level_k_weights(spec, k):
            for index in np.ndindex(*(model.period,) * spec.rank):
                character_as_inner_product(model, index, mu)  # raises past 1e-10


def test_s_operator_built_once_and_read_only():
    model = build_model(A2, 2)
    s = s_operator(model)
    assert s_operator(model) is s
    assert s_operator(build_model(A2, 2)) is s  # an equal model hits the cache
    step, rows = s._inverse.axes[0]
    assert isinstance(rows, tuple) and isinstance(rows[0], tuple)
    # B = 3 C^-1 = P diag(1, 3) Q: one axis is read at multiples of 3 only
    # and is transformed first, folded to period L / 3 = 5
    assert [step for step, _ in s._inverse.axes] == [3, 1] and len(rows) == 5
    with pytest.raises(TypeError):
        rows[0][0] = 0.0
    fresh = FourierOperator(model)
    for v in [(0, 0), (1, 2), (5, 3)]:
        state = basis_state(model, v)
        assert s.apply(state) == fresh.apply(state)
        assert s.apply_inverse(state) == fresh.apply_inverse(state)


@pytest.mark.parametrize("series,rank,k", [("A", 1, 2), ("A", 2, 2), ("G", 2, 2)])
def test_s_apply_is_the_adjoint_kernel(series, rank, k):
    """S x equals the product with the explicit adjoint of the S^-1 kernel K,
    whose columns are S^-1 of the unit vectors of the cover, to rounding."""
    model = build_model(build_algebra(series, rank), k)
    s = s_operator(model)
    size = model.cover_size
    units = [tuple(1.0 if i == j else 0j for i in range(size)) for j in range(size)]
    # row w: conj of column w of K
    adjoint = np.array([s.apply_inverse(unit) for unit in units]).conj()
    rng = random.Random(5)
    states = [basis_state(model, v) for v in csmodel._sample_indices(model, 8)]
    states += [random_state(model, rng) for _ in range(4)]
    for state in states:
        assert max_gap(s.apply(state), adjoint @ np.array(state)) < 1e-14


def test_primary_state_copies_are_independent():
    model = build_model(A2, 2)
    first = primary_state(model, (1, 0))
    reference = tuple(first)
    with pytest.raises(TypeError):
        first[0] = 7.0
    again = primary_state(model, (1, 0))
    assert again == reference
    with pytest.raises(ValueError):
        primary_state(model, (3, 0))


def test_primary_state_cache_respects_entry_budget(monkeypatch):
    model = build_model(A2, 2)
    csmodel._state_cache.cache_clear()
    per_state = sum(1 for x in primary_state(model, (0, 1)) if x)
    csmodel._state_cache.cache_clear()
    monkeypatch.setattr(csmodel, "_STATE_CACHE_ENTRIES", 2 * per_state)
    weights = level_k_weights(A2, 2)
    table = operator_fusion_rows(model, (1, 0), [(0, 1)])[0]
    assert len(csmodel._state_cache(model)) == 2
    assert table == fuse_level_k(A2, (1, 0), (0, 1), 2)
    for r in weights:
        assert np.array_equal(oracle.to_array(model, primary_state(model, r)),
                              word_primary_state(model, r))


def test_operator_maps_share_the_entry_budget(monkeypatch):
    """Shift and phase maps are kept in the per-model store, under the same
    entry bound as the states; a map that does not fit is rebuilt, with the
    same values."""
    model = build_model(A2, 4)
    csmodel._state_cache.cache_clear()
    budget = 3 * model.cover_size
    monkeypatch.setattr(csmodel, "_STATE_CACHE_ENTRIES", budget)
    state = primary_state(model, (1, 1))
    product = wilson_operator(model, (2, 1)) @ clock_op(model, 1)
    first = product.apply(state)
    store = csmodel._state_cache(model)
    assert sum(map(len, store.values())) <= budget
    assert 0 < sum(key[0] in ("shift", "phase") for key in store) < len(product.terms)
    assert (wilson_operator(model, (2, 1)) @ clock_op(model, 1)).apply(state) == first
    assert max_gap(first, oracle.apply(product, oracle.to_array(model, state)).ravel()) < 1e-13
    csmodel._state_cache.cache_clear()


def _cold(fn, model, *args):
    """fn with the per-model caches emptied first."""
    csmodel.s_operator.cache_clear()
    csmodel._state_cache.cache_clear()
    return fn(model, *args)


@pytest.mark.parametrize("series,rank,k", [("A", 1, 6), ("A", 2, 4), ("G", 2, 2)])
def test_cached_values_equal_cold_values(series, rank, k):
    model = build_model(build_algebra(series, rank), k)
    weights = level_k_weights(model.spec, k)
    gammas = [tuple((3 * i + j) % model.period for j in range(rank)) for i in range(3)]
    char_cases = [(gamma, mu) for gamma in gammas for mu in weights]
    fusion_cases = [(mu, nu) for mu in weights for nu in weights][::3]
    cold_chars = [_cold(character_as_inner_product, model, *case) for case in char_cases]
    cold_tables = [_cold(operator_fusion_rows, model, mu, [nu])[0] for mu, nu in fusion_cases]
    for _ in range(2):
        assert [character_as_inner_product(model, *case) for case in char_cases] == cold_chars
        assert [operator_fusion_rows(model, mu, [nu])[0]
                for mu, nu in fusion_cases] == cold_tables


def test_fusion_from_operators_examples():
    m = build_model(A1, 2)
    assert operator_fusion_rows(m, (2,), [(2,)])[0] == {(0,): 1}
    for mu in level_k_weights(A1, 2):
        assert operator_fusion_rows(m, mu, [(0,)])[0] == {mu: 1}


@pytest.mark.parametrize("spec,kmax", [(A1, 4), (A2, 2)])
def test_three_way_fusion_agreement(spec, kmax):
    for k in range(1, kmax + 1):
        model = build_model(spec, k)
        weights = level_k_weights(spec, k)
        for mu in weights:
            for nu in weights:
                operator_table = operator_fusion_rows(model, mu, [nu])[0]
                assert operator_table == fuse_level_k(spec, mu, nu, k)
                assert operator_table == verlinde_table(spec, mu, nu, k)


def complex_entries(model, r) -> dict:
    """The kept nonzero amplitudes of psi_r, made complex."""
    return {i: complex(v) for i, v in csmodel._primary_entries(model, r).items()}


def complex_expansion_rows(model, mu, nus) -> list:
    """operator_fusion_rows in complex arithmetic: the image of psi_nu, with
    complex amplitudes, by LatticeOperator._image and each coefficient by
    csmodel._inner against the complex conjugate bra <psi_iota|, with the
    same integrality guard."""
    weights = level_k_weights(model.spec, model.k)
    operator = wilson_operator(model, mu)
    bras = [{i: v.conjugate() for i, v in complex_entries(model, iota).items()}
            for iota in weights]
    tables = []
    for nu in nus:
        image = operator._image(complex_entries(model, nu))
        table = {}
        for iota, bra in zip(weights, bras):
            coefficient = csmodel._inner(bra, image)
            nearest = round(coefficient.real)
            if abs(coefficient - nearest) > 1e-8:
                raise OracleMismatchError(f"coefficient {coefficient} at iota={iota}")
            if nearest:
                table[iota] = nearest
        tables.append(table)
    return tables


@pytest.mark.parametrize("series,rank,k", MODELS)
def test_real_expansion_equals_the_complex_expansion(series, rank, k):
    model = build_model(build_algebra(series, rank), k)
    weights = level_k_weights(model.spec, k)
    for mu in weights:
        assert operator_fusion_rows(model, mu, weights) == complex_expansion_rows(
            model, mu, weights)


def test_perturbed_primary_amplitude_raises(tmp_path, cold_caches, monkeypatch, capsys):
    """psi_(1,0) with one amplitude raised by a tenth: the real expansion
    leaves the integers, and verify A2 --k 4 --suite csmodel exits 3 on it."""
    model = build_model(A2, 4)
    entries = csmodel._primary_entries

    def bent(model, r):
        true = entries(model, r)
        if r != (1, 0):
            return true
        first = next(iter(true))
        return {**true, first: 1.1 * true[first]}

    monkeypatch.setattr(csmodel, "_primary_entries", bent)
    with pytest.raises(OracleMismatchError):
        complex_expansion_rows(model, (1, 0), [(0, 0)])
    with pytest.raises(OracleMismatchError, match="operator expansion coefficient"):
        operator_fusion_rows(model, (1, 0), [(0, 0)])
    csmodel._state_cache.cache_clear()
    assert csmodel_suite(tmp_path)[0] == 3
    assert "verification failure: operator expansion coefficient" in capsys.readouterr().err


@pytest.mark.parametrize("series,rank,k", [("A", 1, 4), ("A", 2, 3), ("G", 2, 2)])
def test_operator_rows_equal_verlinde_rows(series, rank, k):
    spec = build_algebra(series, rank)
    model = build_model(spec, k)
    weights = level_k_weights(spec, k)
    for mu in weights:
        rows = operator_fusion_rows(model, mu, weights)
        assert rows == [verlinde_table(spec, mu, nu, k) for nu in weights]
        assert rows[1:2] == operator_fusion_rows(model, mu, weights[1:2])


def bits(state) -> list:
    """The amplitudes of a state as the hex of their real and imaginary parts,
    so that equal lists mean equal bits, signed zeros included."""
    return [(z.real.hex(), z.imag.hex()) for z in state]


def one_term_states(model):
    """A dense state with no zero amplitude, a basis state, and the dense
    state with every third amplitude set to a zero of either sign."""
    dense = random_state(model, random.Random(11))
    zeros = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))
    partly_zero = tuple(zeros[i // 3 % 4] if i % 3 == 0 else z for i, z in enumerate(dense))
    return {"dense": dense, "basis": basis_state(model, (1,) * model.spec.rank),
            "partly zero": partly_zero}


@pytest.mark.parametrize("series,rank,k", [("A", 1, 6), ("A", 2, 4), ("G", 2, 2)])
def test_one_term_apply_equals_the_image_bit_for_bit(series, rank, k, monkeypatch):
    """Every shift_op and clock_op maps a state with no zero amplitude by one
    scatter or one phase map, and any other state through _image; the bits
    of the image are those of _image's either way."""
    model = build_model(build_algebra(series, rank), k)
    images = []
    true_image = csmodel.LatticeOperator._image

    def spy(op, entries):
        images.append(op)
        return true_image(op, entries)

    monkeypatch.setattr(csmodel.LatticeOperator, "_image", spy)
    ops = [make(model, j) for make in (shift_op, clock_op) for j in range(1, rank + 1)]
    for name, state in one_term_states(model).items():
        for op in ops:
            images.clear()
            image = op.apply(state)
            assert bits(image) == bits(true_image(op, csmodel._entries(state))), (name, op.terms)
            assert type(image) is tuple
            assert images == ([] if name == "dense" else [op])


def test_multi_term_operators_go_through_the_image(monkeypatch):
    """Wilson operators and one-term operators with a coefficient other than 1
    are applied by _image, also to a state with no zero amplitude; a one-term
    product with coefficient 1 (b_1 a_2, where the phase passes no shift) is
    one phase map and one scatter.  The bits are _image's every time."""
    model = build_model(A2, 4)
    dense = one_term_states(model)["dense"]
    calls = []
    true_image = csmodel.LatticeOperator._image
    monkeypatch.setattr(csmodel.LatticeOperator, "_image",
                        lambda op, entries: calls.append(op) or true_image(op, entries))
    through_image = [wilson_operator(model, (1, 0)),
                     wilson_operator(model, (1, 1)) @ clock_op(model, 1),
                     clock_op(model, 1) @ shift_op(model, 1),
                     csmodel.LatticeOperator(model, [(2.0, (1, 0), (0, 0))])]
    mapped = shift_op(model, 1) @ clock_op(model, 2)
    assert [len(op.terms) for op in through_image + [mapped]] == [3, 7, 1, 1, 1]
    for op in through_image + [mapped]:
        calls.clear()
        assert bits(op.apply(dense)) == bits(true_image(op, csmodel._entries(dense)))
        assert calls == ([] if op is mapped else [op])


@pytest.mark.parametrize("series,rank,k", [("A", 1, 6), ("A", 2, 3), ("C", 3, 1), ("G", 2, 2)])
def test_real_states_hold_floats(series, rank, k):
    """Basis and primary states and their kept entries are floats, and so is
    a Wilson operator's image of a primary; a clock operator's image is
    complex on its support."""
    model = build_model(build_algebra(series, rank), k)
    weights = level_k_weights(model.spec, k)
    v = (1,) * rank
    floats = [basis_state(model, v), csmodel._basis_entries(model, v).values()]
    for r in weights:
        psi = primary_state(model, r)
        floats += [psi, csmodel._primary_entries(model, r).values()]
        floats += [wilson_operator(model, mu).apply(psi) for mu in weights[:3]]
        image = clock_op(model, 1).apply(psi)
        assert {type(x) for x in image if x} == {complex}
    assert all(type(x) is float for values in floats for x in values)


def test_operator_terms_keep_real_coefficients_as_floats():
    model = build_model(A2, 2)
    op = csmodel.LatticeOperator(model, [(2, (1, 0), (0, 0)), (0.5, (0, 1), (0, 0)),
                                         (1j, (0, 0), (1, 0)), (1 + 0j, (1, 1), (0, 0))])
    assert [type(c) for c, _, _ in op.terms] == [float, float, complex, complex]
    assert {type(c) for c, _, _ in wilson_operator(model, (1, 1)).terms} == {float}
    assert {type(c) for c, _, _ in (shift_op(model, 1) @ clock_op(model, 1)).terms} == {complex}


def test_primary_overlaps_equal_the_inner_products_of_the_states():
    """The bras of the kept primaries give every <psi_r|psi_s> of the dense
    primaries, bit for bit, r outer and s inner."""
    model = build_model(A2, 3)
    weights = level_k_weights(A2, 3)
    states = [primary_state(model, r) for r in weights]
    expected = [(r, s, inner_product(psi_r, psi_s))
                for r, psi_r in zip(weights, states) for s, psi_s in zip(weights, states)]
    overlaps = list(csmodel.primary_overlaps(model, weights))
    assert [(r, s) for r, s, _ in overlaps] == [(r, s) for r, s, _ in expected]
    assert bits(value for _, _, value in overlaps) == bits(value for _, _, value in expected)


def segment_transform(op, state, plan):
    """FourierOperator._transform as a loop over the lines of each pass: a
    segment of L amplitudes is folded slice by slice unless it is all zero,
    and a line is summed row by row, column by column over its nonzero
    entries or not at all, as csmodel._line_transform decides."""
    data = list(map(state.__getitem__, plan.source))
    period = op.model.period
    for step, rows in plan.axes:
        size = period // step
        lines = []
        for start in range(0, len(data), period):
            segment = data[start:start + period]
            line = segment[:size]
            if any(segment):
                for offset in range(size, period, size):
                    line = [x + y for x, y in zip(line, segment[offset:offset + size])]
            lines.append(csmodel._line_transform(line, rows) if any(line) else [0j] * size)
        data = [value for column in zip(*lines) for value in column]
    values = [value / op._norm for value in data]
    return tuple(values[i] for i in plan.gather)


@pytest.mark.parametrize("series,rank,k", [("A", 1, 6), ("A", 2, 2), ("A", 2, 4), ("A", 2, 5),
                                           ("B", 2, 2), ("G", 2, 2)])
def test_fourier_passes_equal_the_segment_loop_bit_for_bit(series, rank, k):
    """S and S^-1 of dense, basis and partly zero states, and of the S images
    check_s_conjugation shifts, have the bits of the segment-by-segment loop."""
    model = build_model(build_algebra(series, rank), k)
    s = FourierOperator(model)
    states = list(one_term_states(model).values())
    states.append(s.apply(states[1]))
    for state in states:
        for plan, transform in ((s._adjoint, s.apply), (s._inverse, s.apply_inverse)):
            assert bits(transform(state)) == bits(segment_transform(s, state, plan))


def test_weyl_evenness_of_wilson_operators():
    """O_mu commutes with the Weyl action on states (images of primaries
    under O are Weyl-odd combinations again)."""
    m = build_model(A2, 2)
    op = wilson_operator(m, (1, 0))
    for nu in level_k_weights(A2, 2):
        image = op.apply(primary_state(m, nu))
        table = fuse_level_k(A2, (1, 0), nu, 2)
        rebuilt = sum(c * np.array(primary_state(m, w)) for w, c in table.items())
        assert max_gap(image, rebuilt) < 1e-12


def test_non_integrable_rejected():
    m = build_model(A1, 2)
    with pytest.raises(ValueError):
        primary_state(m, (3,))
    with pytest.raises(ValueError):
        operator_fusion_rows(m, (3,), [(0,)])
    with pytest.raises(ValueError):
        operator_fusion_rows(m, (0,), [(3,)])


@pytest.mark.parametrize("series,rank,k", [("B", 2, 2), ("C", 3, 1), ("G", 2, 1)])
def test_non_simply_laced_models(series, rank, k):
    """Outside ADE the affine-quotient construction still reproduces the
    fusion ring wherever the clock phases descend to it."""
    spec = build_algebra(series, rank)
    model = build_model(spec, k)
    weights = level_k_weights(spec, k)
    for r in weights:
        for s in weights:
            value = inner_product(primary_state(model, r), primary_state(model, s))
            assert abs(value - (1.0 if r == s else 0.0)) < 1e-12
    for mu in weights:
        for nu in weights:
            assert operator_fusion_rows(model, mu, [nu])[0] == fuse_level_k(spec, mu, nu, k)
    assert check_s_conjugation(model) < 1e-12


def test_clock_incompatible_algebra_rejected():
    with pytest.raises(ValueError, match="affine translation"):
        build_model(build_algebra("B", 3), 1)


# ---------------------------------------------------------------------------
# agreement with the numpy model of tests/csmodel_oracle.py

#: the golden and benchmark models: L = 16, 21, 24 and a non-symmetric C^-1
ORACLE_MODELS = [("A", 1, 6), ("A", 2, 4), ("A", 2, 5), ("G", 2, 2)]


def oracle_states(model):
    """Random dense states, random states on an eighth of the cover (lines
    with a few nonzero amplitudes) and sampled basis states."""
    rng = random.Random(model.period)
    states = [random_state(model, rng) for _ in range(3)]
    for _ in range(3):
        support = set(rng.sample(range(model.cover_size), model.cover_size // 8))
        states.append(tuple(x if i in support else 0j
                            for i, x in enumerate(random_state(model, rng))))
    return states + [basis_state(model, v) for v in oracle.sample_indices(model, 3)]


@pytest.mark.parametrize("series,rank,k", ORACLE_MODELS)
def test_fourier_operator_matches_the_dense_kernel(series, rank, k):
    model = build_model(build_algebra(series, rank), k)
    s, kernel = FourierOperator(model), oracle.FourierKernel(model)
    states = oracle_states(model)
    for state in states:
        array = oracle.to_array(model, state)
        assert max_gap(s.apply(state), kernel.apply(array).ravel()) < 1e-13
        assert max_gap(s.apply_inverse(state), kernel.apply_inverse(array).ravel()) < 1e-13


@pytest.mark.parametrize("series,rank,k", ORACLE_MODELS)
def test_lattice_operators_match_the_array_model(series, rank, k):
    model = build_model(build_algebra(series, rank), k)
    weights = level_k_weights(model.spec, k)
    operators = [clock_op(model, j) for j in range(1, rank + 1)]
    operators += [shift_op(model, j) for j in range(1, rank + 1)]
    operators += [shift_op(model, 1).dagger() @ clock_op(model, rank)]
    operators += [wilson_operator(model, mu) for mu in (weights[1], weights[-1])]
    operators += [wilson_operator(model, weights[1]) @ clock_op(model, 1)]
    states = oracle_states(model)
    states += [primary_state(model, r) for r in weights[:3]]
    stack = np.stack([oracle.to_array(model, state) for state in states])
    for op in operators:
        images = map(op.apply, states)
        reference = oracle.apply(op, stack)
        for image, expected in zip(images, reference):
            assert max_gap(image, expected.ravel()) < 1e-13


@pytest.mark.parametrize("series,rank,k", ORACLE_MODELS + [("A", 1, 1), ("A", 3, 1)])
def test_basis_and_primary_states_equal_the_array_model(series, rank, k):
    model = build_model(build_algebra(series, rank), k)
    for v in oracle.sample_indices(model, 8):
        assert np.array_equal(oracle.to_array(model, basis_state(model, v)),
                              oracle.basis_state(model, v))
    for r in level_k_weights(model.spec, k):
        assert np.array_equal(oracle.to_array(model, primary_state(model, r)),
                              oracle.primary_state(model, r))


@pytest.mark.parametrize("series,rank,k", ORACLE_MODELS + [("A", 1, 1), ("A", 3, 1)])
def test_sample_indices_equal_the_array_model(series, rank, k):
    model = build_model(build_algebra(series, rank), k)
    for count in (csmodel._COMMUTATOR_SAMPLE, csmodel._CONJUGATION_SAMPLE, 7):
        assert csmodel._sample_indices(model, count) == oracle.sample_indices(model, count)


def _matrix_product(a, b):
    return [[sum(x * y for x, y in zip(row, column)) for column in zip(*b)] for row in a]


def _determinant(matrix) -> int:
    if len(matrix) == 1:
        return matrix[0][0]
    return sum((-1) ** j * matrix[0][j] * _determinant([row[:j] + row[j + 1:]
                                                         for row in matrix[1:]])
               for j in range(len(matrix)))


@pytest.mark.parametrize("seed", range(6))
def test_diagonal_form_factors_integer_matrices(seed):
    """matrix = P diag(d) Q with unimodular P and Q, for the phase matrices
    B = q C^-1 of the models and for random nonsingular integer matrices."""
    rng = random.Random(seed)
    matrices = [build_model(build_algebra(*case[:2]), case[2]).phase_matrix
                for case in MODELS[seed::6]]
    while len(matrices) < len(MODELS[seed::6]) + 4:
        size = rng.randint(1, 4)
        matrix = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        if _determinant(matrix):
            matrices.append(matrix)
    for matrix in matrices:
        p, d, q = csmodel._diagonal_form(matrix)
        diagonal = [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]
        assert _matrix_product(_matrix_product(p, diagonal), q) == [list(row) for row in matrix]
        assert abs(_determinant(p)) == abs(_determinant(q)) == 1


# ---------------------------------------------------------------------------
# mutants of the model must fail a case of `verify A2 --k 4 --suite csmodel`

@pytest.fixture
def cold_caches():
    csmodel.s_operator.cache_clear()
    csmodel._state_cache.cache_clear()
    yield
    csmodel.s_operator.cache_clear()
    csmodel._state_cache.cache_clear()


def csmodel_suite(tmp_path):
    """(exit code, {case id prefix: passed}) of verify A2 --k 4 --suite csmodel."""
    path = tmp_path / "out.jsonl"
    code = cli.main(["verify", "A2", "--k", "4", "--suite", "csmodel", "--output", str(path)])
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return code, {record["case_id"].split(":")[0]: record["passed"] for record in records}


def test_csmodel_suite_passes_unmutated(tmp_path, cold_caches):
    code, passed = csmodel_suite(tmp_path)
    assert code == 0 and len(passed) == 5 and all(passed.values())


def test_suite_keeps_one_copy_per_primary(tmp_path, cold_caches):
    """After the suite the store holds each of the 15 primaries once, as
    floats; the other kept values are the S^-1 images of the primaries and
    the operators' shift and phase maps."""
    assert csmodel_suite(tmp_path)[0] == 0
    store = csmodel._state_cache(build_model(A2, 4))
    kinds = Counter(key[0] for key in store)
    assert kinds["primary"] == len(level_k_weights(A2, 4)) == 15
    assert set(kinds) == {"primary", "S^-1 primary", "shift", "phase"}
    assert all(type(x) is float
               for key, entries in store.items() if key[0] == "primary"
               for x in entries.values())


def test_transposed_fourier_kernel_fails_the_suite(tmp_path, cold_caches, monkeypatch):
    """S formed from the transpose of the S^-1 kernel instead of its adjoint
    (the root table left unconjugated)."""
    plan = csmodel._plan

    def transposed(model, relabel, steps, read, roots):
        return plan(model, relabel, steps, read, roots_of_unity(model.period))

    monkeypatch.setattr(csmodel, "_plan", transposed)
    code, passed = csmodel_suite(tmp_path)
    assert code == 3 and not passed["s-conjugation"]


def test_shift_by_two_fails_the_suite(tmp_path, cold_caches, monkeypatch):
    def shift_by_two(model, j):
        rank = model.spec.rank
        shift = tuple(2 * (i == j - 1) for i in range(rank))
        return csmodel.LatticeOperator(model, [(1.0, shift, (0,) * rank)])

    monkeypatch.setattr(csmodel, "shift_op", shift_by_two)
    code, passed = csmodel_suite(tmp_path)
    assert code == 3 and not passed["clock-commutator"] and not passed["s-conjugation"]


def test_dropped_radical_offset_fails_the_suite(tmp_path, cold_caches, monkeypatch):
    """basis_state without its last radical translate."""

    def dropped(model, v):
        amplitude = 1.0 / math.sqrt(len(model.radical))
        return csmodel._class_entries(model._replace(radical=model.radical[:-1]),
                                      [tuple(v)], [amplitude])

    monkeypatch.setattr(csmodel, "_basis_entries", dropped)
    code, passed = csmodel_suite(tmp_path)
    assert code == 3 and not passed["s-conjugation"]
