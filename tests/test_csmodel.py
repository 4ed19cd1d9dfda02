"""Clock/shift operators, primary states, the S operator, and operator fusion."""

import cmath
import math

import numpy as np
import pytest

from fusionkit import csmodel
from fusionkit.algebra import _coroot_labels, build_algebra
from fusionkit.csmodel import (
    FourierOperator,
    basis_state,
    build_model,
    character_as_inner_product,
    check_clock_commutator,
    check_s_conjugation,
    clock_op,
    operator_fusion_rows,
    primary_state,
    s_operator,
    shift_op,
    wilson_operator,
)
from fusionkit.errors import CapExceeded, Caps, use_caps
from fusionkit.fusion import fuse_level_k, level_k_weights, verlinde_table

from weyl_oracle import apply_word, weyl_elements, word_sign

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)


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
        assert np.array_equal(primary_state(model, r), word_primary_state(model, r))


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


def test_a1_level2_clock_eigenvalues_are_eighth_roots():
    m = build_model(A1, 2)
    a = clock_op(m, 1)
    eigenvalues = set()
    for v in range(8):
        state = basis_state(m, (v,))
        image = a.apply(state)
        eigenvalues.add(complex(image[(v,)] / state[(v,)]).conjugate().conjugate())
    roots = {cmath.exp(2j * cmath.pi * n / 8) for n in range(8)}
    assert all(min(abs(e - r) for r in roots) < 1e-12 for e in eigenvalues)
    assert len({round(cmath.phase(e), 9) for e in eigenvalues}) == 8


def test_clock_shift_unitary_and_idempotent():
    m = build_model(A1, 2)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
    for op in (clock_op(m, 1), shift_op(m, 1)):
        assert abs(np.linalg.norm(op.apply(psi)) - np.linalg.norm(psi)) < 1e-12
        # order divides L: applying L times is the identity
        state = psi
        for _ in range(m.period):
            state = op.apply(state)
        assert np.abs(state - psi).max() < 1e-10


def test_clock_commutator_phase():
    m = build_model(A1, 2)
    # a b a^-1 b^-1 = exp(2 pi i (1/2) / 4) = exp(i pi / 4) on every state
    a, b = clock_op(m, 1), shift_op(m, 1)
    group = a @ b @ a.dagger() @ b.dagger()
    psi = basis_state(m, (0,))
    ratio = group.apply(psi)[(0,)] / psi[(0,)]
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
                value = complex(np.vdot(states[r], states[s]))
                assert abs(value - (1.0 if r == s else 0.0)) < 1e-12


def test_primary_count_a1_level2():
    m = build_model(A1, 2)
    nonzero = [r for r in level_k_weights(A1, 2)
               if np.linalg.norm(primary_state(m, r)) > 1e-12]
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
    rng = np.random.default_rng(7)
    psi = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
    assert np.abs(identity_op.apply(psi) - psi).max() == 0
    # Omega_1 = {-1, +1}: shift up plus shift down
    op = wilson_operator(m, (1,))
    b = shift_op(m, 1)
    expected = b.apply(psi) + b.dagger().apply(psi)
    assert np.abs(op.apply(psi) - expected).max() < 1e-12


@pytest.mark.parametrize("spec,k", [(A1, 2), (A1, 4), (A2, 1), (A2, 2)])
def test_state_operator_correspondence(spec, k):
    model = build_model(spec, k)
    psi0 = primary_state(model, (0,) * spec.rank)
    for mu in level_k_weights(spec, k):
        image = wilson_operator(model, mu).apply(psi0)
        assert np.abs(image - primary_state(model, mu)).max() < 1e-12


def test_s_vacuum_is_uniform():
    m = build_model(A1, 2)
    state = s_operator(m).apply_inverse(basis_state(m, (0,)))
    assert np.allclose(state, 1.0 / math.sqrt(8))
    m2 = build_model(A2, 1)
    state2 = s_operator(m2).apply_inverse(basis_state(m2, (0, 0)))
    # uniform over the 48 physical states = constant on the covering array
    assert np.allclose(state2, state2[(0, 0)])
    assert abs(np.linalg.norm(state2) - 1.0) < 1e-12


def test_s_unitary_on_a1():
    m = build_model(A1, 2)
    s = s_operator(m)
    rng = np.random.default_rng(11)
    for _ in range(10):
        psi = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
        assert abs(np.linalg.norm(s.apply(psi)) - np.linalg.norm(psi)) < 1e-12
        assert np.abs(s.apply(s.apply_inverse(psi)) - psi).max() < 1e-12


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
    assert not s._kernel_inv.flags.writeable
    with pytest.raises(ValueError):
        s._kernel_inv[0, 0] = 0.0
    fresh = FourierOperator(model)
    for v in [(0, 0), (1, 2), (5, 3)]:
        state = basis_state(model, v)
        assert np.array_equal(s.apply(state), fresh.apply(state))
        assert np.array_equal(s.apply_inverse(state), fresh.apply_inverse(state))


@pytest.mark.parametrize("series,rank,k", [("A", 1, 2), ("A", 2, 2), ("G", 2, 2)])
def test_s_apply_is_the_adjoint_kernel(series, rank, k):
    """S x = conj(K^T conj(x)) equals the product with the explicit adjoint
    of the stored S^-1 kernel K, bit for bit."""
    model = build_model(build_algebra(series, rank), k)
    s = s_operator(model)
    adjoint = s._kernel_inv.conj().T
    rng = np.random.default_rng(5)
    states = [basis_state(model, v) for v in csmodel._sample_indices(model, 8)]
    states += [rng.normal(size=model.shape) + 1j * rng.normal(size=model.shape)
               for _ in range(4)]
    for state in states:
        expected = (adjoint @ state.ravel()).reshape(model.shape)
        assert np.array_equal(s.apply(state), expected)


def test_primary_state_copies_are_independent():
    model = build_model(A2, 2)
    first = primary_state(model, (1, 0))
    reference = first.copy()
    assert first.flags.writeable
    first[...] = 7.0
    again = primary_state(model, (1, 0))
    assert again is not first and np.array_equal(again, reference)
    with pytest.raises(ValueError):
        primary_state(model, (3, 0))


def test_primary_state_cache_respects_byte_budget(monkeypatch):
    model = build_model(A2, 2)
    csmodel._state_cache.cache_clear()
    monkeypatch.setattr(csmodel, "_STATE_CACHE_BYTES", 2 * model.cover_size * 16)
    weights = level_k_weights(A2, 2)
    table = operator_fusion_rows(model, (1, 0), [(0, 1)])[0]
    assert len(csmodel._state_cache(model)) == 2
    assert table == fuse_level_k(A2, (1, 0), (0, 1), 2)
    for r in weights:
        assert np.array_equal(primary_state(model, r), word_primary_state(model, r))


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


@pytest.mark.parametrize("series,rank,k", [("A", 1, 4), ("A", 2, 3), ("G", 2, 2)])
def test_operator_rows_equal_verlinde_rows(series, rank, k):
    spec = build_algebra(series, rank)
    model = build_model(spec, k)
    weights = level_k_weights(spec, k)
    for mu in weights:
        rows = operator_fusion_rows(model, mu, weights)
        assert rows == [verlinde_table(spec, mu, nu, k) for nu in weights]
        assert rows[1:2] == operator_fusion_rows(model, mu, weights[1:2])


def test_operator_applies_to_a_stack_of_states():
    model = build_model(A2, 2)
    op = wilson_operator(model, (1, 1)) @ clock_op(model, 1)
    states = [primary_state(model, r) for r in level_k_weights(A2, 2)]
    stacked = op.apply(np.stack(states))
    for state, image in zip(states, stacked):
        assert np.array_equal(op.apply(state), image)


def test_weyl_evenness_of_wilson_operators():
    """O_mu commutes with the Weyl action on states (images of primaries
    under O are Weyl-odd combinations again)."""
    m = build_model(A2, 2)
    op = wilson_operator(m, (1, 0))
    for nu in level_k_weights(A2, 2):
        image = op.apply(primary_state(m, nu))
        table = fuse_level_k(A2, (1, 0), nu, 2)
        rebuilt = sum(c * primary_state(m, w) for w, c in table.items())
        assert np.abs(image - rebuilt).max() < 1e-12


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
            value = complex(np.vdot(primary_state(model, r), primary_state(model, s)))
            assert abs(value - (1.0 if r == s else 0.0)) < 1e-12
    for mu in weights:
        for nu in weights:
            assert operator_fusion_rows(model, mu, [nu])[0] == fuse_level_k(spec, mu, nu, k)
    assert check_s_conjugation(model) < 1e-12


def test_clock_incompatible_algebra_rejected():
    with pytest.raises(ValueError, match="affine translation"):
        build_model(build_algebra("B", 3), 1)
