"""Tensor products, alcove folding, and the Verlinde oracle."""

from itertools import product

import pytest

from fusionkit import fusion
from fusionkit.algebra import build_algebra
from fusionkit.errors import CapExceeded, Caps, InvariantViolation, use_caps
from fusionkit.fusion import (
    _shifted_terms,
    fuse_level_k,
    is_integrable,
    level_k_weights,
    tensor_decompose,
    verlinde_table,
)
from fusionkit.weights import WeightSystem, conjugate, weight_system, weyl_dimension

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)


def test_tensor_su2_examples():
    assert tensor_decompose(A1, (1,), (1,)) == {(0,): 1, (2,): 1}
    assert tensor_decompose(A1, (2,), (1,)) == {(1,): 1, (3,): 1}
    assert tensor_decompose(A1, (0,), (5,)) == {(5,): 1}


@pytest.mark.parametrize("mu,nu", [((1, 0), (0, 2)), ((2, 1), (1, 1)), ((3, 0), (0, 0))])
def test_shifted_terms_follow_the_weight_system(mu, nu):
    """nu + mu' + rho with the multiplicity of mu', in weight-system order,
    under the dim cap that weight_system enforces."""
    expected = [(tuple(n + m + 1 for n, m in zip(nu, mu_prime)), mult)
                for mu_prime, mult in weight_system(A2, mu).entries.items()]
    assert _shifted_terms(A2, mu, nu) == expected
    with use_caps(Caps(dim=weyl_dimension(A2, mu) - 1)), pytest.raises(CapExceeded):
        _shifted_terms(A2, mu, nu)


def test_tensor_symmetry():
    for mu, nu in [((2,), (3,)), ((1,), (4,))]:
        assert tensor_decompose(A1, mu, nu) == tensor_decompose(A1, nu, mu)
    assert tensor_decompose(A2, (1, 0), (1, 1)) == tensor_decompose(A2, (1, 1), (1, 0))


@pytest.mark.parametrize("spec", [A1, A2])
def test_tensor_dimension_sum_rule(spec):
    labels = list(product(range(4), repeat=spec.rank))
    for mu in labels:
        for nu in labels:
            table = tensor_decompose(spec, mu, nu)
            total = sum(c * weyl_dimension(spec, w) for w, c in table.items())
            assert total == weyl_dimension(spec, mu) * weyl_dimension(spec, nu)


def test_fuse_su2_collapse_at_level_2():
    assert fuse_level_k(A1, (2,), (2,), 2) == {(0,): 1}


def test_fuse_equals_tensor_at_large_level():
    for mu, nu in [((2,), (2,)), ((3,), (1,))]:
        k = mu[0] + nu[0]
        assert fuse_level_k(A1, mu, nu, k) == tensor_decompose(A1, mu, nu)


def test_fuse_su2_closed_rule():
    for k in range(1, 7):
        for j in range(k + 1):
            for m in range(k + 1):
                expected = {(t,): 1 for t in
                            range(abs(j - m), min(j + m, 2 * k - j - m) + 1, 2)}
                assert fuse_level_k(A1, (j,), (m,), k) == expected


def test_fuse_rejects_non_integrable():
    with pytest.raises(ValueError):
        fuse_level_k(A1, (3,), (0,), 2)
    with pytest.raises(ValueError):
        fuse_level_k(A2, (1, 1), (0, 0), 1)


def test_fusion_below_tensor_entrywise():
    for k in (1, 2, 3):
        for mu in level_k_weights(A2, k):
            for nu in level_k_weights(A2, k):
                fused = fuse_level_k(A2, mu, nu, k)
                full = tensor_decompose(A2, mu, nu)
                for w, c in fused.items():
                    assert c <= full.get(w, 0)


def test_level_k_weights_examples():
    assert level_k_weights(A1, 2) == [(0,), (1,), (2,)]
    assert level_k_weights(A2, 1) == [(0, 0), (0, 1), (1, 0)]
    assert level_k_weights(A2, 0) == [(0, 0)]
    b2 = build_algebra("B", 2)
    assert level_k_weights(b2, 1) == [(0, 0), (0, 1), (1, 0)]


def test_level_k_weights_is_a_fresh_list_per_call():
    """The weights are cached per (spec, k); a caller mutating its list
    cannot change what the next caller gets."""
    first = level_k_weights(A2, 2)
    expected = list(first)
    first.append((9, 9))
    first.reverse()
    second = level_k_weights(A2, 2)
    assert second == expected
    assert second is not first
    with pytest.raises(ValueError):
        level_k_weights(A2, -1)


def test_integrability_predicate():
    assert is_integrable(A2, (1, 1), 2)
    assert not is_integrable(A2, (1, 1), 1)
    assert not is_integrable(A2, (-1, 0), 5)


def test_verlinde_examples():
    assert verlinde_table(A1, (2,), (2,), 2) == {(0,): 1}
    for nu in level_k_weights(A1, 3):
        assert verlinde_table(A1, (0,), nu, 3) == {nu: 1}
    assert verlinde_table(A2, (1, 0), (1, 0), 1) == {(0, 1): 1}


def test_verlinde_rejects_non_integrable_weights():
    with pytest.raises(ValueError, match=r"\(3, 0\) is not integrable"):
        verlinde_table(A2, (3, 0), (1, 0), 2)
    with pytest.raises(ValueError, match="level must be nonnegative"):
        verlinde_table(A2, (0, 0), (0, 0), -1)


#: (algebra, highest level) beyond A1 and A2, one per remaining series
RING_AXIOM_CASES = [
    pytest.param(build_algebra(name[0], int(name[1:])), kmax, id=f"{name}-{kmax}")
    for name, kmax in [("B3", 2), ("C3", 2), ("D4", 1), ("E6", 1), ("F4", 1), ("G2", 3)]
]


@pytest.mark.parametrize("spec,kmax", [(A1, 6), (A2, 4)] + RING_AXIOM_CASES)
def test_oracle_equivalence(spec, kmax):
    for k in range(1, kmax + 1):
        weights = level_k_weights(spec, k)
        for mu in weights:
            for nu in weights:
                assert fuse_level_k(spec, mu, nu, k) == verlinde_table(spec, mu, nu, k)


@pytest.mark.parametrize("spec,kmax", [(A1, 4), (A2, 2)] + RING_AXIOM_CASES)
def test_fusion_ring_commutative_and_associative(spec, kmax):
    for k in range(1, kmax + 1):
        weights = level_k_weights(spec, k)
        tables = {(mu, nu): fuse_level_k(spec, mu, nu, k)
                  for mu in weights for nu in weights}
        for mu in weights:
            for nu in weights:
                assert tables[mu, nu] == tables[nu, mu]
        for mu in weights:
            for nu in weights:
                for lam in weights:
                    left = {}
                    for sigma, c in tables[mu, nu].items():
                        for tau, d in tables[sigma, lam].items():
                            left[tau] = left.get(tau, 0) + c * d
                    right = {}
                    for sigma, c in tables[nu, lam].items():
                        for tau, d in tables[mu, sigma].items():
                            right[tau] = right.get(tau, 0) + c * d
                    assert left == right


def test_conjugation_covariance():
    for k in (1, 2, 3):
        weights = level_k_weights(A2, k)
        for mu in weights:
            for nu in weights:
                table = fuse_level_k(A2, mu, nu, k)
                table_bar = fuse_level_k(A2, conjugate(A2, mu), conjugate(A2, nu), k)
                assert table_bar == {conjugate(A2, w): c for w, c in table.items()}


def two_step_fuse(spec, mu, nu, k):
    """Oracle for the memoised fold: decompose mu (x) nu at k = infinity, then
    fold each netted summand into the level-(k+c) alcove on its own."""
    counts = {}
    for summand, mult in tensor_decompose(spec, mu, nu).items():
        folded, sign = fusion._fold_to_alcove(
            spec, tuple(s + 1 for s in summand), k + spec.dual_coxeter
        )
        if sign:
            target = tuple(f - 1 for f in folded)
            counts[target] = counts.get(target, 0) + mult * sign
    return {w: c for w, c in counts.items() if c}


@pytest.fixture
def cold_folds():
    """Empty the fold memos before and after a test, so a patched fold
    neither meets nor leaves memoised entries."""
    fusion._fold_memo.cache_clear()
    yield
    fusion._fold_memo.cache_clear()


@pytest.mark.parametrize("name,kmax", [("A1", 4), ("A2", 3), ("A3", 2), ("B2", 2),
                                       ("C3", 1), ("D4", 1), ("G2", 3), ("F4", 1)])
def test_memoised_fold_matches_two_step_fold(cold_folds, name, kmax):
    spec = build_algebra(name[0], int(name[1:]))
    entries = []
    for k in range(kmax + 1):
        weights = level_k_weights(spec, k)
        for mu in weights:
            for nu in weights:
                assert fuse_level_k(spec, mu, nu, k) == two_step_fuse(spec, mu, nu, k)
        entries += fusion._fold_memo(spec, k + spec.dual_coxeter).values()
    # both kinds of wall were met: a finite one, and an affine one after reduction
    assert any(sign == 0 for _, sign, _, _ in entries)
    assert any(sign != 0 and folded == 0 for _, sign, _, folded in entries)


def test_fold_memo_is_bounded(cold_folds, monkeypatch):
    assert fusion._fold_memo.cache_info().maxsize is not None
    monkeypatch.setattr(fusion, "_FOLD_MEMO_ENTRIES", 7)
    k = 3
    weights = level_k_weights(A2, k)
    for mu in weights:
        for nu in weights:
            assert fuse_level_k(A2, mu, nu, k) == two_step_fuse(A2, mu, nu, k)
    assert len(fusion._fold_memo(A2, k + A2.dual_coxeter)) == 7


def test_finite_accumulation_negative_raises(cold_folds, monkeypatch):
    # an extra weight -4 shifts to beta = -2, which reflects to 2 with sign -1
    broken = WeightSystem(A1, (1,), {(1,): 1, (-1,): 1, (-4,): 1})
    monkeypatch.setattr(fusion, "_weight_system_cached",
                        lambda spec, mu: tuple(broken.entries.items()))
    with pytest.raises(InvariantViolation, match="signed tensor accumulation .* went negative"):
        fuse_level_k(A1, (1,), (1,), 3)


@pytest.mark.parametrize("label", [-100, 100])
def test_label_outside_the_fold_key_range_raises(cold_folds, monkeypatch, label):
    """A weight whose beta could share a fold key with another raises
    instead: at k = 3 (K = 5) the key digits hold labels in [-20, 20)."""
    broken = WeightSystem(A1, (1,), {(1,): 1, (-1,): 1, (label,): 1})
    monkeypatch.setattr(fusion, "_weight_system_cached",
                        lambda spec, mu: tuple(broken.entries.items()))
    with pytest.raises(InvariantViolation, match="outside the fold key range"):
        fuse_level_k(A1, (1,), (1,), 3)
    assert fusion._fold_memo(A1, 5) == {}


def test_row_is_the_tables_of_its_pairs(cold_folds):
    """One row of mu gives, in order, the table of each nu, and rows of one
    level share one fold memo keyed by integers."""
    k = 3
    weights = level_k_weights(A2, k)
    for mu in weights:
        assert fusion.fuse_level_k_rows(A2, mu, weights, k) == [
            two_step_fuse(A2, mu, nu, k) for nu in weights]
    memo = fusion._fold_memo(A2, k + A2.dual_coxeter)
    assert memo and all(type(key) is int for key in memo)
    assert fusion.fuse_level_k_rows(A2, (1, 0), [], k) == []


def test_folded_accumulation_negative_raises(cold_folds, monkeypatch):
    monkeypatch.setattr(fusion, "_fold_to_alcove", lambda spec, beta, level: (beta, -1))
    with pytest.raises(InvariantViolation, match="folded accumulation .* went negative"):
        fuse_level_k(A1, (1,), (1,), 3)


def test_fold_leaving_the_alcove_raises(cold_folds, monkeypatch):
    monkeypatch.setattr(fusion, "_fold_to_alcove", lambda spec, beta, level: (beta, 1))
    with pytest.raises(InvariantViolation, match="left the level-k alcove"):
        fuse_level_k(A1, (1,), (1,), 1)


def test_fold_limit_raises(cold_folds, monkeypatch):
    monkeypatch.setattr(fusion, "_FOLD_LIMIT", 0)
    with pytest.raises(InvariantViolation, match="did not terminate"):
        fuse_level_k(A1, (1,), (1,), 2)
