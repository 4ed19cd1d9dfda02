"""Tensor products, alcove folding, and the Verlinde oracle."""

import math
import re
from itertools import product

import pytest

from fusionkit import fusion, verlinde
from fusionkit.algebra import build_algebra, reflect_to_dominant, signed_orbit
from fusionkit.errors import CapExceeded, Caps, InvariantViolation, OracleMismatchError, use_caps
from fusionkit.fusion import (
    _shifted_terms,
    fuse_level_k,
    is_integrable,
    level_k_weights,
    tensor_decompose,
)
from fusionkit.phase import phase_kernel, phase_sums
from fusionkit.verlinde import verlinde_table
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


#: (algebra, highest level) of the Verlinde row checks
VERLINDE_ROW_CASES = [
    pytest.param(build_algebra(name[0], int(name[1:])), kmax, id=f"{name}-{kmax}")
    for name, kmax in [("A1", 6), ("A2", 4), ("B2", 2), ("G2", 2), ("D4", 1)]
]


@pytest.mark.parametrize("spec,kmax", VERLINDE_ROW_CASES)
def test_verlinde_rows_are_the_tables_of_their_pairs(spec, kmax):
    """One oracle row of mu gives, in order, the table of each nu: that of
    verlinde_table and that of the fold row."""
    for k in range(kmax + 1):
        weights = level_k_weights(spec, k)
        for mu in weights:
            rows = verlinde.verlinde_rows(spec, mu, weights, k)
            assert rows == [verlinde_table(spec, mu, nu, k) for nu in weights]
            assert rows == fusion.fuse_level_k_rows(spec, mu, weights, k)
        assert verlinde.verlinde_rows(spec, weights[-1], [], k) == []


def pairwise_ratios(spec, mu, nus, k, rows):
    """(nu, lam, ratio) for every nu and lam, each ratio a generator sum over
    sigma of t_sigma times S*_{lam sigma}, conjugated where it is read."""
    weights = level_k_weights(spec, k)
    vacuum, row_mu = rows[weights.index((0,) * spec.rank)], rows[weights.index(mu)]
    for nu in nus:
        t = [a * b / v for a, b, v in zip(row_mu, rows[weights.index(nu)], vacuum)]
        for lam, row_lam in zip(weights, rows):
            yield nu, lam, sum(t_sigma * s.conjugate() for t_sigma, s in zip(t, row_lam))


def test_perturbed_s_row_raises_through_the_rows(monkeypatch, capsys):
    """An S row bent by 0.05 in one entry makes a ratio of the rows path leave
    the integers: OracleMismatchError names the same first ratio, to the bit,
    as the pair-by-pair sum, and fuse --oracle exits 3."""
    from fusionkit import cli

    k, mu = 2, (1, 0)
    weights, rows = verlinde._s_matrix(A2, k)
    i = weights.index(mu)
    bent = rows[:i] + ((rows[i][0] + 0.05,) + rows[i][1:],) + rows[i + 1:]
    monkeypatch.setattr(verlinde, "_s_matrix", lambda spec, k: (weights, bent))
    nu, lam, total = next((nu, lam, total) for nu, lam, total
                          in pairwise_ratios(A2, mu, weights, k, bent)
                          if abs(total - round(total.real)) > 1e-6)
    message = f"Verlinde ratio {total} for N_{{{mu},{nu}}}^{lam} at k={k} "
    with pytest.raises(OracleMismatchError, match=re.escape(message)):
        verlinde.verlinde_rows(A2, mu, weights, k)
    assert cli.main(["fuse", "A2", "--k", "2", "--mu", "1,0", "--nu", "0,1", "--oracle"]) == 3
    assert "verification failure: Verlinde ratio" in capsys.readouterr().err


def full_row_s_matrix(spec, k):
    """The S matrix as it was first built: every row summed at every point
    by the phase kernel of G, then normalized by its hypot."""
    weights = level_k_weights(spec, k)
    kernel = phase_kernel(spec.quad_form, k + spec.dual_coxeter)
    points = [tuple(-b - 1 for b in beta) for beta in weights]
    rows = []
    for alpha in weights:
        images, signs, _ = signed_orbit(spec, tuple(a + 1 for a in alpha))
        row = phase_sums(kernel, images, signs, points)
        norm = math.hypot(*(part for x in row for part in (x.real, x.imag)))
        rows.append(tuple(x / norm for x in row))
    return tuple(weights), tuple(rows)


def s_bits(matrix):
    weights, rows = matrix
    return weights, [[(x.real.hex(), x.imag.hex()) for x in row] for row in rows]


@pytest.mark.parametrize("name,k", [("A1", 6), ("A2", 4), ("A3", 2), ("B2", 2), ("B3", 2),
                                    ("C3", 1), ("D4", 2), ("F4", 1), ("G2", 3), ("D5", 1)])
def test_s_matrix_from_its_upper_triangle_equals_full_rows(name, k):
    """Mirroring the entries below the diagonal changes no bit, signed zeros
    included, of the normalized rows."""
    spec = build_algebra(name[0], int(name[1:]))
    verlinde._s_matrix.cache_clear()
    assert s_bits(verlinde._s_matrix(spec, k)) == s_bits(full_row_s_matrix(spec, k))


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


# ---------------------------------------------------------------------------
# tensor rows: one table per nu, read from a memo of reductions per key offset


def signed_reflection_tensor(spec, mu, nu):
    """Oracle for the tensor memo: reduce every rho-shifted term on its own
    and accumulate in weight-system order."""
    counts = {}
    for beta, mult in _shifted_terms(spec, mu, nu):
        reduced, sign = reflect_to_dominant(spec, beta)
        if sign:
            summand = tuple(r - 1 for r in reduced)
            counts[summand] = counts.get(summand, 0) + mult * sign
    return {w: c for w, c in counts.items() if c}


@pytest.fixture
def cold_tensors():
    """Empty the tensor memos before and after a test, so a patched weight
    system neither meets nor leaves memoised entries."""
    fusion._tensor_memo.cache_clear()
    yield
    fusion._tensor_memo.cache_clear()


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A3"])
def test_tensor_row_is_the_tables_of_its_pairs(cold_tensors, name):
    """One row of mu gives each nu's table, equal in values and in item order
    (each summand where it first appears among V(mu)'s weights, not sorted)
    to the pair's tensor_decompose and to a reduction of each term alone."""
    spec = build_algebra(name[0], int(name[1:]))
    labels = list(product(range(3), repeat=spec.rank))
    unsorted = 0
    for mu in labels:
        row = fusion.tensor_decompose_rows(spec, mu, labels)
        assert len(row) == len(labels)
        for nu, table in zip(labels, row):
            expected = list(signed_reflection_tensor(spec, mu, nu).items())
            assert list(table.items()) == expected
            assert list(tensor_decompose(spec, mu, nu).items()) == expected
            unsorted += list(table) != sorted(table)
    assert unsorted or spec.rank == 1
    # a large nu keys its terms under a wider offset, in a memo of its own
    mu, wide = labels[-1], [tuple(1000 * (i + 1) for i in range(spec.rank))]
    assert fusion.tensor_decompose_rows(spec, mu, wide) == [
        signed_reflection_tensor(spec, mu, wide[0])]
    assert fusion._tensor_memo.cache_info().currsize == 2
    assert fusion.tensor_decompose_rows(spec, mu, []) == []


def test_tensor_memo_is_bounded(cold_tensors, monkeypatch):
    """Past its entry bound the memo keeps nothing new, and the tables stay
    the same."""
    assert fusion._tensor_memo.cache_info().maxsize is not None
    monkeypatch.setattr(fusion, "_TENSOR_MEMO_ENTRIES", 7)
    labels = list(product(range(3), repeat=2))
    for mu in labels:
        for nu, table in zip(labels, fusion.tensor_decompose_rows(A2, mu, labels)):
            assert list(table.items()) == list(signed_reflection_tensor(A2, mu, nu).items())
    memo = fusion._tensor_memo(A2, fusion._TENSOR_OFFSET)
    assert len(memo) == 7 and all(type(key) is int for key in memo)


def test_dim_cap_checked_on_a_warm_tensor_memo(cold_tensors):
    mu, labels = (2, 1), list(product(range(3), repeat=2))
    fusion.tensor_decompose_rows(A2, mu, labels)
    assert fusion._tensor_memo(A2, fusion._TENSOR_OFFSET)
    with use_caps(Caps(dim=weyl_dimension(A2, mu) - 1)):
        with pytest.raises(CapExceeded):
            fusion.tensor_decompose_rows(A2, mu, labels)
        with pytest.raises(CapExceeded):
            tensor_decompose(A2, mu, (0, 1))


@pytest.mark.parametrize("label", [-100, 100])
def test_label_outside_the_tensor_key_range_raises(cold_tensors, monkeypatch, label):
    """A weight whose term could share a key with another raises instead:
    mu = (1,) has level 1, so its terms are keyed under the least offset,
    whose digits hold labels in [-64, 64)."""
    broken = WeightSystem(A1, (1,), {(1,): 1, (-1,): 1, (label,): 1})
    monkeypatch.setattr(fusion, "_weight_system_cached",
                        lambda spec, mu: tuple(broken.entries.items()))
    with pytest.raises(InvariantViolation, match="outside the tensor key range"):
        tensor_decompose(A1, (1,), (1,))
    assert fusion._tensor_memo(A1, fusion._TENSOR_OFFSET) == {}


def test_tensor_accumulation_negative_raises(cold_tensors, monkeypatch):
    # an extra weight -4 shifts to beta = -2, which reflects to 2 with sign -1
    broken = WeightSystem(A1, (1,), {(1,): 1, (-1,): 1, (-4,): 1})
    monkeypatch.setattr(fusion, "_weight_system_cached",
                        lambda spec, mu: tuple(broken.entries.items()))
    with pytest.raises(InvariantViolation, match="signed tensor accumulation .* went negative"):
        tensor_decompose(A1, (1,), (1,))


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_term_keys_are_injective_at_the_least_offset(name):
    """At the least offset the key range guard lets through, nu's code plus a
    term's key tells every nu + mu' + rho with nu in [0, top]^rank apart."""
    spec = build_algebra(name[0], int(name[1:]))
    mu, top = (2,) * spec.rank, 2
    labels = [m + 1 for weight in weight_system(spec, mu).entries for m in weight]
    offset = max(-min(labels), max(labels) + top + 1)
    with pytest.raises(InvariantViolation, match="outside the tensor key range"):
        fusion._keyed_terms(spec, mu, offset - 1, top, "tensor")
    powers, terms = fusion._keyed_terms(spec, mu, offset, top, "tensor")
    betas = {}
    for nu in product(range(top + 1), repeat=spec.rank):
        code = sum(n * p for n, p in zip(nu, powers))
        for key, _, shift in terms:
            beta = tuple(n + s for n, s in zip(nu, shift))
            assert betas.setdefault(code + key, beta) == beta
    assert len(betas) == len(set(betas.values()))
