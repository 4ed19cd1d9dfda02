"""The character/fusion identity suites and the integer bounds."""

import math
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import fusionkit
from fusionkit.algebra import build_algebra
from fusionkit.errors import InvariantViolation
from fusionkit.characters import GenericPoint, eval_char, eval_D
from fusionkit.fusion import fuse_level_k, level_k_weights, tensor_decompose
from fusionkit.identity import (
    VerificationReport,
    conjugacy_square_check,
    dim_bound,
    lhs_char_sum,
    parseval_bound,
    rhs_fusion_sum,
    verify_lemma_weightsum,
    make_report,
    verify_numerator_identity,
)

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)


def regular_points(spec, count, seed):
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        p = GenericPoint(tuple(1j * rng.uniform(0.2, 2.8) for _ in range(spec.rank)))
        if abs(eval_D(spec, spec.rho, p)) > 1e-6:
            points.append(p)
    return points


def test_lhs_su2_examples():
    for p in regular_points(A1, 5, 1):
        # Omega_1 = {-1, 1}: chi_0 + chi_2
        expected = eval_char(A1, (0,), p) + eval_char(A1, (2,), p)
        assert abs(lhs_char_sum(A1, (1,), (1,), p) - expected) < 1e-12
        # Omega_2 = {-2, 0, 2} against nu=1: chi_{-1} drops out, chi_1 + chi_3
        expected = eval_char(A1, (1,), p) + eval_char(A1, (3,), p)
        assert abs(lhs_char_sum(A1, (2,), (1,), p) - expected) < 1e-12
        assert abs(lhs_char_sum(A1, (0,), (3,), p) - eval_char(A1, (3,), p)) < 1e-12


def test_rhs_tensor_and_fused():
    for p in regular_points(A1, 3, 2):
        expected = eval_char(A1, (0,), p) + eval_char(A1, (2,), p)
        assert abs(rhs_fusion_sum(A1, (1,), (1,), p) - expected) < 1e-12
    gamma_point = GenericPoint((0.9j,))
    assert abs(rhs_fusion_sum(A1, (2,), (2,), gamma_point, k=2)
               - eval_char(A1, (0,), gamma_point)) < 1e-12


@pytest.mark.parametrize("spec,seed", [(A1, 3), (A2, 4)])
def test_char_sum_equals_fusion_sum_at_algebra_level(spec, seed):
    labels = list(product(range(3), repeat=spec.rank))
    points = regular_points(spec, 5, seed)
    for mu in labels:
        for nu in labels:
            for p in points:
                lhs = lhs_char_sum(spec, mu, nu, p)
                rhs = rhs_fusion_sum(spec, mu, nu, p)
                assert abs(lhs - rhs) < 1e-9, (mu, nu)


def test_numerator_identity_su2_scan():
    gammas = [(g,) for g in range(12)]
    report = verify_numerator_identity(A1, (1,), (1,), 4, gammas)
    assert report.passed and report.max_abs_residual < 1e-10
    assert report.points_checked == 12
    assert report.witnesses == []


def test_numerator_identity_trivial_mu():
    report = verify_numerator_identity(A1, (0,), (2,), 3, [(g,) for g in range(10)])
    assert report.passed and report.max_abs_residual == 0.0


def test_tensor_table_folds_invisibly_on_the_variety():
    """On variety points the k=infinity table gives the same D-sums as the
    folded level-k table (chi_4 = -chi_2 on the 8th roots of unity): folding
    only removes wall terms and reflection pairs, which vanish there.  Table
    errors NOT of folding type are what the corruption control detects."""
    gammas = [(g,) for g in range(8)]
    good = verify_numerator_identity(A1, (2,), (2,), 2, gammas)
    swapped = verify_numerator_identity(
        A1, (2,), (2,), 2, gammas, coefficients=tensor_decompose(A1, (2,), (2,))
    )
    assert good.passed and swapped.passed


def test_corrupted_coefficient_detected():
    for mu, nu, k in [((1,), (2,), 3), ((2,), (2,), 2)]:
        table = dict(fuse_level_k(A1, mu, nu, k))
        target = sorted(table)[0]
        table[target] += 1
        gammas = [(g,) for g in range(2 * (k + 2))]
        report = verify_numerator_identity(A1, mu, nu, k, gammas, coefficients=table)
        assert not report.passed


# On a non-simply-laced algebra the points gamma^T C^-1 with integral gamma
# are only a sublattice of the weight-lattice points (short-root labels a
# multiple of 2 or 3), and there some D_{iota+rho} vanish or coincide, so a
# scan cannot see every wrong coefficient: B3 k=1 misses 5 of 9 corrupted
# tables and G2 k=2 misses 8 of 16, with or without the integer kernel.
_SUBLATTICE_BLIND = pytest.mark.xfail(
    strict=True, reason="C^-1-integral points do not separate all level-k characters")


@pytest.mark.parametrize("series,rank,k", [
    ("A", 2, 2),
    ("A", 3, 1),
    pytest.param("G", 2, 2, marks=_SUBLATTICE_BLIND),
    pytest.param("B", 3, 1, marks=_SUBLATTICE_BLIND),
])
def test_every_coefficient_raised_is_detected(series, rank, k):
    # Exact-zero residuals on correct tables must not hide a wrong one.
    spec = build_algebra(series, rank)
    level_shifted = k + spec.dual_coxeter
    gammas = list(product(range(level_shifted), repeat=rank))
    for mu in level_k_weights(spec, k):
        for nu in level_k_weights(spec, k):
            table = {w: n + 1 for w, n in fuse_level_k(spec, mu, nu, k).items()}
            report = verify_numerator_identity(spec, mu, nu, k, gammas, coefficients=table)
            assert not report.passed and report.max_abs_residual > 1, (mu, nu)
            assert report.points_checked == len(gammas)


def test_lemma_weightsum():
    report = verify_lemma_weightsum(A1, (3,), 4, [(g,) for g in range(12)])
    assert report.passed
    rng = random.Random(9)
    gammas = [tuple(rng.randrange(6) for _ in range(2)) for _ in range(30)]
    report = verify_lemma_weightsum(A2, (1, 1), 3, gammas)
    assert report.passed and report.max_abs_residual < 1e-9


def test_parseval_bound_values():
    for k in (1, 2, 3):
        for sigma in level_k_weights(A2, k):
            lhs, rhs, ok = parseval_bound(A2, (1, 0), sigma, k)
            assert ok and lhs <= 3
    lhs, rhs, ok = parseval_bound(A2, (1, 1), (0, 0), 2)
    assert ok and lhs == 1 and lhs <= 10  # vacuum fusion: a single channel
    lhs, rhs, ok = parseval_bound(A2, (2, 0), (1, 1), 3)
    assert ok and rhs <= 6


def test_dim_bound_values():
    total, bound, ok = dim_bound(A1, (1,), (1,), 2)
    assert (total, bound, ok) == (2, 2, True)
    total, bound, ok = dim_bound(A1, (0,), (2,), 3)
    assert (total, bound, ok) == (1, 1, True)
    for mu in level_k_weights(A2, 3):
        for nu in level_k_weights(A2, 3):
            assert dim_bound(A2, mu, nu, 3)[2]


def test_conjugacy_check():
    check = conjugacy_square_check(A2, (1, 0), (1, 0), 2)
    s1, s2 = check.square_sums
    assert s1 == s2 and check.squares_equal
    assert check.linear_equal
    # self-conjugate b: trivially equal
    check = conjugacy_square_check(A2, (1, 0), (1, 1), 3)
    assert check.squares_equal and check.linear_equal
    with pytest.warns(UserWarning):
        conjugacy_square_check(build_algebra("B", 2), (1, 0), (0, 1), 2)


def test_report_invariants():
    report = verify_numerator_identity(A1, (1,), (1,), 2, [(1,), (3,)])
    assert report.passed == (report.max_abs_residual <= report.tolerance)
    record = report.to_dict()
    assert record["witnesses"] == []
    assert record["passed"] is True
    with pytest.raises(InvariantViolation):
        VerificationReport("bad", 1, 2.0, True, 1.0, [])
    with pytest.raises(InvariantViolation):
        VerificationReport("bad", 1, 0.0, True, 1.0, [("p", 0j, 1j)])


def test_report_invariants_under_optimize():
    """python -O strips asserts; the report checks must still raise."""
    script = ("from fusionkit.errors import InvariantViolation\n"
              "from fusionkit.identity import VerificationReport\n"
              "try:\n"
              "    VerificationReport('bad', 1, 2.0, True, 1.0, [])\n"
              "except InvariantViolation:\n"
              "    raise SystemExit(0)\n"
              "raise SystemExit(1)\n")
    src = str(Path(fusionkit.__file__).resolve().parent.parent)
    finished = subprocess.run([sys.executable, "-O", "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
    assert finished.returncode == 0, finished.stderr


@pytest.mark.parametrize("lhs,rhs", [(complex(math.nan, 0), 0j),
                                     (complex(math.inf, 0), complex(math.inf, 0))])
def test_non_finite_residual_fails(lhs, rhs):
    report = make_report("non-finite", 1e-9, [("p0", 0j, 0j), ("p1", lhs, rhs)])
    assert not report.passed
    assert report.max_abs_residual == math.inf
    assert [point for point, _, _ in report.witnesses] == ["p1"]


def test_empty_residual_stream_is_an_error():
    with pytest.raises(ValueError):
        make_report("empty", 1e-9, [])
    with pytest.raises(ValueError):
        verify_numerator_identity(A1, (1,), (1,), 2, [])
