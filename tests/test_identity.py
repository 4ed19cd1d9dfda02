"""The character/fusion identity suites and the integer bounds."""

import math
import os
import random
import subprocess
import sys
import warnings
from itertools import product
from pathlib import Path

import pytest

import fusionkit
from fusionkit import cli, fusion
from fusionkit.algebra import build_algebra
from fusionkit.errors import DEFAULT_CAPS, CapExceeded, Caps, InvariantViolation, use_caps
from fusionkit.characters import GenericPoint, alternating_sums, eval_char, eval_D
from fusionkit.fusion import fuse_level_k, level_k_weights, tensor_decompose
from fusionkit.identity import (
    VerificationReport,
    check_identity,
    conjugacy_square_check,
    dim_bound,
    integer_report,
    parseval_bound,
    verify_lemma_weightsum,
    make_report,
    verify_numerator_identity,
)

from character_oracle import lhs_char_sum, rhs_fusion_sum

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


@pytest.mark.parametrize("helper", [parseval_bound, dim_bound])
def test_bound_helpers_check_the_dim_cap_on_both_weights(helper):
    """The bounds read cached dimensions and square sums, not weight systems;
    the dim cap still applies to each weight, on warm caches too."""
    big = (2, 1)  # dim 15
    for mu, nu in [(big, (0, 0)), ((0, 0), big)]:
        assert helper(A2, mu, nu, 3)[2]
        with use_caps(Caps(dim=14)):
            with pytest.raises(CapExceeded):
                helper(A2, mu, nu, 3)


def test_conjugacy_check():
    (s1, s2), (l1, l2) = conjugacy_square_check(A2, (1, 0), (1, 0), 2)
    assert s1 == s2 and l1 == l2
    # self-conjugate b: trivially equal
    (s1, s2), (l1, l2) = conjugacy_square_check(A2, (1, 0), (1, 1), 3)
    assert s1 == s2 and l1 == l2
    with pytest.warns(UserWarning):
        conjugacy_square_check(build_algebra("B", 2), (1, 0), (0, 1), 2)


@pytest.mark.parametrize("name,trivial", [("A1", True), ("D4", True), ("B2", True),
                                          ("G2", True), ("A2", False), ("D5", False),
                                          ("E6", False)])
def test_conjugacy_check_warns_exactly_when_conjugation_is_trivial(name, trivial):
    """The warning follows -w0 on the fundamental weights, not the series:
    A1 and D4 are self-conjugate, D5 and E6 are not."""
    spec = build_algebra(name[0], int(name[1:]))
    zero = (0,) * spec.rank
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert conjugacy_square_check(spec, zero, zero, 1) == ((1, 1), (1, 1))
    expected = f"{spec} admits no complex representations; conjugacy check is trivial"
    assert [str(w.message) for w in caught] == ([expected] if trivial else [])
    assert all(w.filename == __file__ for w in caught)  # the caller's line


def helper_reports(spec, k):
    """The bounds and conjugacy reports assembled pair by pair from the
    public helpers, in the suites' case order."""
    weights = level_k_weights(spec, k)
    parseval, dims, conjugacy = [], [], []
    for mu in weights:
        for sigma in weights:
            lhs, rhs, ok = parseval_bound(spec, mu, sigma, k)
            parseval.append((f"mu={mu},sigma={sigma}", lhs, rhs, ok, max(0, lhs - rhs)))
            total, bound, ok = dim_bound(spec, mu, sigma, k)
            dims.append((f"mu={mu},nu={sigma}", total, bound, ok, max(0, total - bound)))
            (s1, s2), (l1, l2) = conjugacy_square_check(spec, mu, sigma, k)
            conjugacy.append((f"a={mu},b={sigma}", s1, s2, s1 == s2 and l1 == l2,
                              abs(s1 - s2) + abs(l1 - l2)))
    return [integer_report(f"parseval-bound:{spec}:k={k}", parseval),
            integer_report(f"dimension-bound:{spec}:k={k}", dims),
            integer_report(f"conjugacy-squares:{spec}:k={k}", conjugacy)]


@pytest.mark.filterwarnings("ignore:.* admits no complex representations")
@pytest.mark.parametrize("mutant", [False, True], ids=["true", "plus-one"])
@pytest.mark.parametrize("name,k", [("A2", 3), ("A3", 2), ("B2", 2), ("D5", 1),
                                    ("G2", 3), ("F4", 1)])
def test_row_suites_match_the_public_helpers(monkeypatch, name, k, mutant):
    """The bounds and conjugacy suites read one fold row per weight; their
    reports equal those of the per-pair helpers, witnesses in the same
    order, also when the fold adds one to the first channel of every table
    with mu < nu (asymmetric, so a transposed or mispartnered read shows)."""
    spec = build_algebra(name[0], int(name[1:]))
    if mutant:
        true_rows = fusion.fuse_level_k_rows

        def plus_one_above_the_diagonal(spec, mu, nus, k):
            rows = true_rows(spec, mu, nus, k)
            for nu, table in zip(nus, rows):
                if tuple(mu) < tuple(nu):
                    table[min(table)] += 1
            return rows

        monkeypatch.setattr(fusion, "fuse_level_k_rows", plus_one_above_the_diagonal)
    config = cli.RunConfig(spec, k, 1e-9, DEFAULT_CAPS, 0, None, "json")
    reports = [report for suite in ("bounds", "conjugacy")
               for report, _, _ in cli._SUITES[suite](spec, config)]
    assert reports == helper_reports(spec, k)
    assert all(r.passed for r in reports) != mutant
    assert all(bool(r.witnesses) != r.passed for r in reports)


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


def scan_report(spec, mu, nu, k, gammas, tolerance):
    """The two-sided scan of the true table, with no netting."""
    level_shifted = k + spec.dual_coxeter
    return check_identity(
        f"numerator-identity:{spec}:k={k}:mu={mu}:nu={nu}", spec, mu, nu,
        fuse_level_k(spec, mu, nu, k), gammas,
        lambda terms, points: alternating_sums(spec, terms, points, level_shifted), tolerance)


@pytest.mark.parametrize("gammas", [[], (), iter([])])
def test_netted_case_without_points_is_an_error(gammas):
    """The rows of a true table net to zero, yet a case with no points to
    check still raises."""
    with pytest.raises(ValueError, match="no points to check"):
        verify_numerator_identity(A2, (1, 0), (0, 1), 2, gammas)


@pytest.mark.parametrize("gammas", [[(0, 0, 0)], [(0, 0), (1,)], [(1, 2), (0, 1, 2)]])
def test_netted_case_rejects_points_of_the_wrong_length(gammas):
    with pytest.raises(ValueError, match="length 2"):
        verify_numerator_identity(A2, (1, 0), (0, 1), 2, gammas)


def test_negative_tolerance_falls_back_to_the_scan():
    """No residual is at most a negative tolerance: every point is walked
    and is a witness, as in the two-sided scan."""
    gammas = list(product(range(5), repeat=2))
    report = verify_numerator_identity(A2, (1, 0), (0, 1), 2, gammas, tolerance=-1.0)
    assert not report.passed and len(report.witnesses) == len(gammas) == 25
    assert report.to_dict() == scan_report(A2, (1, 0), (0, 1), 2, gammas, -1.0).to_dict()


def test_nan_tolerance_falls_back_to_the_scan():
    """A NaN tolerance breaks the report's invariants on the scan, and so it
    does on a case whose rows net to zero."""
    gammas = list(product(range(5), repeat=2))
    with pytest.raises(InvariantViolation):
        scan_report(A2, (1, 0), (0, 1), 2, gammas, math.nan)
    with pytest.raises(InvariantViolation):
        verify_numerator_identity(A2, (1, 0), (0, 1), 2, gammas, tolerance=math.nan)
