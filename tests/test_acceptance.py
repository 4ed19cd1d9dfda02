"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
status lines.  Tolerances are pinned here, not configurable.
"""

import math
import random
from itertools import product

import numpy as np
import pytest

from fusionkit.algebra import build_algebra, reflect_to_dominant
from fusionkit.characters import (
    GenericPoint,
    eval_char,
    eval_D,
)
from fusionkit.csmodel import (
    build_model,
    character_as_inner_product,
    check_clock_commutator,
    check_s_conjugation,
    operator_fusion_rows,
    primary_state,
)
from fusionkit.fusion import fuse_level_k, level_k_weights
from fusionkit.identity import (
    conjugacy_square_check,
    dim_bound,
    parseval_bound,
    verify_numerator_identity,
)
from fusionkit.theta import (
    ThetaContext,
    check_heat_equation,
    check_T_transform,
    theta_weyl,
    verify_kw_identity,
)
from fusionkit.verlinde import verlinde_table
from fusionkit.weights import square_sum

from character_oracle import lhs_char_sum, rhs_fusion_sum
from su2_oracle import su2_numerator_closed

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)


def _report(number: int, label: str):
    print(f"ACCEPTANCE {number:02d} [{label}]: PASS")


def _regular_points(spec, count, seed):
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        p = GenericPoint(tuple(1j * rng.uniform(0.2, 2.8) for _ in range(spec.rank)))
        if abs(eval_D(spec, spec.rho, p)) > 1e-6:
            points.append(p)
    return points


def test_criterion_01_su2_character_table():
    rng = random.Random(101)
    closed_forms = {
        (0,): lambda u: 1.0,
        (1,): lambda u: 2 * math.cos(u),
        (2,): lambda u: math.cos(2 * u) + 2 * math.cos(u) ** 2,
        (3,): lambda u: 4 * math.cos(u) * math.cos(2 * u),
    }
    for _ in range(20):
        u = rng.uniform(0.05, 3.1)
        point = GenericPoint((2j * u,))
        for mu, closed in closed_forms.items():
            assert abs(eval_char(A1, mu, point) - closed(u)) < 1e-10
    _report(1, "su(2) character table chi_0..chi_3")


def test_criterion_02_virtual_character_law():
    for m in range(1, 7):
        shifted, sign = reflect_to_dominant(A1, (1 - m,))  # -m + rho
        if m == 1:
            assert (shifted, sign) == (None, 0)        # chi_{-1} = 0
        else:
            assert (shifted, sign) == ((m - 1,), -1)   # chi_{-m} = -chi_{m-2}
    _report(2, "virtual law chi_{-m} = -chi_{m-2}, m = 1..6")


@pytest.mark.parametrize("spec,seed", [(A1, 301), (A2, 302)])
def test_criterion_03_theorem_at_algebra_level(spec, seed):
    labels = list(product(range(4), repeat=spec.rank))
    points = _regular_points(spec, 25, seed)
    worst = 0.0
    for mu in labels:
        for nu in labels:
            for point in points:
                lhs = lhs_char_sum(spec, mu, nu, point)
                rhs = rhs_fusion_sum(spec, mu, nu, point)
                worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-9
    _report(3, f"character-sum identity at k=inf on {spec}, residual {worst:.2e}")


def test_criterion_04_numerator_identity_on_variety():
    worst = 0.0
    for k in range(1, 7):
        gammas = [(g,) for g in range(2 * (k + 2))]
        for mu in level_k_weights(A1, k):
            for nu in level_k_weights(A1, k):
                report = verify_numerator_identity(A1, mu, nu, k, gammas, tolerance=1e-9)
                assert report.passed, (k, mu, nu)
                worst = max(worst, report.max_abs_residual)
    for k in range(1, 4):
        gammas = list(product(range(k + 3), repeat=2))
        for mu in level_k_weights(A2, k):
            for nu in level_k_weights(A2, k):
                report = verify_numerator_identity(A2, mu, nu, k, gammas, tolerance=1e-9)
                assert report.passed, (k, mu, nu)
                worst = max(worst, report.max_abs_residual)
    # negative control: one corrupted coefficient must break some residue
    corrupted = dict(fuse_level_k(A1, (2,), (1,), 3))
    corrupted[sorted(corrupted)[0]] += 1
    control = verify_numerator_identity(
        A1, (2,), (1,), 3, [(g,) for g in range(10)], coefficients=corrupted
    )
    assert not control.passed and control.witnesses
    _report(4, f"denominator-free identity on the variety, residual {worst:.2e}; "
               "corrupted-table control fails")


def test_criterion_05_level2_collapse():
    assert fuse_level_k(A1, (2,), (2,), 2) == {(0,): 1}
    grid = [(im * 1j, (u,)) for im in (0.5, 1.0, 2.0) for u in (0.05, 0.11, 0.23)]
    report = verify_kw_identity(A1, (2,), (2,), 2, grid, tolerance=1e-9)
    assert report.passed and report.points_checked == 9
    _report(5, f"k=2 collapse (2)x(2) -> vacuum, theta residual "
               f"{report.max_abs_residual:.2e}")


def test_criterion_06_parseval_bounds():
    constants = {(1, 0): 3, (1, 1): 10, (2, 0): 6}
    checked = 0
    for k in (1, 2, 3):
        for mu, constant in constants.items():
            if mu not in level_k_weights(A2, k):
                continue
            assert square_sum(A2, mu) == constant
            for sigma in level_k_weights(A2, k):
                lhs, rhs, ok = parseval_bound(A2, mu, sigma, k)
                assert ok and lhs <= constant
                checked += 1
    assert checked > 0
    _report(6, f"Parseval bounds <= 3 / 10 / 6 over {checked} cases")


def test_criterion_07_dimension_bound():
    checked = 0
    for k in range(1, 7):
        for mu in level_k_weights(A1, k):
            for nu in level_k_weights(A1, k):
                total, bound, ok = dim_bound(A1, mu, nu, k)
                assert ok, (k, mu, nu, total, bound)
                checked += 1
    for k in range(1, 4):
        for mu in level_k_weights(A2, k):
            for nu in level_k_weights(A2, k):
                total, bound, ok = dim_bound(A2, mu, nu, k)
                assert ok, (k, mu, nu, total, bound)
                checked += 1
    _report(7, f"fusion-channel count <= min dimension over {checked} pairs")


def test_criterion_08_conjugacy_symmetry():
    checked = 0
    for k in (1, 2, 3):
        weights = level_k_weights(A2, k)
        for a in weights:
            for b in weights:
                (s1, s2), (l1, l2) = conjugacy_square_check(A2, a, b, k)
                assert s1 == s2 and l1 == l2, (k, a, b)
                checked += 1
    _report(8, f"conjugacy symmetry of linear and squared sums over {checked} pairs")


def test_criterion_09_three_way_fusion_agreement():
    mismatches = 0
    checked = 0
    for spec, kmax in ((A1, 4), (A2, 2)):
        for k in range(1, kmax + 1):
            model = build_model(spec, k)
            weights = level_k_weights(spec, k)
            for mu in weights:
                for nu in weights:
                    folded = fuse_level_k(spec, mu, nu, k)
                    oracle = verlinde_table(spec, mu, nu, k)
                    operator = operator_fusion_rows(model, mu, [nu])[0]
                    checked += 1
                    if not (folded == oracle == operator):
                        mismatches += 1
    assert mismatches == 0
    _report(9, f"Kac-Walton = Verlinde = operator expansion on {checked} pairs")


def test_criterion_10_cs_model_structure():
    commutator_worst = 0.0
    for spec, kmax in ((A1, 6), (A2, 2)):
        for k in range(1, kmax + 1):
            commutator_worst = max(
                commutator_worst, check_clock_commutator(build_model(spec, k))
            )
    assert commutator_worst < 1e-12

    ortho_worst = 0.0
    for spec, kmax in ((A1, 4), (A2, 2)):
        for k in range(1, kmax + 1):
            model = build_model(spec, k)
            weights = level_k_weights(spec, k)
            for r in weights:
                psi_r = primary_state(model, r)
                for s in weights:
                    value = complex(np.vdot(psi_r, primary_state(model, s)))
                    ortho_worst = max(ortho_worst,
                                      abs(value - (1.0 if r == s else 0.0)))
    assert ortho_worst < 1e-12

    conj_worst = 0.0
    for spec, kmax in ((A1, 4), (A2, 2)):
        for k in range(1, kmax + 1):
            conj_worst = max(conj_worst, check_s_conjugation(build_model(spec, k)))
    assert conj_worst < 1e-10

    for k in range(1, 5):
        model = build_model(A1, k)
        for gamma in range(model.period):
            for mu in level_k_weights(A1, k):
                character_as_inner_product(model, (gamma,), mu)  # raises past 1e-10
    model = build_model(A2, 1)
    for gamma in product(range(model.period), repeat=2):
        for mu in level_k_weights(A2, 1):
            character_as_inner_product(model, gamma, mu)

    _report(10, f"cs-model structure: commutator {commutator_worst:.1e}, "
                f"orthonormality {ortho_worst:.1e}, S-conjugation {conj_worst:.1e}, "
                "character inner products within 1e-10")


def test_criterion_11_theta_functional_equations():
    t_worst = 0.0
    for spec, kmax in ((A1, 4), (A2, 3)):
        gammas = [spec.rho, (0,) * spec.rank, (1,) + (0,) * (spec.rank - 1)]
        for k in range(1, kmax + 1):
            for tau in (0.5j, 1j, 0.25 + 1.5j):
                ctx = ThetaContext(spec, k, tau, (0.1,) * spec.rank)
                for gamma in gammas:
                    t_worst = max(t_worst, check_T_transform(ctx, gamma))
    assert t_worst < 1e-10

    ratios = []
    for spec, kmax in ((A1, 4), (A2, 3)):
        for k in range(1, kmax + 1):
            ctx = ThetaContext(spec, k, 1j, tuple(0.07 + 0.02 * i
                                                  for i in range(spec.rank)))
            coarse = check_heat_equation(ctx, spec.rho, h=2e-3)
            fine = check_heat_equation(ctx, spec.rho, h=1e-3)
            ratio = coarse / fine
            assert 3.5 < ratio < 4.5, (spec.series, k, ratio)
            ratios.append(ratio)
    _report(11, f"theta T-transform residual {t_worst:.2e}; heat-equation "
                f"h^2 ratios in [{min(ratios):.2f}, {max(ratios):.2f}]")


def test_criterion_12_su2_theta_facts():
    worst = 0.0
    for k in (1, 2, 3):
        for tau, u in [(1j, 0.05), (0.6j, 0.17), (2j, 0.31)]:
            ctx = ThetaContext(A1, k + 2, tau, (u,))
            for j in range(k + 1):
                closed = su2_numerator_closed(j, k, tau, u)
                lattice = theta_weyl(ctx, (j + 1,))
                worst = max(worst, abs(closed - lattice))
            assert abs(su2_numerator_closed(k + 1, k, tau, u)) < 1e-11
            for j, m in [(k, 2), (k, k), (k - 1, k)]:
                if j + m <= k + 1 or m > k or j < 0:
                    continue
                lhs = su2_numerator_closed(j + m, k, tau, u)
                rhs = -su2_numerator_closed(2 * (k + 1) - j - m, k, tau, u)
                assert abs(lhs - rhs) < 1e-11
    assert worst < 1e-10
    _report(12, f"su(2)_k numerators: closed form vs lattice {worst:.2e}, "
                "chi_{k+1} = 0, reflection law")
