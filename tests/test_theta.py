"""Lattice theta sums: truncation soundness, functional equations, and the
finite-tau character identity."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fusionkit.algebra import build_algebra, signed_orbit
from fusionkit.characters import GenericPoint, eval_char
from fusionkit.errors import CapExceeded, SingularPointError
from fusionkit.fusion import level_k_weights
from fusionkit.theta import (
    TRUNCATION_EPSILON,
    ThetaContext,
    _lattice_points,
    _smallest_eigenvalue,
    _theta_raw,
    check_heat_equation,
    check_T_transform,
    kac_weyl_char,
    theta_sum,
    theta_weyl,
    truncation,
    verify_kw_identity,
)
from fusionkit.algebra import integer_gram, pairing_numerator

from su2_oracle import su2_numerator_closed
from weyl_oracle import apply_word, weyl_elements, word_sign

A1 = build_algebra("A", 1)
A2 = build_algebra("A", 2)
A3 = build_algebra("A", 3)
D4 = build_algebra("D", 4)

GRID = [(im * 1j, (0.05, 0.11, 0.23)) for im in (0.5, 1.0, 2.0)]


def a1_grid():
    return [(tau, (u,)) for tau, us in GRID for u in us]


def test_scalar_oracle_a1():
    """A1 theta at level 4, gamma=(1): the root normalization (alpha^2 = 2)
    reduces to a 1-d Gaussian sum over n + 1/8 with weight 8 pi."""
    ctx = ThetaContext(A1, 4, 1j, (0.0,))
    oracle = sum(math.exp(-8 * math.pi * (n + 0.125) ** 2) for n in range(-50, 51))
    assert abs(theta_sum(ctx, (1,)) - oracle) < 1e-13


def test_root_lattice_periodicity():
    ctx = ThetaContext(A1, 4, 0.9j, (0.07,))
    assert abs(theta_sum(ctx, (1,)) - theta_sum(ctx, (1 + 4 * 2,))) < 1e-13
    ctx2 = ThetaContext(A2, 3, 1.1j, (0.03, 0.08))
    shifted = (1 + 3 * 2, 2 - 3 * 1)  # gamma + k * alpha_1
    assert abs(theta_sum(ctx2, (1, 2)) - theta_sum(ctx2, shifted)) < 1e-12


def test_u_periodicity_under_roots():
    # f_k(tau, u + beta) = f_k(tau, u) for beta in the root lattice
    base = ThetaContext(A1, 3, 1j, (0.21,))
    moved = ThetaContext(A1, 3, 1j, (0.21 + 2.0,))  # alpha = (2) in Dynkin labels
    assert abs(theta_sum(base, (1,)) - theta_sum(moved, (1,))) < 1e-11
    base2 = ThetaContext(A2, 2, 1j, (0.1, 0.2))
    moved2 = ThetaContext(A2, 2, 1j, (0.1 + 2.0, 0.2 - 1.0))
    assert abs(theta_sum(base2, (1, 0)) - theta_sum(moved2, (1, 0))) < 1e-11


def test_projective_periodicity_under_tau_shifts():
    # f_k(tau, u + tau beta) = exp(-i pi k tau (beta,beta) - 2 pi i k (beta,u)) f_k(tau, u)
    tau = 1.3j
    k = 2
    beta = (2,)  # the A1 simple root; (beta, beta) = 2
    u = 0.17
    base = theta_sum(ThetaContext(A1, k, tau, (u,)), (1,))
    moved = theta_sum(ThetaContext(A1, k, tau, (u + tau * 2,)), (1,))
    factor = cmath.exp(-1j * math.pi * k * tau * 2 - 2j * math.pi * k * (2 * u * 0.5))
    assert abs(moved - factor * base) < 1e-12 * abs(moved)  # relative: |moved| is large


def test_truncation_soundness():
    ctx = ThetaContext(A2, 3, 0.6j, (0.04, 0.09))
    gamma = (2, 1)
    radius = truncation(ctx, gamma).radius
    value = _theta_raw(A2, 3, ctx.tau, ctx.u, gamma, radius)
    doubled = _theta_raw(A2, 3, ctx.tau, ctx.u, gamma, 2 * radius)
    assert abs(value - doubled) < TRUNCATION_EPSILON


def test_weyl_antisymmetrization():
    ctx = ThetaContext(A2, 4, 1j, (0.06, 0.13))
    # wall gamma: exact zero by cancellation before summation
    assert theta_weyl(ctx, (0, 2)) == 0
    # antisymmetry under a simple reflection: s_1(2,1) = (-2, 3)
    assert theta_weyl(ctx, (-2, 3)) == -theta_weyl(ctx, (2, 1))


@pytest.mark.parametrize("spec,levels,gammas", [
    (A1, (1, 2, 3, 4), [(0,), (1,), (2,)]),
    (A2, (1, 2, 3), [(0, 0), (1, 1), (2, 1)]),
])
def test_T_transform(spec, levels, gammas):
    for level in levels:
        for tau in (0.5j, 1j, 0.25 + 1.5j):
            ctx = ThetaContext(spec, level, tau, (0.1,) * spec.rank)
            for gamma in gammas:
                assert check_T_transform(ctx, gamma) < 1e-10


def test_heat_equation_convergence():
    for ctx, gamma in [
        (ThetaContext(A1, 3, 1j, (0.07,)), (1,)),
        (ThetaContext(A2, 2, 1j, (0.07, 0.11)), (1, 0)),
    ]:
        coarse = check_heat_equation(ctx, gamma, h=2e-3)
        fine = check_heat_equation(ctx, gamma, h=1e-3)
        assert 3.5 < coarse / fine < 4.5
    assert check_heat_equation(ThetaContext(A1, 4, 1j, (0.0,)), (0,), h=1e-3) < 1e-6


def test_heat_equation_single_term():
    """Each lattice summand is an exact solution; with the sum truncated to
    the nearest point the finite-difference residual still scales as h^2."""
    gamma = (1,)
    coarse = abs(_single_term_residual(gamma, 2e-3))
    fine = abs(_single_term_residual(gamma, 1e-3))
    assert 3.5 < coarse / fine < 4.5


def _single_term_residual(gamma, h):
    level = 4
    tau = 1j
    # radius below the lattice spacing keeps only alpha = 0
    def value(tau_, u):
        return _theta_raw(A1, level, tau_, (u,), gamma, 0.9)

    u0 = 0.05
    lap = 2.0 * (value(tau, u0 + h) - 2 * value(tau, u0) + value(tau, u0 - h)) / (h * h)
    dtau = (value(tau + h, u0) - value(tau - h, u0)) / (2 * h)
    return lap - 4j * math.pi * level * dtau


def test_kac_weyl_char_basics():
    ctx = ThetaContext(A1, 4, 1j, (0.06,))
    assert abs(kac_weyl_char(ctx, (0,)) - 1) < 1e-12
    assert abs(kac_weyl_char(ctx, (3,))) < 1e-12  # virtual chi_{k+1} at k=2
    ctx2 = ThetaContext(A2, 4, 1j, (0.05, 0.08))
    assert abs(kac_weyl_char(ctx2, (0, 0)) - 1) < 1e-12


def test_kac_weyl_char_matches_su2_closed_form():
    for k in (1, 2, 3):
        ctx = ThetaContext(A1, k + 2, 0.8j, (0.09,))
        for j in range(k + 1):
            expected = (su2_numerator_closed(j, k, 0.8j, 0.09)
                        / su2_numerator_closed(0, k, 0.8j, 0.09))
            assert abs(kac_weyl_char(ctx, (j,)) - expected) < 1e-10


def test_kac_weyl_tau_to_infinity_is_trig_character():
    tau = 30j
    u = 0.21
    level = 4  # k = 2
    ctx = ThetaContext(A1, level, tau, (u,))
    for mu in [(0,), (1,), (2,)]:
        mu_rho = (mu[0] + 1,)
        scale = cmath.exp(
            1j * math.pi * tau
            * (pairing_numerator(A1, mu_rho, mu_rho) - pairing_numerator(A1, (1,), (1,)))
            / integer_gram(A1)[0] / level
        )
        trig = eval_char(A1, mu, GenericPoint((2j * math.pi * u,)))
        assert abs(kac_weyl_char(ctx, mu) / scale - trig) < 1e-9


def test_kw_identity_collapse_at_level_2():
    report = verify_kw_identity(A1, (2,), (2,), 2, a1_grid())
    assert report.passed and report.max_abs_residual < 1e-9
    assert report.points_checked == 9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_kw_identity_all_pairs_a1(k):
    for mu in level_k_weights(A1, k):
        for nu in level_k_weights(A1, k):
            report = verify_kw_identity(A1, mu, nu, k, a1_grid())
            assert report.passed, (mu, nu, report.max_abs_residual)


def test_kw_identity_trivial_mu():
    report = verify_kw_identity(A1, (0,), (1,), 2, a1_grid())
    assert report.max_abs_residual == 0.0


def test_su2_closed_form_against_theta_weyl():
    for (j, k, tau, u) in [(1, 2, 1j, 0.05), (0, 1, 0.7j, 0.13), (2, 3, 0.5j, 0.21)]:
        ctx = ThetaContext(A1, k + 2, tau, (u,))
        lhs = su2_numerator_closed(j, k, tau, u)
        rhs = theta_weyl(ctx, (j + 1,))
        assert abs(lhs - rhs) < 1e-10


def test_su2_closed_form_vanishing_and_reflection():
    for k in (1, 2, 3):
        for (tau, u) in [(1j, 0.05), (0.6j, 0.17)]:
            assert abs(su2_numerator_closed(k + 1, k, tau, u)) < 1e-11
            for j_plus_m in range(k + 2, 2 * k + 2):
                lhs = su2_numerator_closed(j_plus_m, k, tau, u)
                rhs = -su2_numerator_closed(2 * (k + 1) - j_plus_m, k, tau, u)
                assert abs(lhs - rhs) < 1e-11


def test_context_validation():
    with pytest.raises(ValueError):
        ThetaContext(A1, 4, 1.0 + 0j, (0.1,))       # Im tau <= 0
    with pytest.raises(ValueError):
        ThetaContext(build_algebra("B", 2), 3, 1j, (0.1, 0.1))  # not simply laced
    with pytest.raises(ValueError):
        ThetaContext(A1, 0, 1j, (0.1,))
    with pytest.raises(ValueError):
        theta_sum(ThetaContext(A1, 2, 1j, (0.1,)), (1, 2))
    with pytest.raises(CapExceeded):
        theta_sum(ThetaContext(A1, 2, 1e-7j, (0.0,)), (1,))
    with pytest.raises(SingularPointError):
        kac_weyl_char(ThetaContext(A1, 4, 1j, (0.0,)), (1,))  # u=0 kills Theta^-


NON_FINITE = [float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
def test_context_rejects_non_finite_tau_and_u(bad):
    for tau in (complex(bad, 1.0), complex(0.0, bad)):
        with pytest.raises(ValueError, match="tau must be finite"):
            ThetaContext(A1, 4, tau, (0.1,))
    for u in ((bad,), (complex(0.1, bad),)):
        with pytest.raises(ValueError, match="u must be finite"):
            ThetaContext(A1, 4, 1j, u)


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
def test_su2_closed_form_rejects_non_finite_tau_and_u(bad):
    for tau, u in [(complex(bad, 1.0), 0.05), (complex(0.0, bad), 0.05), (1j, bad),
                   (1j, complex(0.0, bad))]:
        with pytest.raises(ValueError, match="must be finite"):
            su2_numerator_closed(1, 2, tau, u)


# ---------------------------------------------------------------------------
# Differential oracle: the plain box scan in Fraction arithmetic.


def _fraction_norm_sq(spec, vec):
    g = spec.quad_form
    total = Fraction(0)
    for i, vi in enumerate(vec):
        if vi:
            total += vi * sum(g[i][j] * vec[j] for j in range(spec.rank))
    return total


def box_scan_shifts(spec, gamma, level, radius):
    """Every n in the box |n_i| <= bound with float(|v|^2) <= radius^2, where
    v = gamma/level + n C in exact rationals: {(|v|^2, v as floats)}.

    A float norm first skips the candidates that are far outside; every
    candidate whose float norm is below radius^2 + 1e-6 gets the exact
    Fraction test."""
    rank = spec.rank
    gram, eig_min = spec.cartan, _smallest_eigenvalue(spec.cartan)
    shift = [Fraction(g, level) for g in gamma]
    shift_norm = math.sqrt(float(_fraction_norm_sq(spec, shift)))
    bound = math.ceil((radius + shift_norm) / math.sqrt(eig_min))
    root_shift = np.array(shift, dtype=float) @ np.linalg.inv(np.array(spec.cartan, dtype=float))
    box = (np.indices((2 * bound + 1,) * rank).reshape(rank, -1).T - bound).astype(float)
    x = box + root_shift
    near = np.einsum("ij,jk,ik->i", x, gram, x) <= radius * radius + 1e-6
    kept = set()
    for n in box[near].astype(int).tolist():
        v = [shift[j] + sum(n[i] * spec.cartan[i][j] for i in range(rank)) for j in range(rank)]
        norm_sq = float(_fraction_norm_sq(spec, v))
        if norm_sq <= radius * radius:
            kept.add((norm_sq, tuple(float(vj) for vj in v)))
    return kept


def box_scan_theta(spec, level, tau, u, gamma, radius):
    gu = np.array(spec.quad_form, dtype=float) @ np.array(u, dtype=complex)
    return sum(
        cmath.exp(1j * math.pi * level * tau * norm_sq
                  + 1j * 2 * math.pi * level * complex(np.array(v) @ gu))
        for norm_sq, v in sorted(box_scan_shifts(spec, gamma, level, radius))
    )


def enumerated(spec, gamma, level, radius):
    norms, columns, _ = _lattice_points(spec, tuple(gamma), level, radius)
    found = set(zip(norms, zip(*columns)))
    assert len(found) == len(norms)  # no point twice
    return found


def _shift_cases(spec, level):
    rank = spec.rank
    return [
        (0,) * rank,
        (1,) + (0,) * (rank - 1),
        tuple(-1 if i % 2 else 2 for i in range(rank)),   # negative labels
        (level + 1,) * rank,                              # gamma >= level
        (-level - 2,) + (1,) * (rank - 1),
    ]


@pytest.mark.parametrize("spec,levels,radius", [
    (A1, (1, 2, 5), 4.0), (A2, (1, 2, 5), 3.0), (A3, (1, 2, 5), 2.5), (D4, (1, 2, 5), 2.0),
])
def test_enumeration_matches_box_scan(spec, levels, radius):
    for level in levels:
        for gamma in _shift_cases(spec, level):
            assert enumerated(spec, gamma, level, radius) == \
                box_scan_shifts(spec, gamma, level, radius), (level, gamma)


@pytest.mark.parametrize("spec", [A1, A2, A3, D4])
def test_enumeration_at_context_radius(spec):
    """The radii the theta functions actually use, at several tau."""
    u = tuple(0.05 + 0.01 * i for i in range(spec.rank))
    for tau in (1j, 0.5j, 0.3 + 2j):
        ctx = ThetaContext(spec, 2, tau, u)
        for gamma in _shift_cases(spec, 2)[:3]:
            radius = truncation(ctx, gamma).radius
            assert enumerated(spec, gamma, 2, radius) == box_scan_shifts(spec, gamma, 2, radius)


@pytest.mark.parametrize("spec,level,tau", [
    (A1, 5, 0.3 + 2j), (A2, 2, 0.5j), (A3, 1, 0.3 + 2j), (D4, 1, 1j),
])
def test_theta_raw_matches_box_scan_sum(spec, level, tau):
    u = tuple(0.05 + 0.01 * i for i in range(spec.rank))
    ctx = ThetaContext(spec, level, tau, u)
    for gamma in _shift_cases(spec, level)[:3]:
        radius = truncation(ctx, gamma).radius
        expected = box_scan_theta(spec, level, ctx.tau, ctx.u, gamma, radius)
        got = _theta_raw(spec, level, ctx.tau, ctx.u, gamma, radius)
        assert abs(got - expected) <= 1e-12 * abs(expected)


def test_enumeration_beyond_int64_products():
    """A level of 10^9 puts level^2 D past 2^53; the Python-int path keeps
    the exact membership test and the correctly rounded floats."""
    level = 10**9
    for gamma in [(1,), (3 * level + 7,)]:
        assert enumerated(A1, gamma, level, 3.0) == box_scan_shifts(A1, gamma, level, 3.0)


def test_enumeration_bounded_memory():
    """D4 at level 1 and gamma = (7,7,7,7): summed from gamma itself the
    radius would be 17 and the walk would keep 1,517,161 points.  gamma lies
    in the root lattice, so the sum starts from the representative 0, at
    radius 4 with 625 points, and is the same sum."""
    ctx = ThetaContext(D4, 1, 1j, (0.05, 0.02, 0.01, 0.03))
    gamma = (7, 7, 7, 7)
    cut = truncation(ctx, gamma)
    assert cut.shift == (0, 0, 0, 0)
    assert (cut.radius, cut.lattice_points) == (4.0, 625)
    assert cut.tail_bound < TRUNCATION_EPSILON
    value = theta_sum(ctx, gamma)
    assert value == theta_sum(ctx, cut.shift)
    # the same points, enumerated around the unreduced centre
    assert value == _theta_raw(D4, 1, ctx.tau, ctx.u, gamma, cut.radius)
    assert abs(value - 1.0405239877472405) < 1e-15


def test_point_cap_checked_by_both_walks(monkeypatch):
    """_POINT_CAP bounds the representative search as well as the sum's
    enumeration, also for shifts already seen."""
    from fusionkit import theta

    ctx = ThetaContext(A2, 7, 0.5j, (0.05, 0.02))
    theta._representative.cache_clear()
    monkeypatch.setattr(theta, "_POINT_CAP", 0)
    with pytest.raises(CapExceeded):
        truncation(ctx, (123, -45))
    monkeypatch.setattr(theta, "_POINT_CAP", 1 << 23)
    cut = truncation(ctx, (123, -45))
    theta._point_store.clear()
    monkeypatch.setattr(theta, "_POINT_CAP", cut.lattice_points - 1)
    with pytest.raises(CapExceeded):
        theta_sum(ctx, (123, -45))


def brute_representative(spec, gamma, level):
    """Shortest gamma + level n C by a scan of the box of every n within
    |gamma / level| / sqrt(lambda_min) of the coset centre, in exact int64
    norms; ties go to the smallest labels."""
    rank = spec.rank
    cartan = np.array(spec.cartan, dtype=np.int64)
    eig = np.linalg.eigvalsh(cartan.astype(float)).min()
    d, dg = integer_gram(spec)
    start = pairing_numerator(spec, gamma, gamma) / (d * level * level)
    center = np.rint(-np.linalg.solve(cartan.T.astype(float), np.array(gamma, float)) / level)
    half = math.ceil(math.sqrt(start / eig)) + 1
    box = np.indices((2 * half + 1,) * rank).reshape(rank, -1).T - half + center.astype(np.int64)
    w = np.array(gamma, dtype=np.int64) + level * (box @ cartan)
    norms = ((w @ np.array(dg, dtype=np.int64)) * w).sum(axis=1)
    order = np.lexsort(tuple(w.T[::-1]) + (norms,))
    return tuple(int(x) for x in w[order[0]])


@pytest.mark.parametrize("spec,levels", [
    (A1, (1, 2, 3, 5)), (A2, (1, 2, 3, 5)), (A3, (1, 2, 3)), (D4, (1, 2)),
])
def test_coset_representative_is_shortest(spec, levels):
    rng = random.Random(7)
    for level in levels:
        gammas = _shift_cases(spec, level)
        gammas += [tuple(rng.randint(-level - 2, level + 2) for _ in range(spec.rank))
                   for _ in range(4)]
        ctx = ThetaContext(spec, level, 1j, (0.05,) * spec.rank)
        for gamma in gammas:
            assert truncation(ctx, gamma).shift == brute_representative(spec, gamma, level), \
                (level, gamma)


@pytest.mark.parametrize("spec,level", [(A1, 3), (A2, 2), (A3, 1), (A3, 3), (D4, 2)])
def test_theta_constant_on_cosets(spec, level):
    """Theta_gamma = Theta_{gamma + k beta} for root-lattice beta: the same
    representative and the same value, which the box scan around the moved
    centre confirms."""
    rng = random.Random(11)
    u = tuple(0.05 + 0.01 * i for i in range(spec.rank))
    ctx = ThetaContext(spec, level, 0.3 + 1.2j, u)
    for gamma in _shift_cases(spec, level)[:3]:
        value = theta_sum(ctx, gamma)
        for _ in range(3):
            coefficients = [rng.randint(-1, 1) for _ in range(spec.rank)]
            moved = tuple(g + level * sum(c * row[j] for c, row in zip(coefficients, spec.cartan))
                          for j, g in enumerate(gamma))
            assert truncation(ctx, moved).shift == truncation(ctx, gamma).shift
            assert theta_sum(ctx, moved) == value
            radius = truncation(ctx, moved).radius
            expected = box_scan_theta(spec, level, ctx.tau, ctx.u, moved, radius)
            assert abs(value - expected) <= 1e-12 * abs(expected)


def test_smallest_eigenvalue_exact_on_a1_a2():
    assert _smallest_eigenvalue(A1.cartan) == 2.0
    assert _smallest_eigenvalue(A2.cartan) == 1.0


@pytest.mark.parametrize("series,rank", [("A", r) for r in range(1, 9)]
                         + [("D", r) for r in range(4, 9)] + [("E", r) for r in (6, 7, 8)])
def test_smallest_eigenvalue_box_counts_match_eigvalsh(series, rank):
    """The Jacobi eigenvalue gives the tail bound the same shell box counts
    ceil((r + 1 + s) / sqrt(lambda)) as LAPACK's."""
    cartan = build_algebra(series, rank).cartan
    ours = math.sqrt(_smallest_eigenvalue(cartan))
    lapack = math.sqrt(float(np.linalg.eigvalsh(np.array(cartan, dtype=float)).min()))
    for r in range(1, 61):
        for s in range(1, 61):
            assert math.ceil((r + 1.0 + s) / ours) == math.ceil((r + 1.0 + s) / lapack), (r, s)


def word_orbit_counts(spec, gamma):
    counts = {}
    for word in weyl_elements(spec):
        image = apply_word(spec, word, gamma)
        counts[image] = counts.get(image, 0) + word_sign(word)
    return sorted((image, c) for image, c in counts.items() if c != 0)


@pytest.mark.parametrize("spec", [A1, A2, A3, D4])
def test_signed_orbit_counts_match_weyl_words(spec):
    """The sorted (image, sign) pairs theta_weyl sums over, read off
    signed_orbit, are the net word counts; a wall gives nothing."""
    rank = spec.rank
    regular = tuple(i + 1 for i in range(rank))
    walls = [(0,) * rank, (1,) + (0,) * (rank - 1), tuple(i % 2 for i in range(rank))]
    shifted = tuple(-1 if i == 0 else 2 for i in range(rank))
    for gamma in [regular, shifted] + walls:
        images, signs, stabiliser = signed_orbit(spec, gamma)
        counts = [] if stabiliser > 1 else sorted(zip(images, signs))
        assert counts == word_orbit_counts(spec, gamma), gamma
