"""The integer phase kernel against the exact Fraction phase formula, the
word-based S matrix, and the sign law D_{w lam} = (-1)^w D_lam."""

import cmath
import random
from fractions import Fraction

import numpy as np
import pytest

from fusionkit.algebra import TWO_PI, build_algebra, cartan_inverse, signed_orbit
from fusionkit.characters import VarietyPoint, eval_D
from fusionkit.errors import CapExceeded, Caps, use_caps
from fusionkit.fusion import _shifted_terms, fuse_level_k, level_k_weights
from fusionkit.identity import _ResidueGrid, _rhs_terms
from fusionkit.phase import (
    PHASE_TABLE_CAP,
    alternating_sums,
    phase_kernel,
    phase_sums,
    roots_of_unity,
)
from fusionkit.verlinde import _s_matrix
from fusionkit.weights import weight_system

from character_oracle import eval_char_trace, numpy_phase_kernel, numpy_phase_sums
from weyl_oracle import apply_word, weyl_elements, weyl_orbit, word_sign

KERNEL_ALGEBRAS = [("A", 1), ("A", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4),
                   ("G", 2), ("F", 4)]


def fraction_phase(spec, gamma, r, level_shifted) -> Fraction:
    """(C^-1 gamma) . r / K reduced mod 1, in exact rational arithmetic."""
    inv = cartan_inverse(spec)
    total = Fraction(0)
    for i, ri in enumerate(r):
        if ri:
            total += ri * sum(inv[i][j] * gj for j, gj in enumerate(gamma) if gj)
    return (total / level_shifted) % 1


def oracle_phase(spec, gamma, r, level_shifted) -> complex:
    return cmath.exp(1j * TWO_PI * float(fraction_phase(spec, gamma, r, level_shifted)))


def oracle_D(spec, lam, gamma, level_shifted) -> complex:
    return sum(sign * oracle_phase(spec, gamma, image, level_shifted)
               for image, sign in weyl_orbit(spec, lam))


def oracle_s_matrix(spec, k):
    """The S matrix from every Weyl word applied to alpha + rho, paired with
    beta + rho in Fractions."""
    weights = level_k_weights(spec, k)
    level_shifted = k + spec.dual_coxeter
    g = spec.quad_form
    rows = []
    for alpha in weights:
        alpha_rho = tuple(a + 1 for a in alpha)
        images = [(apply_word(spec, w, alpha_rho), word_sign(w)) for w in weyl_elements(spec)]
        row = []
        for beta in weights:
            beta_rho = tuple(b + 1 for b in beta)
            total = 0j
            for image, sign in images:
                frac = Fraction(0)
                for i, xi in enumerate(image):
                    if xi:
                        frac += xi * sum(g[i][j] * beta_rho[j] for j in range(spec.rank))
                total += sign * cmath.exp(-1j * TWO_PI * float((frac / level_shifted) % 1))
            row.append(total)
        norm = abs(sum(abs(x) ** 2 for x in row)) ** 0.5
        rows.append(tuple(x / norm for x in row))
    return tuple(weights), tuple(rows)


def random_case(spec, rng):
    level_shifted = spec.dual_coxeter + rng.randrange(4)
    period = 12 * level_shifted     # beyond every L = qK used here
    lam = tuple(rng.randrange(-6, 7) for _ in range(spec.rank))
    gamma = tuple(rng.randrange(-2 * period, 2 * period) for _ in range(spec.rank))
    return lam, gamma, level_shifted


@pytest.mark.parametrize("series,rank", KERNEL_ALGEBRAS)
def test_kernel_matches_fraction_oracle(series, rank):
    spec = build_algebra(series, rank)
    rng = random.Random(f"{series}{rank}")
    samples = 2 if spec.weyl_order > 200 else 6
    for _ in range(samples):
        lam, gamma, level_shifted = random_case(spec, rng)
        point = VarietyPoint(gamma, level_shifted)
        assert abs(eval_D(spec, lam, point) - oracle_D(spec, lam, gamma, level_shifted)) <= 1e-12


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 3), ("G", 2)])
def test_batched_sums_match_oracle(series, rank):
    spec = build_algebra(series, rank)
    rng = random.Random(7)
    lam1, _, level_shifted = random_case(spec, rng)
    lam2, _, _ = random_case(spec, rng)
    gammas = [random_case(spec, rng)[1] for _ in range(20)] + [(0,) * rank]
    values = alternating_sums(spec, [(lam1, 2), (lam2, -3)], gammas, level_shifted)
    for gamma, value in zip(gammas, values):
        expected = (2 * oracle_D(spec, lam1, gamma, level_shifted)
                    - 3 * oracle_D(spec, lam2, gamma, level_shifted))
        assert abs(value - expected) <= 1e-12


@pytest.mark.parametrize("series,rank", [("A", 2), ("C", 3), ("G", 2)])
def test_trace_matches_oracle(series, rank):
    spec = build_algebra(series, rank)
    rng = random.Random(11)
    for mu in [(1,) + (0,) * (rank - 1), (0,) * (rank - 1) + (2,)]:
        _, gamma, level_shifted = random_case(spec, rng)
        expected = sum(mult * oracle_phase(spec, gamma, r, level_shifted)
                       for r, mult in weight_system(spec, mu).entries.items())
        value = eval_char_trace(spec, mu, VarietyPoint(gamma, level_shifted))
        assert abs(value - expected) <= 1e-12


@pytest.mark.parametrize("series,rank,k", [("A", 2, 3), ("B", 2, 2), ("G", 2, 2), ("D", 4, 1)])
def test_s_matrix_matches_word_construction(series, rank, k):
    spec = build_algebra(series, rank)
    weights, rows = _s_matrix(spec, k)
    oracle_weights, oracle_rows = oracle_s_matrix(spec, k)
    assert weights == oracle_weights
    for row, oracle_row in zip(rows, oracle_rows):
        assert max(abs(x - y) for x, y in zip(row, oracle_row)) <= 1e-12


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 3), ("G", 2), ("D", 4)])
def test_sign_law_is_exact(series, rank):
    spec = build_algebra(series, rank)
    rng = random.Random(5)
    lam, _, level_shifted = random_case(spec, rng)
    gammas = [random_case(spec, rng)[1] for _ in range(8)]
    base = alternating_sums(spec, [(lam, 1)], gammas, level_shifted)
    point = VarietyPoint(gammas[0], level_shifted)
    single = eval_D(spec, lam, point)
    for word in weyl_elements(spec):
        image = apply_word(spec, word, lam)
        sign = word_sign(word)
        assert alternating_sums(spec, [(image, 1)], gammas, level_shifted) == \
            [sign * v for v in base]
        assert eval_D(spec, image, point) == sign * single


@pytest.mark.parametrize("size", [10**17, 10**19])
def test_huge_labels_match_oracle(size):
    # 10**19 does not fit in int64: the orbit is kept in Python ints and
    # reduced mod L before any int64 arithmetic.
    spec = build_algebra("A", 2)
    lam = (size + 1, -size + 5)
    gamma = (size + 7, -size - 3)
    value = eval_D(spec, lam, VarietyPoint(gamma, 5))
    assert abs(value - oracle_D(spec, lam, gamma, 5)) <= 1e-12


def test_level_past_table_cap_raises():
    spec = build_algebra("A", 2)
    with pytest.raises(CapExceeded):
        eval_D(spec, (1, 1), VarietyPoint((1, 2), PHASE_TABLE_CAP))


def test_weyl_cap_checked_on_cache_hit():
    spec = build_algebra("A", 2)
    signed_orbit(spec, (2, 1))
    with use_caps(Caps(weyl_order=1)), pytest.raises(CapExceeded):
        signed_orbit(spec, (2, 1))


@pytest.mark.parametrize("series,rank,level_shifted", [("A", 2, 5), ("G", 2, 6), ("F", 4, 10)])
def test_kernel_reads_the_shared_root_table(series, rank, level_shifted):
    kernel = phase_kernel(cartan_inverse(build_algebra(series, rank)), level_shifted)
    roots = roots_of_unity(kernel.period)
    assert kernel.roots is roots
    assert isinstance(roots, tuple)


def test_root_table_equals_numpy_exp():
    """The cmath-built table is the array np.exp gives, bit for bit: the
    Gaussian model's phases were np.exp values and its golden bytes rest
    on them."""
    for period in [*range(1, 200), 210, 576, 1009, 4096]:
        expected = np.exp(2j * np.pi * np.arange(period) / period)
        assert np.array(roots_of_unity(period)).tobytes() == expected.tobytes(), period


def random_matrix(rng, rank, q):
    """A rank x rank rational matrix whose denominators divide q."""
    return tuple(tuple(Fraction(rng.randrange(-9, 10), rng.choice([1, q])) for _ in range(rank))
                 for _ in range(rank))


def random_terms(rng, rank, label_size, count):
    """Weights and nonzero coefficients of both signs, then a third of the
    weights again with negated coefficients (rows that net to zero) and two
    repeated with the same coefficient."""
    weights = [tuple(rng.randrange(-label_size, label_size + 1) for _ in range(rank))
               for _ in range(count)]
    coeffs = [rng.choice([-3, -2, -1, 1, 2, 5]) for _ in weights]
    cancelled = len(weights) // 3
    return (weights + weights[:cancelled] + weights[:2],
            coeffs + [-c for c in coeffs[:cancelled]] + coeffs[:2])


def assert_same_bits(matrix, level_shifted, weights, coeffs, points):
    """phase_sums equals the numpy reference bit for bit: repr tells 0.0
    from -0.0 and shows every digit."""
    values = phase_sums(phase_kernel(matrix, level_shifted), weights, coeffs, points)
    expected = numpy_phase_sums(numpy_phase_kernel(matrix, level_shifted), weights, coeffs,
                                points)
    assert isinstance(values, list)
    assert [repr(v) for v in values] == [repr(complex(v)) for v in expected]


def seeded_kernel_case(seed):
    """(matrix, K, weights, coeffs, grid): a random rational matrix with q in
    1..4 and rank 1..4, and a grid of rank + 30 points plus 5 duplicates."""
    rng = random.Random(seed)
    rank = 1 + seed % 4
    matrix = random_matrix(rng, rank, 1 + seed // 4)
    level_shifted = rng.randrange(1, 30)
    weights, coeffs = random_terms(rng, rank, 12, rng.randrange(1, 40))
    grid = [tuple(rng.randrange(-40, 40) for _ in range(rank)) for _ in range(rank + 30)]
    return matrix, level_shifted, weights, coeffs, grid + grid[:5]


@pytest.mark.parametrize("seed", range(16))
def test_kernel_matches_numpy_reference_bit_for_bit(seed):
    """Random rational matrices on grids with duplicate points, on a few
    points, on none, and with no weights at all."""
    matrix, level_shifted, weights, coeffs, grid = seeded_kernel_case(seed)
    rank = len(matrix)
    for points in (grid, grid[:rank], grid[:rank - 1], grid[:1], []):
        assert_same_bits(matrix, level_shifted, weights, coeffs, points)
    assert_same_bits(matrix, level_shifted, [], [], grid)
    assert_same_bits(matrix, level_shifted, [], [], grid[:1])


@pytest.mark.parametrize("seed", range(16))
def test_kernel_values_are_correctly_rounded(seed):
    """Each value is the exact sum of its float products count * root,
    rounded once: counts per residue are taken here from the rational
    phases r^T M gamma / K, and the products summed as Fractions."""
    matrix, level_shifted, weights, coeffs, grid = seeded_kernel_case(seed)
    kernel = phase_kernel(matrix, level_shifted)
    period = kernel.period
    for points in (grid, grid[:len(matrix)]):
        values = phase_sums(kernel, weights, coeffs, points)
        for gamma, value in zip(points, values):
            counts = {}
            for r, c in zip(weights, coeffs):
                phase = sum(ri * Fraction(m) * g for ri, row in zip(r, matrix)
                            for m, g in zip(row, gamma)) / level_shifted
                e = int(phase * period) % period
                counts[e] = counts.get(e, 0) + c
            roots = [(c, kernel.roots[e]) for e, c in counts.items()]
            assert value.real == float(sum(Fraction(c * root.real) for c, root in roots))
            assert value.imag == float(sum(Fraction(c * root.imag) for c, root in roots))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_kernel_matches_numpy_reference_past_one_block(rank):
    """L above 128, past numpy's 128-element pairwise block: the sums stay
    correctly rounded however many roots the table holds."""
    rng = random.Random(rank)
    matrix = random_matrix(rng, rank, 3)
    weights, coeffs = random_terms(rng, rank, 200, 300)
    grid = [tuple(rng.randrange(0, 400) for _ in range(rank)) for _ in range(40)]
    for level_shifted in (43, 64, 67, 129, 300):
        assert_same_bits(matrix, level_shifted, weights, coeffs, grid)
        assert_same_bits(matrix, level_shifted, weights, coeffs, grid[:1])


@pytest.mark.parametrize("size", [10**19, 3 * 10**25])
def test_kernel_matches_numpy_reference_on_huge_labels(size):
    rng = random.Random(size)
    matrix = random_matrix(rng, 3, 4)
    weights, coeffs = random_terms(rng, 3, size, 30)
    grid = [tuple(rng.randrange(-size, size) for _ in range(3)) for _ in range(20)]
    for points in (grid, grid[:2]):
        assert_same_bits(matrix, 7, weights, coeffs, points)


@pytest.mark.parametrize("series,rank,k", [("A", 3, 1), ("G", 2, 2), ("B", 3, 1), ("A", 2, 5)])
def test_alternating_sums_match_numpy_reference_on_the_scan(series, rank, k):
    """Signed orbits over the full residue scan, both sides of each identity."""
    spec = build_algebra(series, rank)
    level_shifted = k + spec.dual_coxeter
    gammas = tuple(_ResidueGrid(spec, k))
    reference = numpy_phase_kernel(cartan_inverse(spec), level_shifted)
    weights = level_k_weights(spec, k)
    for mu, nu in [(weights[-1], weights[-1]), (weights[1], weights[0])]:
        table = fuse_level_k(spec, mu, nu, k)
        for terms in (_shifted_terms(spec, mu, nu), _rhs_terms(table)):
            orbits = [(signed_orbit(spec, lam), c) for lam, c in terms]
            orbits = [(orbit, c) for orbit, c in orbits if orbit.stabiliser == 1]
            images = [image for orbit, _ in orbits for image in orbit.images]
            coeffs = [c * sign for orbit, c in orbits for sign in orbit.signs]
            values = alternating_sums(spec, terms, gammas, level_shifted)
            expected = numpy_phase_sums(reference, images, coeffs, gammas)
            assert [repr(v) for v in values] == [repr(complex(v)) for v in expected]


def test_non_integral_coefficient_is_rejected():
    """phase_sums counts its coefficients as exact integers: 1.7 is refused,
    not truncated to 1, while an integral float counts as its integer."""
    kernel = phase_kernel(cartan_inverse(build_algebra("A", 2)), 5)
    weights, points = [(1, 0), (0, 1)], [(1, 2), (3, 4)]
    with pytest.raises(ValueError, match="coefficients must be integers"):
        phase_sums(kernel, weights, [1.7, 0.5], points)
    assert phase_sums(kernel, weights, [2.0, -1.0], points) == phase_sums(
        kernel, weights, [2, -1], points)


def test_exact_count_guard_raises():
    """float(count) must be exact: 2^53 and up is refused on every path."""
    spec = build_algebra("A", 2)
    kernel = phase_kernel(cartan_inverse(spec), 5)
    grid = [(0, 0), (1, 2), (3, 4)]
    for points in (grid, grid[:1]):
        with pytest.raises(CapExceeded):
            phase_sums(kernel, [(1, 0), (0, 1)], [1 << 52, 1], points)
        phase_sums(kernel, [(1, 0), (0, 1)], [(1 << 52) - 1, 1], points)
    with pytest.raises(CapExceeded):
        alternating_sums(spec, [((1, 1), 1 << 51)], grid, 5)
