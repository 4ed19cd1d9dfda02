"""The integer pairing (numerators over D = lcm of the denominators of G)
against the Fraction formulas it replaced, spec hashing, and the integrality
guards under python -O."""

import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fusionkit
from fusionkit.algebra import (
    build_algebra,
    comarks,
    dominant_conjugate,
    inner_product,
    integer_gram,
    pairing_numerator,
    positive_roots,
)
from fusionkit.errors import InvariantViolation
from fusionkit.fusion import level_pairing
from fusionkit.weights import weight_system, weyl_dimension

SRC = str(Path(fusionkit.__file__).resolve().parent.parent)

ALGEBRAS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 3), ("C", 3), ("D", 4), ("D", 5),
            ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


# ---------------------------------------------------------------------------
# the Fraction formulas, kept as oracles


def fraction_inner_product(spec, lam, mu) -> Fraction:
    g = spec.quad_form
    total = Fraction(0)
    for i, li in enumerate(lam):
        if li:
            total += li * sum(g[i][j] * mj for j, mj in enumerate(mu) if mj)
    return total


def fraction_level_pairing(spec, lam) -> int:
    value = fraction_inner_product(spec, lam, spec.highest_root)
    assert value.denominator == 1
    return int(value)


def fraction_comarks(spec) -> tuple:
    units = [tuple(int(i == j) for j in range(spec.rank)) for i in range(spec.rank)]
    values = [fraction_inner_product(spec, unit, spec.highest_root) for unit in units]
    assert all(v.denominator == 1 and v > 0 for v in values)
    return tuple(int(v) for v in values)


def fraction_weyl_dimension(spec, mu) -> int:
    mu_rho = tuple(m + 1 for m in mu)
    result = Fraction(1)
    for alpha in positive_roots(spec):
        result *= (fraction_inner_product(spec, mu_rho, alpha)
                   / fraction_inner_product(spec, spec.rho, alpha))
    assert result.denominator == 1
    return int(result)


def fraction_multiplicities(spec, mu, members) -> dict:
    """Freudenthal's recursion on the dominant weights with Fraction pairings."""
    mu_rho = tuple(m + 1 for m in mu)
    norm_top = fraction_inner_product(spec, mu_rho, mu_rho)
    # (lam + j alpha, rho) > (lam, rho), so this order is top down
    dominant = sorted((w for w in members if min(w) >= 0),
                      key=lambda w: -fraction_inner_product(spec, w, spec.rho))
    mults = {}
    for lam in dominant:
        if lam == mu:
            mults[lam] = 1
            continue
        lam_rho = tuple(l + 1 for l in lam)
        acc = Fraction(0)
        for alpha in positive_roots(spec):
            j = 1
            shifted = tuple(l + j * a for l, a in zip(lam, alpha))
            while shifted in members:
                acc += mults[dominant_conjugate(spec, shifted)] * fraction_inner_product(
                    spec, shifted, alpha)
                j += 1
                shifted = tuple(l + j * a for l, a in zip(lam, alpha))
        value = 2 * acc / (norm_top - fraction_inner_product(spec, lam_rho, lam_rho))
        assert value.denominator == 1 and value > 0
        mults[lam] = int(value)
    return mults


def random_weights(spec, count, low, high, seed):
    rng = random.Random(seed)
    return [tuple(rng.randint(low, high) for _ in range(spec.rank)) for _ in range(count)]


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("series,rank", ALGEBRAS)
def test_pairing_matches_fraction_formula(series, rank):
    spec = build_algebra(series, rank)
    d, dg = integer_gram(spec)
    assert all(isinstance(x, int) for row in dg for x in row)
    assert Fraction(dg[0][0], d) == spec.quad_form[0][0]
    weights = random_weights(spec, 40, -7, 7, seed=rank * 31 + ord(series))
    weights += [spec.rho, spec.highest_root, (0,) * rank]
    for lam, mu in zip(weights, reversed(weights)):
        expected = fraction_inner_product(spec, lam, mu)
        value = inner_product(spec, lam, mu)
        assert isinstance(value, Fraction) and value == expected
        assert pairing_numerator(spec, lam, mu) == expected * d
        assert level_pairing(spec, lam) == fraction_level_pairing(spec, lam)
    assert comarks(spec) == fraction_comarks(spec)


def test_pairing_rejects_wrong_length():
    spec = build_algebra("A", 2)
    for call in (lambda: inner_product(spec, (1,), (1, 0)),
                 lambda: pairing_numerator(spec, (1, 0), (1, 0, 0)),
                 lambda: level_pairing(spec, (1, 0, 0))):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("series,rank", ALGEBRAS)
def test_weyl_dimension_matches_fraction_product(series, rank):
    spec = build_algebra(series, rank)
    high = 4 if rank <= 4 else 2
    weights = random_weights(spec, 12, 0, high, seed=rank * 7 + ord(series))
    weights += [spec.highest_root, (0,) * rank]
    for mu in weights:
        assert weyl_dimension(spec, mu) == fraction_weyl_dimension(spec, mu)
        assert weyl_dimension(spec, list(mu)) == weyl_dimension(spec, mu)
    with pytest.raises(ValueError):
        weyl_dimension(spec, (-1,) + (0,) * (rank - 1))


@pytest.mark.parametrize("series,rank,labels", [
    ("A", 2, [(2, 1), (3, 3)]), ("A", 3, [(1, 1, 1), (2, 0, 1)]), ("B", 3, [(1, 1, 1)]),
    ("C", 3, [(1, 0, 1), (2, 1, 0)]), ("D", 4, [(1, 1, 0, 1)]), ("G", 2, [(2, 1), (1, 2)]),
    ("F", 4, [(0, 0, 1, 1)]),
])
def test_freudenthal_matches_fraction_recursion(series, rank, labels):
    spec = build_algebra(series, rank)
    for mu in labels:
        entries = weight_system(spec, mu).entries
        expected = fraction_multiplicities(spec, mu, set(entries))
        for lam, mult in expected.items():
            assert entries[lam] == mult, (mu, lam)


def test_equal_specs_hash_equal():
    first, second = build_algebra("E", 6), build_algebra("e", 6)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    integer_gram.cache_clear()
    integer_gram(first)
    assert integer_gram(second) is integer_gram(first)
    assert integer_gram.cache_info().hits == 2
    # hashing looks at (series, rank) only; equality still compares every field
    forged = dataclasses.replace(first, highest_root=(1,) + (0,) * 5)
    assert hash(forged) == hash(first) and forged != first
    assert build_algebra("A", 2) != build_algebra("A", 3)


def _run_optimized(script: str):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


_EXPECT_VIOLATION = """
import sys
from fusionkit.errors import InvariantViolation
try:
    {call}
except InvariantViolation as err:
    print(err)
    sys.exit(0)
sys.exit(1)
"""


def test_level_pairing_guard_under_optimize():
    """(lam, theta) against a forged non-integral theta row raises, also
    when asserts are stripped."""
    call = ("import dataclasses; from fusionkit import algebra, fusion; "
            "spec = dataclasses.replace(algebra.build_algebra('A', 2), highest_root=(1, 0)); "
            "fusion.level_pairing(spec, (1, 0))")
    finished = _run_optimized(_EXPECT_VIOLATION.format(call=call))
    assert finished.returncode == 0, finished.stderr
    assert "is not an integer" in finished.stdout


def test_weyl_dimension_guard_under_optimize():
    """A root product that is not an integer (one root kept) raises under -O."""
    call = ("from fusionkit import weights; "
            "weights.positive_roots = lambda spec: (spec.highest_root,); "
            "from fusionkit.algebra import build_algebra; "
            "weights.weyl_dimension(build_algebra('A', 2), (1, 0))")
    finished = _run_optimized(_EXPECT_VIOLATION.format(call=call))
    assert finished.returncode == 0, finished.stderr
    assert "came out as 9/6" in finished.stdout


def test_comarks_guard():
    spec = dataclasses.replace(build_algebra("A", 2), highest_root=(1, 0))
    with pytest.raises(InvariantViolation):
        comarks(spec)

