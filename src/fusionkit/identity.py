"""Machine verification of the character/fusion identities and the integer
inequalities they imply.

The central identity

    sum_{mu' in Omega_mu} chi_{mu'+nu} = sum_iota N_{mu nu}^iota chi_iota

is checked by one routine, check_identity, parameterised by its kernel.  It
takes the rho-shifted terms of the left side from fusion._shifted_terms,
those of the right from the table, and evaluates each with kernel(terms,
points).  The kernels are the alternating sums D_lam at variety points (walls
included, both sides stay finite), the Weyl ratio at generic regular points,
and the antisymmetrised theta sums at finite tau (theta.verify_kw_identity).

At variety points verify_numerator_identity nets both sides into residue
rows first; equal rows settle the case without summing a point.  The K^rank
grid of the identity and lemma suites (_ResidueGrid) is counted at once and
generated afresh for each case that is walked, never stored.

The inequality checks (Parseval-style bound, dimension bound, conjugacy
symmetry) are exact integer comparisons end to end.  fusion and weights are
imported by the checks that use them, so a suite that only assembles
reports (the theta suite) loads neither.
"""

from __future__ import annotations

import math
import warnings
from functools import partial
from itertools import product
from typing import NamedTuple

from .algebra import AlgebraSpec, Weight
from .errors import CheckedTuple, InvariantViolation, check_cap


class VerificationReport(CheckedTuple, NamedTuple("VerificationReport", [
        ("case_id", str), ("points_checked", int), ("max_abs_residual", float),
        ("passed", bool), ("tolerance", float), ("witnesses", list)])):
    """Outcome of one verification case.

    ``witnesses`` holds (point, lhs, rhs) for every failing point, so it is
    nonempty exactly when the case failed.  A report that breaks either rule
    raises InvariantViolation.
    """

    __slots__ = ()

    def __new__(cls, case_id: str, points_checked: int, max_abs_residual: float,
                passed: bool, tolerance: float, witnesses=()):
        if passed != (max_abs_residual <= tolerance):
            raise InvariantViolation(f"{case_id}: passed = {passed} with residual "
                                     f"{max_abs_residual} at tolerance {tolerance}")
        if bool(witnesses) == passed:
            raise InvariantViolation(f"{case_id}: passed = {passed} with "
                                     f"{len(witnesses)} witnesses")
        return super().__new__(cls, case_id, points_checked, max_abs_residual, passed,
                               tolerance, witnesses)

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "points_checked": self.points_checked,
            "max_abs_residual": self.max_abs_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "witnesses": [
                {"point": repr(point), "lhs": [lhs.real, lhs.imag], "rhs": [rhs.real, rhs.imag]}
                for point, lhs, rhs in self.witnesses
            ],
        }


def make_report(case_id: str, tolerance: float, residuals) -> VerificationReport:
    """Assemble a report from (point, lhs, rhs) triples.

    A non-finite residual (NaN or inf on either side) fails its point and
    makes the maximum residual inf.  An empty stream raises ValueError: a
    case that checked nothing must not pass."""
    max_residual = 0.0
    witnesses = []
    count = 0
    for point, lhs, rhs in residuals:
        count += 1
        residual = abs(lhs - rhs)
        if not math.isfinite(residual):
            residual = math.inf
        max_residual = max(max_residual, residual)
        if residual > tolerance:
            witnesses.append((point, lhs, rhs))
    if count == 0:
        raise ValueError(f"{case_id}: no points to check")
    return VerificationReport(
        case_id=case_id,
        points_checked=count,
        max_abs_residual=max_residual,
        passed=max_residual <= tolerance,
        tolerance=tolerance,
        witnesses=witnesses,
    )


def integer_report(case_id: str, checks) -> VerificationReport:
    """Wrap exact integer comparisons (label, lhs, rhs, ok, overshoot) as a
    report: the residual is the worst constraint violation, so tolerance is 0."""
    worst = 0
    witnesses = []
    count = 0
    for label, lhs, rhs, ok, overshoot in checks:
        count += 1
        if not ok:
            worst = max(worst, overshoot)
            witnesses.append((label, complex(lhs), complex(rhs)))
    return VerificationReport(
        case_id=case_id,
        points_checked=count,
        max_abs_residual=float(worst),
        passed=worst == 0,
        tolerance=0.0,
        witnesses=witnesses,
    )


def _rhs_terms(table: dict) -> list:
    """(iota + rho, N) over a fusion table."""
    return [(tuple(i + 1 for i in iota), n) for iota, n in table.items()]


def check_identity(case_id: str, spec: AlgebraSpec, mu: Weight, nu: Weight, table: dict,
                   points, kernel, tolerance: float) -> VerificationReport:
    """Check sum_{mu'} chi_{mu'+nu} = sum_iota N^iota chi_iota at every point,
    with N from ``table`` and both sides evaluated by
    ``kernel(terms, points)`` on their rho-shifted (weight, coefficient)
    terms."""
    from .fusion import _shifted_terms

    return _scan(case_id, tuple(points), kernel, _shifted_terms(spec, mu, nu),
                 _rhs_terms(table), tolerance)


def _scan(case_id: str, points, kernel, lhs, rhs, tolerance: float) -> VerificationReport:
    """The two-sided scan: kernel(side, points) for each side, compared at
    every point.  ``points`` is iterated three times in step (the labels and
    each side), so a kernel that yields its values streams the walk."""
    return make_report(case_id, tolerance, zip(points, map(complex, kernel(lhs, points)),
                                               map(complex, kernel(rhs, points))))


class _ResidueGrid:
    """Every variety point gamma mod K of the level-k scan (gamma in
    (Z_2K)^1 on A1), the one definition of the scan's points: counted at
    once, generated by itertools.product on every walk and never stored.
    The Weyl-order cap is checked here, before the first case."""

    __slots__ = ("spec", "k")

    def __init__(self, spec: AlgebraSpec, k: int):
        check_cap("weyl_order", spec.weyl_order, spec)
        self.spec, self.k = spec, k

    def _side(self) -> int:
        level_shifted = self.k + self.spec.dual_coxeter
        return 2 * level_shifted if self.spec.rank == 1 else level_shifted

    def __len__(self) -> int:
        return self._side() ** self.spec.rank

    def __iter__(self):
        return product(range(self._side()), repeat=self.spec.rank)


def verify_numerator_identity(spec: AlgebraSpec, mu: Weight, nu: Weight, k: int,
                              gammas, tolerance: float = 1e-9,
                              coefficients: dict | None = None,
                              case_id: str | None = None) -> VerificationReport:
    """Check the denominator-free identity at each variety point gamma with
    K = k + c.  Walls are legal here: both sides are plain finite sums.

    Each side is first netted into its residue rows.  The value of a side
    at any point is a function of its rows alone, so when the two sides'
    rows are equal every point's lhs and rhs are the same float: the report
    is the scan's (every point checked, residual 0.0, no witnesses) and no
    point is walked.  Otherwise both sides are summed at every point.
    ``gammas`` is an iterable of points, copied and length-checked once, or
    the _ResidueGrid of this algebra and level, whose points are generated
    only if the case is walked; a grid of another algebra or level raises
    ValueError.

    ``coefficients`` overrides the fusion table (used by negative controls).
    """
    from .characters import _netted_rows, _point_tuple, _row_sums
    from .fusion import _shifted_terms, fuse_level_k, require_integrable

    mu, nu = tuple(mu), tuple(nu)
    require_integrable(spec, k, mu, nu)
    level_shifted = k + spec.dual_coxeter
    table = fuse_level_k(spec, mu, nu, k) if coefficients is None else coefficients
    if not isinstance(gammas, _ResidueGrid):
        gammas = _point_tuple(gammas, spec.rank)
    elif (gammas.spec, gammas.k) != (spec, k):
        raise ValueError(f"residue grid of {gammas.spec} at k = {gammas.k} "
                         f"given for {spec} at k = {k}")
    case_id = case_id or f"numerator-identity:{spec}:k={k}:mu={mu}:nu={nu}"
    kernel, lhs = _netted_rows(spec, _shifted_terms(spec, mu, nu), level_shifted)
    _, rhs = _netted_rows(spec, _rhs_terms(table), level_shifted)
    if lhs == rhs and 0.0 <= tolerance and len(gammas):
        return VerificationReport(case_id, len(gammas), 0.0, True, tolerance, [])
    return _scan(case_id, gammas, partial(_row_sums, kernel), lhs, rhs, tolerance)


def verify_lemma_weightsum(spec: AlgebraSpec, mu: Weight, k: int, gammas,
                           tolerance: float = 1e-9) -> VerificationReport:
    """The nu = 0 specialization: the weight-system character sum collapses
    to the single highest-weight character."""
    return verify_numerator_identity(
        spec, mu, (0,) * spec.rank, k, gammas, tolerance=tolerance,
        case_id=f"weightsum-lemma:{spec}:k={k}:mu={tuple(mu)}",
    )


def _squares_and_sums(spec: AlgebraSpec, mu: Weight, nus, k: int) -> list:
    """(sum_l (N_{mu nu}^l)^2, sum_l N_{mu nu}^l) for each nu in nus, read
    from one fold row of mu."""
    from .fusion import fuse_level_k_rows

    return [(sum(n * n for n in table.values()), sum(table.values()))
            for table in fuse_level_k_rows(spec, mu, nus, k)]


def _at_most(value: int, *bounds: int) -> tuple:
    """(value, the least bound, passed) of an exact bound check."""
    bound = min(bounds)
    return value, bound, value <= bound


def parseval_bound(spec: AlgebraSpec, mu: Weight, sigma: Weight, k: int):
    """Exact check of sum_l N_{sigma mu}^l squared <= min of the two
    multiplicity square sums.  Returns (lhs, rhs, passed)."""
    from .weights import square_sum

    ((lhs, _),) = _squares_and_sums(spec, sigma, [mu], k)
    return _at_most(lhs, square_sum(spec, mu), square_sum(spec, sigma))


def dim_bound(spec: AlgebraSpec, mu: Weight, nu: Weight, k: int):
    """Exact check of sum_l N_{mu nu}^l <= min(dim mu, dim nu)."""
    from .weights import weyl_dimension

    ((_, total),) = _squares_and_sums(spec, mu, [nu], k)
    dims = [weyl_dimension(spec, lam) for lam in (mu, nu)]
    for lam, dim in zip((mu, nu), dims):
        check_cap("dim", dim, tuple(lam))
    return _at_most(total, *dims)


def _warn_if_self_conjugate(spec: AlgebraSpec, stacklevel: int) -> None:
    """Warn when -w0 fixes every fundamental weight, so that b* = b for every
    b and a conjugacy check compares each table with itself."""
    from .weights import conjugate

    fundamental = [tuple(int(i == j) for j in range(spec.rank)) for i in range(spec.rank)]
    if all(conjugate(spec, omega) == omega for omega in fundamental):
        warnings.warn(
            f"{spec} admits no complex representations; conjugacy check is trivial",
            stacklevel=stacklevel + 1,
        )


def conjugacy_square_check(spec: AlgebraSpec, a: Weight, b: Weight, k: int):
    """((sum_l (N_{ab}^l)^2 for b, for b*), (sum_l N_{ab}^l for b, for b*)),
    b* = -w0(b) the conjugate of b.  Trivial, with a warning, where -w0 fixes
    every fundamental weight (A1, B, C, D of even rank, E7, E8, F4, G2)."""
    from .weights import conjugate

    _warn_if_self_conjugate(spec, stacklevel=2)
    b = tuple(b)
    return tuple(zip(*_squares_and_sums(spec, a, [b, conjugate(spec, b)], k)))
