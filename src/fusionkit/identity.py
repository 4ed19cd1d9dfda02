"""Machine verification of the character/fusion identities and the integer
inequalities they imply.

The central identity

    sum_{mu' in Omega_mu} chi_{mu'+nu} = sum_iota N_{mu nu}^iota chi_iota

is checked by one routine, check_identity, parameterised by its kernel.  It
builds the rho-shifted terms of both sides once per (mu, nu) and evaluates
each side with kernel(terms, points).  The kernels are the alternating sums
D_lam at variety points (walls included, both sides stay finite), the Weyl
ratio at generic regular points, and the antisymmetrised theta sums at
finite tau (theta.verify_kw_identity).  The inequality checks (Parseval-style
bound, dimension bound, conjugacy symmetry) are exact integer comparisons
end to end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .algebra import AlgebraSpec, Weight
from .characters import EvalPoint, alternating_sums, weyl_ratio_sums
from .errors import InvariantViolation
from .fusion import fuse_level_k, is_integrable, tensor_decompose
from .weights import conjugate, dimension, mult_sum_squares, weight_system


@dataclass
class VerificationReport:
    """Outcome of one verification case.

    ``witnesses`` holds (point, lhs, rhs) for every failing point, so it is
    nonempty exactly when the case failed.  A report that breaks either rule
    raises InvariantViolation.
    """

    case_id: str
    points_checked: int
    max_abs_residual: float
    passed: bool
    tolerance: float
    witnesses: list = field(default_factory=list)

    def __post_init__(self):
        if self.passed != (self.max_abs_residual <= self.tolerance):
            raise InvariantViolation(f"{self.case_id}: passed = {self.passed} with residual "
                                     f"{self.max_abs_residual} at tolerance {self.tolerance}")
        if bool(self.witnesses) == self.passed:
            raise InvariantViolation(f"{self.case_id}: passed = {self.passed} with "
                                     f"{len(self.witnesses)} witnesses")

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "points_checked": self.points_checked,
            "max_abs_residual": self.max_abs_residual,
            "passed": self.passed,
            "tolerance": self.tolerance,
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


def _lhs_terms(spec: AlgebraSpec, mu: Weight, nu: Weight) -> list:
    """(mu' + nu + rho, m) over the weight system of mu."""
    ws = weight_system(spec, tuple(mu))
    return [(tuple(m + n + 1 for m, n in zip(mu_prime, nu)), mult)
            for mu_prime, mult in ws.entries.items()]


def _rhs_terms(table: dict) -> list:
    """(iota + rho, N) over a fusion table."""
    return [(tuple(i + 1 for i in iota), n) for iota, n in table.items()]


def check_identity(case_id: str, spec: AlgebraSpec, mu: Weight, nu: Weight, table: dict,
                   points, kernel, tolerance: float) -> VerificationReport:
    """Check sum_{mu'} chi_{mu'+nu} = sum_iota N^iota chi_iota at every point,
    with N from ``table`` and both sides evaluated by
    ``kernel(terms, points)`` on their rho-shifted (weight, coefficient)
    terms."""
    points = list(points)
    lhs = kernel(_lhs_terms(spec, mu, nu), points)
    rhs = kernel(_rhs_terms(table), points)
    return make_report(case_id, tolerance, zip(points, map(complex, lhs), map(complex, rhs)))


def lhs_char_sum(spec: AlgebraSpec, mu: Weight, nu: Weight, p: EvalPoint) -> complex:
    """sum over Omega_mu (with multiplicity) of the virtual character of
    mu' + nu at p."""
    return weyl_ratio_sums(spec, _lhs_terms(spec, mu, nu), [p])[0]


def rhs_fusion_sum(spec: AlgebraSpec, mu: Weight, nu: Weight, p: EvalPoint,
                   k: int | None = None) -> complex:
    """sum_iota N_{mu nu}^iota chi_iota(p), with N the tensor coefficients
    when k is None (algebra level) and the level-k fusion table otherwise."""
    mu, nu = tuple(mu), tuple(nu)
    table = tensor_decompose(spec, mu, nu) if k is None else fuse_level_k(spec, mu, nu, k)
    return weyl_ratio_sums(spec, _rhs_terms(table), [p])[0]


def verify_numerator_identity(spec: AlgebraSpec, mu: Weight, nu: Weight, k: int,
                              gammas, tolerance: float = 1e-9,
                              coefficients: dict | None = None,
                              case_id: str | None = None) -> VerificationReport:
    """Check the denominator-free identity at each variety point gamma with
    K = k + c.  Walls are legal here: both sides are plain finite sums.

    ``coefficients`` overrides the fusion table (used by negative controls).
    """
    mu, nu = tuple(mu), tuple(nu)
    for lam in (mu, nu):
        if not is_integrable(spec, lam, k):
            raise ValueError(f"{lam} is not integrable at level {k}")
    level_shifted = k + spec.dual_coxeter
    table = fuse_level_k(spec, mu, nu, k) if coefficients is None else coefficients
    gammas = [tuple(int(g) for g in gamma) for gamma in gammas]
    return check_identity(
        case_id or f"numerator-identity:{spec}:k={k}:mu={mu}:nu={nu}", spec, mu, nu, table,
        gammas, lambda terms, points: alternating_sums(spec, terms, points, level_shifted),
        tolerance,
    )


def verify_lemma_weightsum(spec: AlgebraSpec, mu: Weight, k: int, gammas,
                           tolerance: float = 1e-9) -> VerificationReport:
    """The nu = 0 specialization: the weight-system character sum collapses
    to the single highest-weight character."""
    return verify_numerator_identity(
        spec, mu, (0,) * spec.rank, k, gammas, tolerance=tolerance,
        case_id=f"weightsum-lemma:{spec}:k={k}:mu={tuple(mu)}",
    )


def parseval_bound(spec: AlgebraSpec, mu: Weight, sigma: Weight, k: int):
    """Exact check of sum_l N_{sigma mu}^l squared <= min of the two
    multiplicity square sums.  Returns (lhs, rhs, passed)."""
    table = fuse_level_k(spec, tuple(sigma), tuple(mu), k)
    lhs = sum(n * n for n in table.values())
    rhs = min(
        mult_sum_squares(weight_system(spec, tuple(mu))),
        mult_sum_squares(weight_system(spec, tuple(sigma))),
    )
    return lhs, rhs, lhs <= rhs


def dim_bound(spec: AlgebraSpec, mu: Weight, nu: Weight, k: int):
    """Exact check of sum_l N_{mu nu}^l <= min(dim mu, dim nu)."""
    table = fuse_level_k(spec, tuple(mu), tuple(nu), k)
    total = sum(table.values())
    bound = min(
        dimension(weight_system(spec, tuple(mu))),
        dimension(weight_system(spec, tuple(nu))),
    )
    return total, bound, total <= bound


@dataclass(frozen=True)
class ConjugacyCheck:
    """sum_l (N_{ab}^l)^2 and sum_l N_{ab}^l, each for b and for its conjugate."""

    square_sums: tuple
    linear_sums: tuple

    @property
    def squares_equal(self) -> bool:
        return self.square_sums[0] == self.square_sums[1]

    @property
    def linear_equal(self) -> bool:
        return self.linear_sums[0] == self.linear_sums[1]


_COMPLEX_SERIES = {"A", "D", "E"}


def conjugacy_square_check(spec: AlgebraSpec, a: Weight, b: Weight, k: int) -> ConjugacyCheck:
    """Compare sum_l (N_{ab}^l)^2 against the same with b conjugated, and the
    linear sums alongside.  Meaningful for algebras with complex
    representations (A_n, D_n, E6); elsewhere conjugation is trivial."""
    if spec.series not in _COMPLEX_SERIES or (spec.series == "E" and spec.rank != 6):
        warnings.warn(
            f"{spec} admits no complex representations; conjugacy check is trivial",
            stacklevel=2,
        )
    table_b = fuse_level_k(spec, tuple(a), tuple(b), k)
    table_conj = fuse_level_k(spec, tuple(a), conjugate(spec, tuple(b)), k)
    return ConjugacyCheck(
        square_sums=tuple(sum(n * n for n in t.values()) for t in (table_b, table_conj)),
        linear_sums=tuple(sum(t.values()) for t in (table_b, table_conj)),
    )
