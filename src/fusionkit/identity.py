"""Machine verification of the character/fusion identities and the integer
inequalities they imply.

The central check is the denominator-free identity

    sum_{mu' in Omega_mu} D_{mu'+nu+rho}(gamma) = sum_iota N_{mu nu}^iota D_{iota+rho}(gamma)

on variety points gamma (walls included, both sides stay finite), plus the
ratio form at generic regular points.  The inequality checks (Parseval-style
bound, dimension bound, conjugacy symmetry) are exact integer comparisons
end to end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .algebra import AlgebraSpec, Weight
from .characters import (
    EvalPoint,
    alternating_sums,
    eval_char,
    virtual_normalize,
)
from .fusion import fuse_level_k, is_integrable, tensor_decompose
from .weights import conjugate, dimension, mult_sum_squares, weight_system


@dataclass
class VerificationReport:
    """Outcome of one verification case.

    ``witnesses`` holds (point, lhs, rhs) for every failing point, so it is
    nonempty exactly when the case failed.
    """

    case_id: str
    points_checked: int
    max_abs_residual: float
    passed: bool
    tolerance: float
    witnesses: list = field(default_factory=list)

    def __post_init__(self):
        assert self.passed == (self.max_abs_residual <= self.tolerance)
        assert bool(self.witnesses) == (not self.passed)

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


def lhs_char_sum(spec: AlgebraSpec, mu: Weight, nu: Weight, p: EvalPoint) -> complex:
    """sum over Omega_mu (with multiplicity) of the virtual character of
    mu' + nu at p."""
    ws = weight_system(spec, tuple(mu))
    total = 0j
    for mu_prime, mult in ws.entries.items():
        shifted = tuple(m + n for m, n in zip(mu_prime, nu))
        sign, dom = virtual_normalize(spec, shifted)
        if sign == 0:
            continue
        total += mult * sign * eval_char(spec, dom, p)
    return total


def rhs_fusion_sum(spec: AlgebraSpec, mu: Weight, nu: Weight, p: EvalPoint,
                   k: int | None = None) -> complex:
    """sum_iota N_{mu nu}^iota chi_iota(p), with N the tensor coefficients
    when k is None (algebra level) and the level-k fusion table otherwise."""
    if k is None:
        table = tensor_decompose(spec, tuple(mu), tuple(nu))
    else:
        table = fuse_level_k(spec, tuple(mu), tuple(nu), k)
    return sum(n * eval_char(spec, iota, p) for iota, n in table.items())


def verify_numerator_identity(spec: AlgebraSpec, mu: Weight, nu: Weight, k: int,
                              gammas, tolerance: float = 1e-9,
                              coefficients: dict | None = None) -> VerificationReport:
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
    ws = weight_system(spec, mu)
    gammas = [tuple(int(g) for g in gamma) for gamma in gammas]
    lhs_terms = [(tuple(m + n + 1 for m, n in zip(mu_prime, nu)), mult)
                 for mu_prime, mult in ws.entries.items()]
    rhs_terms = [(tuple(i + 1 for i in iota), n) for iota, n in table.items()]
    lhs = alternating_sums(spec, lhs_terms, gammas, level_shifted)
    rhs = alternating_sums(spec, rhs_terms, gammas, level_shifted)
    residuals = ((gamma, complex(l), complex(r)) for gamma, l, r in zip(gammas, lhs, rhs))

    case_id = f"numerator-identity:{spec}:k={k}:mu={mu}:nu={nu}"
    return make_report(case_id, tolerance, residuals)


def verify_lemma_weightsum(spec: AlgebraSpec, mu: Weight, k: int, gammas,
                           tolerance: float = 1e-9) -> VerificationReport:
    """The nu = 0 specialization: the weight-system character sum collapses
    to the single highest-weight character."""
    report = verify_numerator_identity(
        spec, mu, (0,) * spec.rank, k, gammas, tolerance=tolerance
    )
    report.case_id = f"weightsum-lemma:{spec}:k={k}:mu={tuple(mu)}"
    return report


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


class ConjugacyCheck(tuple):
    """(squares_b, squares_conj, equal) plus the linear sums as attributes."""

    def __new__(cls, s1, s2, equal, linear1, linear2, linear_equal):
        self = super().__new__(cls, (s1, s2, equal))
        self.linear_sums = (linear1, linear2)
        self.linear_equal = linear_equal
        return self


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
    s1 = sum(n * n for n in table_b.values())
    s2 = sum(n * n for n in table_conj.values())
    linear1 = sum(table_b.values())
    linear2 = sum(table_conj.values())
    return ConjugacyCheck(s1, s2, s1 == s2, linear1, linear2, linear1 == linear2)
