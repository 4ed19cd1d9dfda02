"""The Verlinde S-matrix oracle: level-k fusion coefficients computed
independently of alcove folding.

The S matrix is built numerically from alternating Weyl sums over the
integrable weights, summed by the exact phase kernel of the quadratic form
(phase.phase_sums) and normalized row by row, and the fusion coefficients
are read off the standard ratio, one row of nu per mu.  A rounding guard
turns silent drift into a loud error: a ratio more than 1e-6 from an
integer raises OracleMismatchError.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from .algebra import AlgebraSpec, Weight, signed_orbit
from .errors import OracleMismatchError, check_cap
from .fusion import level_k_weights, require_integrable
from .phase import phase_kernel, phase_sums


@lru_cache(maxsize=64)
def _s_matrix(spec: AlgebraSpec, k: int):
    """Rows of the numeric S matrix over integrable weights, unit-normalized.

    Row alpha is sum_w (-1)^w exp(-2 pi i (w(alpha+rho), beta+rho)/K), summed
    over the signed orbit of alpha+rho by the phase kernel of G; the minus
    sign is the kernel's phase at the point -(beta+rho).  Any overall scalar
    drops out of the Verlinde ratio, so rows are normalized numerically
    instead of carrying the closed-form lattice-volume prefactor.

    The sums are symmetric bit for bit: w -> w^-1 maps the (residue, sign)
    terms of entry (alpha, beta) onto those of (beta, alpha), and the phase
    kernel counts terms per residue and adds with math.fsum, in any order.
    So row alpha is summed at the points beta >= alpha only, and the rest
    is mirrored from the rows above before the row is normalized.
    """
    weights = level_k_weights(spec, k)
    kernel = phase_kernel(spec.quad_form, k + spec.dual_coxeter)
    points = [tuple(-b - 1 for b in beta) for beta in weights]
    sums, rows = [], []
    for n, alpha in enumerate(weights):
        images, signs, _ = signed_orbit(spec, tuple(a + 1 for a in alpha))
        row = [above[n] for above in sums] + phase_sums(kernel, images, signs, points[n:])
        sums.append(row)
        norm = math.hypot(*(part for x in row for part in (x.real, x.imag)))
        rows.append(tuple(x / norm for x in row))
    return tuple(weights), tuple(rows)


def verlinde_table(spec: AlgebraSpec, mu: Weight, nu: Weight, k: int) -> dict:
    """Full fusion row of the independent oracle: lam -> N for every
    integrable lam, by the S-matrix ratio
    sum_sigma S_{mu sigma} S_{nu sigma} S*_{lam sigma} / S_{0 sigma};
    verlinde_rows on [nu]."""
    return verlinde_rows(spec, mu, [nu], k)[0]


def verlinde_rows(spec: AlgebraSpec, mu: Weight, nus, k: int) -> list:
    """One oracle table per nu in nus, as verlinde_table: the S rows are
    conjugated once, and each ratio adds its products t_sigma S*_{lam sigma}
    in sigma order.  A ratio more than 1e-6 from an integer raises
    OracleMismatchError."""
    weights = level_k_weights(spec, k)
    mu, nus = tuple(mu), [tuple(nu) for nu in nus]
    require_integrable(spec, k, mu, *nus)
    check_cap("weyl_order", spec.weyl_order, spec)  # the cached S matrix sums signed orbits
    _, rows = _s_matrix(spec, k)
    vacuum, row_mu = (rows[weights.index(w)] for w in ((0,) * spec.rank, mu))
    conjugates = [list(map(complex.conjugate, row)) for row in rows]
    tables = []
    for nu in nus:
        # t_sigma = S_{mu sigma} S_{nu sigma} / S_{0 sigma} does not depend on lam
        t = [a * b / v for a, b, v in zip(row_mu, rows[weights.index(nu)], vacuum)]
        table = {}
        for lam, conjugate in zip(weights, conjugates):
            total = sum(map(mul, t, conjugate))
            nearest = round(total.real)
            residual = abs(total - nearest)
            if residual > 1e-6:
                raise OracleMismatchError(
                    f"Verlinde ratio {total} for N_{{{mu},{nu}}}^{lam} at k={k} "
                    f"is {residual:.2e} from an integer"
                )
            if nearest:
                table[lam] = nearest
        tables.append(table)
    return tables
