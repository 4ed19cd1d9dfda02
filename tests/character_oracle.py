"""Characters and both sides of the character identity, summed directly, as
oracles for the tests: the weight-system trace of a character, independent
of the Weyl-ratio code path, and the two sides of

    sum_{mu' in Omega_mu} chi_{mu'+nu} = sum_iota N_{mu nu}^iota chi_iota

at one point, each through characters.weyl_ratio_sums.  Test modules import
this file as a plain module (``from character_oracle import ...``); pytest
puts the tests directory on sys.path.
"""

import cmath

from fusionkit.algebra import AlgebraSpec, Weight, cartan_inverse
from fusionkit.characters import (
    EvalPoint,
    GenericPoint,
    _check_point,
    _generic_pairing_vector,
    phase_kernel,
    phase_sums,
    weyl_ratio_sums,
)
from fusionkit.fusion import _shifted_terms, fuse_level_k, tensor_decompose
from fusionkit.identity import _rhs_terms
from fusionkit.weights import weight_system


def eval_char_trace(spec: AlgebraSpec, mu: Weight, p: EvalPoint) -> complex:
    """Character as the plain weight-system sum sum_{r in Omega_mu} m_r e^{(r,p)};
    slower than eval_char but independent of the Weyl-ratio code path."""
    _check_point(spec, p)
    ws = weight_system(spec, mu)
    if isinstance(p, GenericPoint):
        gu = _generic_pairing_vector(spec, p.u)
        return sum(
            mult * cmath.exp(sum(ri * gi for ri, gi in zip(r, gu)))
            for r, mult in ws.entries.items()
        )
    kernel = phase_kernel(cartan_inverse(spec), p.level_shifted)
    values = phase_sums(kernel, list(ws.entries), list(ws.entries.values()), [p.gamma])
    return complex(values[0])


def lhs_char_sum(spec: AlgebraSpec, mu: Weight, nu: Weight, p: EvalPoint) -> complex:
    """sum over Omega_mu (with multiplicity) of the virtual character of
    mu' + nu at p."""
    return weyl_ratio_sums(spec, _shifted_terms(spec, mu, nu), [p])[0]


def rhs_fusion_sum(spec: AlgebraSpec, mu: Weight, nu: Weight, p: EvalPoint,
                   k: int | None = None) -> complex:
    """sum_iota N_{mu nu}^iota chi_iota(p), with N the tensor coefficients
    when k is None (algebra level) and the level-k fusion table otherwise."""
    mu, nu = tuple(mu), tuple(nu)
    table = tensor_decompose(spec, mu, nu) if k is None else fuse_level_k(spec, mu, nu, k)
    return weyl_ratio_sums(spec, _rhs_terms(table), [p])[0]
