"""fusionkit: characters, weight systems and level-k fusion rings of simple
Lie algebras, with machine verification of the character identities that tie
them together."""

import importlib

from .algebra import (
    AlgebraSpec,
    SignedDominant,
    build_algebra,
    cartan_inverse,
    comarks,
    dominant_conjugate,
    positive_roots,
    reflect_to_dominant,
    signed_orbit,
)
from .characters import (
    GenericPoint,
    VarietyPoint,
    eval_char,
    eval_D,
)
from .errors import (
    CapExceeded,
    Caps,
    DEFAULT_CAPS,
    FusionkitError,
    OracleMismatchError,
    SingularPointError,
    caps_from_env,
    use_caps,
)
from .fusion import (
    fuse_level_k,
    is_integrable,
    level_k_weights,
    level_pairing,
    tensor_decompose,
    verlinde_table,
)
from .identity import (
    VerificationReport,
    conjugacy_square_check,
    dim_bound,
    parseval_bound,
    verify_lemma_weightsum,
    verify_numerator_identity,
)
from .weights import (
    WeightSystem,
    conjugate,
    weight_system,
    weyl_dimension,
)

__version__ = "0.1.0"

# The numeric layers load on first access (PEP 562): csmodel imports numpy,
# the only module that does, and theta is plain Python needed only for theta
# sums.  Importing fusionkit, for exact work or for characters at any point,
# loads neither.
_LAZY_MODULES = {
    "csmodel": (
        "FourierOperator", "GaussianModel", "LatticeOperator", "build_model",
        "character_as_inner_product", "check_clock_commutator", "check_s_conjugation",
        "clock_op", "operator_fusion_rows", "primary_state", "s_operator", "shift_op",
        "wilson_operator",
    ),
    "theta": (
        "ThetaContext", "check_heat_equation", "check_T_transform", "kac_weyl_char",
        "theta_sum", "theta_weyl", "verify_kw_identity",
    ),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name):
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY_MODULES) | set(_LAZY))
