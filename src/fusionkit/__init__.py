"""fusionkit: characters, weight systems and level-k fusion rings of simple
Lie algebras, with machine verification of the character identities that tie
them together.

Importing fusionkit loads no submodule: each submodule and exported name
loads on first access (PEP 562), with only what its own module imports.
No module imports numpy.
"""

import importlib

__version__ = "0.1.0"

_LAZY_MODULES = {
    "algebra": (
        "AlgebraSpec", "SignedDominant", "build_algebra", "cartan_inverse", "comarks",
        "dominant_conjugate", "positive_roots", "reflect_to_dominant", "signed_orbit",
    ),
    "characters": ("GenericPoint", "VarietyPoint", "eval_char", "eval_D"),
    "errors": (
        "CapExceeded", "Caps", "DEFAULT_CAPS", "FusionkitError", "OracleMismatchError",
        "SingularPointError", "caps_from_env", "use_caps",
    ),
    "fusion": (
        "fuse_level_k", "is_integrable", "level_k_weights", "level_pairing",
        "tensor_decompose",
    ),
    "identity": (
        "VerificationReport", "conjugacy_square_check", "dim_bound", "parseval_bound",
        "verify_lemma_weightsum", "verify_numerator_identity",
    ),
    "phase": (),
    "verlinde": ("verlinde_table",),
    "weights": ("WeightSystem", "conjugate", "weight_system", "weyl_dimension"),
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

# from fusionkit import * binds the exact layers and their names; csmodel
# and theta load on first access only.
__all__ = sorted(name for module, names in _LAZY_MODULES.items()
                 if module not in ("csmodel", "theta") for name in (module, *names))


def __getattr__(name):
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY_MODULES) | set(_LAZY))
