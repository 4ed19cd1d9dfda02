"""The input guards of the library, each with one home: the rank and
dominance checks in algebra, the integrability check in fusion and the
series check in theta.
Each entry point that takes a weight runs the guard, and each guard's
message occurs once in the package, so a copied guard shows up here."""

from pathlib import Path

import pytest

import fusionkit
from fusionkit import fusion
from fusionkit.algebra import (
    build_algebra,
    dominant_conjugate,
    pairing_numerator,
    reflect_to_dominant,
    signed_orbit,
)
from fusionkit.characters import GenericPoint, VarietyPoint, eval_char, eval_D
from fusionkit.csmodel import (
    LatticeOperator,
    basis_state,
    build_model,
    character_as_inner_product,
    operator_fusion_rows,
    primary_state,
)
from fusionkit.errors import DEFAULT_CAPS, Caps, caps_from_env
from fusionkit.fusion import (
    fuse_level_k,
    level_pairing,
    tensor_decompose,
    tensor_decompose_rows,
)
from fusionkit.identity import verify_numerator_identity
from fusionkit.verlinde import verlinde_rows, verlinde_table
from fusionkit.weights import conjugate, weight_system, weyl_dimension

PACKAGE = Path(fusionkit.__file__).resolve().parent

A2 = build_algebra("A", 2)

#: public entry points of A2, each called with one weight of the wrong length
#: (a basis index, a shift or a phase power of the Gaussian model included)
WRONG_LENGTH_CALLS = {
    "basis_state": lambda lam: basis_state(build_model(A2, 1), lam),
    "character_as_inner_product_gamma":
        lambda lam: character_as_inner_product(build_model(A2, 1), lam, (0, 0)),
    "LatticeOperator_shift": lambda lam: LatticeOperator(
        build_model(A2, 1), [(1.0, (0, 0), (0, 0)), (1.0, lam, (0, 0))]),
    "LatticeOperator_power":
        lambda lam: LatticeOperator(build_model(A2, 1), [(1.0, (0, 0), lam)]),
    "conjugate": lambda lam: conjugate(A2, lam),
    "dominant_conjugate": lambda lam: dominant_conjugate(A2, lam),
    "eval_D_generic": lambda lam: eval_D(A2, lam, GenericPoint((0.3j, 0.7j))),
    "eval_D_variety": lambda lam: eval_D(A2, lam, VarietyPoint((1, 2), 4)),
    "eval_char": lambda lam: eval_char(A2, lam, GenericPoint((0.3j, 0.7j))),
    "level_pairing": lambda lam: level_pairing(A2, lam),
    "pairing_numerator": lambda lam: pairing_numerator(A2, (1, 0), lam),
    "reflect_to_dominant": lambda lam: reflect_to_dominant(A2, lam),
    "signed_orbit": lambda lam: signed_orbit(A2, lam),
    "tensor_decompose": lambda lam: tensor_decompose(A2, (1, 0), lam),
    "tensor_decompose_rows": lambda lam: tensor_decompose_rows(A2, (1, 0), [(0, 1), lam]),
    "weight_system": lambda lam: weight_system(A2, lam),
    "weyl_dimension": lambda lam: weyl_dimension(A2, lam),
}


@pytest.mark.parametrize("lam", [(1,), (1, 2, 3)])
@pytest.mark.parametrize("name", sorted(WRONG_LENGTH_CALLS))
def test_wrong_length_weight_is_rejected(name, lam):
    """A weight of the wrong length is a usage error, never a silent answer
    (an empty orbit, dimension 0 or a character 0j)."""
    with pytest.raises(ValueError, match="weight length does not match rank 2"):
        WRONG_LENGTH_CALLS[name](lam)


#: every level-k entry point, called at k = 1 with the non-integrable (2, 0)
NON_INTEGRABLE_CALLS = {
    "fuse_level_k": lambda lam: fuse_level_k(A2, (1, 0), lam, 1),
    "verlinde_rows": lambda lam: verlinde_rows(A2, (1, 0), [(0, 1), lam], 1),
    "verlinde_table": lambda lam: verlinde_table(A2, lam, (1, 0), 1),
    "verify_numerator_identity":
        lambda lam: verify_numerator_identity(A2, lam, (0, 0), 1, [(0, 0)]),
    "operator_fusion_rows": lambda lam: operator_fusion_rows(build_model(A2, 1), (0, 0), [lam]),
    "primary_state": lambda lam: primary_state(build_model(A2, 1), lam),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGRABLE_CALLS))
def test_non_integrable_weight_is_rejected(name):
    with pytest.raises(ValueError, match=r"\(2, 0\) is not integrable at level 1"):
        NON_INTEGRABLE_CALLS[name]((2, 0))


#: every entry point that takes a highest weight, called with a non-dominant one
NON_DOMINANT_CALLS = {
    "conjugate": lambda lam: conjugate(A2, lam),
    "eval_char": lambda lam: eval_char(A2, lam, GenericPoint((0.3j, 0.7j))),
    "tensor_decompose_mu": lambda lam: tensor_decompose(A2, lam, (1, 0)),
    "tensor_decompose_nu": lambda lam: tensor_decompose(A2, (1, 0), lam),
    "tensor_decompose_rows": lambda lam: tensor_decompose_rows(A2, (1, 1), [(0, 1), lam]),
    "weight_system": lambda lam: weight_system(A2, lam),
    "weyl_dimension": lambda lam: weyl_dimension(A2, lam),
}


@pytest.mark.parametrize("lam", [(-4, 0), (-2, 0), (-2, 3)])
@pytest.mark.parametrize("name", sorted(NON_DOMINANT_CALLS))
def test_non_dominant_weight_is_rejected(name, lam):
    """A non-dominant highest weight is a usage error: at k = infinity
    (1, 0) x (-4, 0) used to give a table, (1, 0) x (-2, 0) an empty one and
    (1, 1) x (-2, 3) an invariant violation."""
    with pytest.raises(ValueError, match=rf"\({lam[0]}, {lam[1]}\) is not dominant"):
        NON_DOMINANT_CALLS[name](lam)


def test_tensor_guards_run_before_the_memo():
    """The dominance check of every nu runs before a tensor memo is fetched,
    so a bad nu late in a row leaves no memo behind."""
    fusion._tensor_memo.cache_clear()
    with pytest.raises(ValueError, match="is not dominant"):
        tensor_decompose_rows(A2, (1, 0), [(0, 1), (1, 1), (2, -1)])
    assert fusion._tensor_memo.cache_info().currsize == 0


@pytest.mark.parametrize("message", ["is not integrable at level",
                                     "is not dominant",
                                     "weight length does not match rank",
                                     "theta sums are defined for the ADE series"])
def test_guard_message_has_one_home(message):
    counts = {path.name: path.read_text().count(message)
              for path in sorted(PACKAGE.glob("*.py"))}
    assert sum(counts.values()) == 1, {name: n for name, n in counts.items() if n}


@pytest.mark.parametrize("field,value", [("dim", 0), ("weyl_order", -1), ("hilbert", 0)])
def test_cap_below_one_is_rejected(field, value, monkeypatch):
    """Every way to a Caps checks it: the constructor, _replace and the
    FUSIONKIT_CAPS parser."""
    message = f"cap {field} must be at least 1, got {value}"
    with pytest.raises(ValueError, match=message):
        Caps(**{field: value})
    with pytest.raises(ValueError, match=message):
        DEFAULT_CAPS._replace(**{field: value})
    monkeypatch.setenv("FUSIONKIT_CAPS", f"{field}={value}")
    with pytest.raises(ValueError, match=message):
        caps_from_env()
    assert DEFAULT_CAPS._replace(**{field: 7}) == Caps(**{field: 7})
