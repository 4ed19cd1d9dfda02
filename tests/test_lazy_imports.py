"""Every command but the csmodel suite runs without numpy: numpy, theta and
csmodel load on first use, and the package exports its numeric names
lazily."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fusionkit

SRC = str(Path(fusionkit.__file__).resolve().parent.parent)

NUMPY_FREE_COMMANDS = [
    ["weights", "A2", "--mu", "1,1"],
    ["fuse", "A2", "--k", "3", "--mu", "1,0", "--nu", "1,1"],
    ["fuse", "A2", "--mu", "1,0", "--nu", "1,1"],
    ["verify", "A2", "--k", "inf", "--suite", "identity"],
    ["verify", "A2", "--k", "3", "--suite", "bounds"],
    ["verify", "A2", "--k", "3", "--suite", "conjugacy"],
    ["verify", "A2", "--k", "2", "--suite", "identity"],
    ["verify", "A2", "--k", "2", "--suite", "lemma"],
    ["fuse", "A2", "--k", "2", "--mu", "1,0", "--nu", "1,1", "--oracle"],
]

# Runs cli.main on argv in a fresh interpreter; prints the exit code and
# which of the lazily loaded modules ended up in sys.modules.
PROBE = """\
import sys
from fusionkit import cli
code = cli.main(sys.argv[1:])
loaded = [m for m in ("numpy", "fusionkit.theta", "fusionkit.csmodel") if m in sys.modules]
print(code, *loaded)
"""


def probe(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv, "--output", os.devnull],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS, ids=" ".join)
def test_exact_commands_do_not_load_numpy(argv):
    assert probe(argv) == ["0"]


def test_csmodel_suite_loads_numpy():
    """The probe sees numpy when a command does build arrays."""
    assert probe(["verify", "A2", "--k", "2", "--suite", "csmodel"]) == [
        "0", "numpy", "fusionkit.csmodel"]


def test_theta_command_loads_theta():
    assert probe(["theta", "A1", "--k", "2", "--gamma", "1", "--tau", "0+1i",
                  "--u", "0.05"]) == ["0", "fusionkit.theta"]


@pytest.mark.parametrize("argv", [
    ["verify", "A3", "--k", "1", "--suite", "theta"],
    ["theta", "A3", "--k", "1", "--char", "--mu", "1,0,0", "--tau", "0+1i",
     "--u", "0.05,0.02,0.01"],
], ids=" ".join)
def test_theta_runs_without_numpy(argv):
    """The theta layer is plain Python: its suite and characters load it and
    nothing that imports numpy."""
    assert probe(argv) == ["0", "fusionkit.theta"]


def test_package_exports_numeric_names_lazily():
    from fusionkit import ThetaContext, build_model, theta_sum  # noqa: F401

    for name, module in fusionkit._LAZY.items():
        owner = importlib.import_module(f"fusionkit.{module}")
        assert getattr(fusionkit, name) is getattr(owner, name)
    names = dir(fusionkit)
    for name in ("ThetaContext", "build_model", "theta_sum", "theta", "csmodel",
                 "tensor_decompose", "weight_system"):
        assert name in names
    with pytest.raises(AttributeError, match="no_such_name"):
        fusionkit.no_such_name



#: the public names of the package, lazy ones included
PUBLIC_NAMES = [
    "AlgebraSpec", "CapExceeded", "Caps", "DEFAULT_CAPS", "FourierOperator", "FusionkitError",
    "GaussianModel", "GenericPoint", "LatticeOperator", "OracleMismatchError", "SignedDominant",
    "SingularPointError", "ThetaContext", "VarietyPoint", "VerificationReport",
    "WeightSystem", "algebra", "build_algebra", "build_model", "caps_from_env", "cartan_inverse",
    "character_as_inner_product", "characters", "check_T_transform", "check_clock_commutator",
    "check_heat_equation", "check_s_conjugation", "clock_op", "comarks",
    "conjugacy_square_check", "conjugate", "csmodel", "dim_bound", "dominant_conjugate",
    "errors", "eval_D", "eval_char", "fuse_level_k", "fusion", "identity", "importlib",
    "is_integrable", "kac_weyl_char", "level_k_weights", "level_pairing",
    "operator_fusion_rows", "parseval_bound", "positive_roots", "primary_state",
    "reflect_to_dominant", "s_operator", "shift_op", "signed_orbit", "tensor_decompose",
    "theta", "theta_sum", "theta_weyl", "use_caps", "verify_kw_identity",
    "verify_lemma_weightsum", "verify_numerator_identity", "verlinde_table",
    "weight_system", "weights", "weyl_dimension", "wilson_operator",
]


def test_public_names_are_pinned():
    """dir(fusionkit) in a fresh interpreter, where no test has imported a
    submodule such as fusionkit.cli, lists exactly the pinned names."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import fusionkit; print(*(n for n in dir(fusionkit) if not n.startswith('_')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 66
