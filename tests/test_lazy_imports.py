"""Cold start: importing fusionkit loads no submodule, the CLI loads only
the layers a command runs, and no command loads dataclasses or numpy."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fusionkit

SRC = str(Path(fusionkit.__file__).resolve().parent.parent)

#: commands that need neither theta sums nor the clock/shift model
EXACT_COMMANDS = [
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

CSMODEL_SUITE = ["verify", "A2", "--k", "2", "--suite", "csmodel"]
ALL_SUITES = ["verify", "A2", "--k", "2", "--suite", "all"]
THETA_SUITE = ["verify", "A3", "--k", "1", "--suite", "theta"]
THETA_CHAR = ["theta", "A3", "--k", "1", "--char", "--mu", "1,0,0", "--tau", "0+1i",
              "--u", "0.05,0.02,0.01"]
THETA_GAMMA = ["theta", "A1", "--k", "2", "--gamma", "1", "--tau", "0+1i", "--u", "0.05"]

#: exact integer commands and the theta commands: no Weyl character is
#: evaluated at a generic or variety point, so characters is not loaded
CHARACTER_FREE_COMMANDS = [
    ["weights", "A2", "--mu", "1,1"],
    ["fuse", "A2", "--k", "3", "--mu", "1,0", "--nu", "1,1"],
    ["fuse", "A2", "--mu", "1,0", "--nu", "1,1"],
    ["verify", "A2", "--k", "3", "--suite", "bounds"],
    ["verify", "A2", "--k", "3", "--suite", "conjugacy"],
    THETA_SUITE,
    THETA_CHAR,
]

#: the modules a theta command loads: the theta layer, and identity for the
#: suite's reports
THETA_LAYER = {"fusionkit", "fusionkit.cli", "fusionkit.algebra", "fusionkit.errors",
               "fusionkit.theta"}

#: commands beyond EXACT_COMMANDS, whose numpy-free probe is above
NUMPY_FREE_COMMANDS = [CSMODEL_SUITE, ALL_SUITES, THETA_SUITE, THETA_CHAR]

# Runs cli.main on argv in a fresh interpreter (with no argv, only imports
# the CLI) and prints the exit code, then every loaded fusionkit module and
# numpy or dataclasses if loaded.
PROBE = """\
import sys
from fusionkit import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *sorted(m for m in sys.modules
                    if m in ("numpy", "dataclasses") or m.split(".")[0] == "fusionkit"))
"""


def probe(argv=(), preamble=""):
    """(exit code, set of loaded modules) of one probe run, with the code
    ``preamble`` run first."""
    args = [*argv, "--output", os.devnull] if argv else []
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", preamble + PROBE, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    return int(code), set(loaded)


def test_cli_import_loads_only_algebra_and_errors():
    assert probe() == (0, {"fusionkit", "fusionkit.cli", "fusionkit.algebra",
                           "fusionkit.errors"})


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=" ".join)
def test_exact_commands_do_not_load_numpy(argv):
    code, loaded = probe(argv)
    assert code == 0
    assert not loaded & {"numpy", "fusionkit.theta", "fusionkit.csmodel"}


@pytest.mark.parametrize("argv", CHARACTER_FREE_COMMANDS, ids=" ".join)
def test_integer_commands_do_not_load_characters(argv):
    code, loaded = probe(argv)
    assert code == 0 and "fusionkit.characters" not in loaded


@pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS, ids=" ".join)
def test_no_command_loads_numpy(argv):
    code, loaded = probe(argv)
    assert code == 0 and "numpy" not in loaded


def test_csmodel_suite_loads_csmodel_and_no_theta():
    code, loaded = probe(CSMODEL_SUITE)
    assert code == 0 and "fusionkit.csmodel" in loaded
    assert not loaded & {"numpy", "fusionkit.theta"}


def test_probe_reports_numpy_when_something_imports_it():
    """Positive control: the probe does see numpy once it is imported, so
    the numpy-free results above are not vacuous."""
    code, loaded = probe(CSMODEL_SUITE, preamble="import numpy\n")
    assert code == 0 and {"numpy", "fusionkit.csmodel"} <= loaded


def imported_modules(source: str) -> set:
    """Every module a fusionkit source file names in an import statement, at
    module level or in a function, relative imports resolved against the
    package: ``from . import cli`` names fusionkit and fusionkit.cli."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = ".".join(filter(None, ["fusionkit", module]))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_imported_modules_sees_every_form_of_a_cli_import():
    for source in ("import fusionkit.cli", "from fusionkit import cli", "from . import cli",
                   "from .cli import main", "def f():\n    from fusionkit.cli import main"):
        assert "fusionkit.cli" in imported_modules(source), source
    assert "fusionkit.cli" not in imported_modules("from .identity import make_report")


def test_no_package_module_imports_numpy():
    """No file under src/fusionkit imports numpy, at module level or in a
    function, and none imports fusionkit.cli: under ``python -m
    fusionkit.cli`` the CLI runs as __main__, so an import of it would
    compile and run cli.py a second time."""
    package = Path(fusionkit.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        names = imported_modules(path.read_text())
        assert not any(name.split(".")[0] == "numpy" for name in names), path.name
        assert "fusionkit.cli" not in names, path.name


def test_theta_command_loads_theta():
    code, loaded = probe(["theta", "A1", "--k", "2", "--gamma", "1", "--tau", "0+1i",
                          "--u", "0.05"])
    assert code == 0 and "fusionkit.theta" in loaded
    assert not loaded & {"numpy", "fusionkit.csmodel"}


@pytest.mark.parametrize("argv", [THETA_SUITE, THETA_CHAR], ids=" ".join)
def test_theta_runs_without_numpy(argv):
    """The theta layer is plain Python: its suite and characters load it and
    nothing that imports numpy."""
    code, loaded = probe(argv)
    assert code == 0 and "fusionkit.theta" in loaded
    assert not loaded & {"numpy", "fusionkit.csmodel"}


@pytest.mark.parametrize("argv,modules", [
    (THETA_SUITE, THETA_LAYER | {"fusionkit.identity"}),
    (THETA_CHAR, THETA_LAYER),
    (THETA_GAMMA, THETA_LAYER),
], ids=[" ".join(THETA_SUITE), " ".join(THETA_CHAR), " ".join(THETA_GAMMA)])
def test_theta_commands_load_only_the_theta_layer(argv, modules):
    assert probe(argv) == (0, modules)


#: the fusion layers every suite but theta loads
FUSION_SUITE = {"fusionkit", "fusionkit.cli", "fusionkit.algebra", "fusionkit.errors",
                "fusionkit.identity", "fusionkit.fusion", "fusionkit.weights"}

#: the invocations of perfbench/run.py's workloads but the theta pair (pinned
#: by test_theta_commands_load_only_the_theta_layer) and the exact fusionkit
#: modules each loads: a call compiles only the kernels and the suite it runs
BENCHMARK_INVOCATIONS = [
    (["verify", "A3", "--k", "1", "--suite", "identity"], FUSION_SUITE | {"fusionkit.phase"}),
    (["verify", "G2", "--k", "2", "--suite", "identity"], FUSION_SUITE | {"fusionkit.phase"}),
    (["verify", "A2", "--k", "inf", "--suite", "identity", "--seed", "0"],
     FUSION_SUITE | {"fusionkit.characters"}),
    (["verify", "A2", "--k", "6", "--suite", "bounds"], FUSION_SUITE),
    (["verify", "A2", "--k", "6", "--suite", "conjugacy"], FUSION_SUITE),
    (["verify", "A2", "--k", "4", "--suite", "csmodel", "--seed", "0"],
     FUSION_SUITE | {"fusionkit.csmodel", "fusionkit.characters", "fusionkit.phase",
                     "fusionkit.verlinde"}),
    (["fuse", "D5", "--k", "1", "--mu", "1,0,0,0,0", "--nu", "0,0,0,1,0", "--oracle"],
     {"fusionkit", "fusionkit.cli", "fusionkit.algebra", "fusionkit.errors",
      "fusionkit.fusion", "fusionkit.weights", "fusionkit.verlinde", "fusionkit.phase"}),
]


@pytest.mark.parametrize("argv,modules", BENCHMARK_INVOCATIONS,
                         ids=[" ".join(argv) for argv, _ in BENCHMARK_INVOCATIONS])
def test_benchmark_invocations_load_exactly_their_layers(argv, modules):
    assert probe(argv) == (0, modules)


def test_theta_characters_skip_the_fusion_layers():
    """A finite-tau character needs theta sums only: no fusion table, weight
    system or identity check is loaded."""
    code, loaded = probe(THETA_CHAR)
    assert code == 0
    assert not loaded & {"fusionkit.fusion", "fusionkit.identity", "fusionkit.weights"}


@pytest.mark.parametrize("argv", EXACT_COMMANDS + [CSMODEL_SUITE, THETA_SUITE, THETA_CHAR],
                         ids=" ".join)
def test_no_command_loads_dataclasses(argv):
    code, loaded = probe(argv)
    assert code == 0 and "dataclasses" not in loaded


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



def test_star_import_binds_the_exact_layers():
    """from fusionkit import * binds the exact layers and their names through
    the lazy table, as it did when they loaded eagerly; csmodel and theta
    names stay on first access."""
    namespace = {}
    exec("from fusionkit import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert bound == set(fusionkit.__all__)
    assert {"build_algebra", "weight_system", "fuse_level_k", "Caps", "identity"} <= bound
    assert not bound & {"csmodel", "theta", *fusionkit._LAZY_MODULES["csmodel"],
                        *fusionkit._LAZY_MODULES["theta"]}


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
    "operator_fusion_rows", "parseval_bound", "phase", "positive_roots", "primary_state",
    "reflect_to_dominant", "s_operator", "shift_op", "signed_orbit", "tensor_decompose",
    "theta", "theta_sum", "theta_weyl", "use_caps", "verify_kw_identity",
    "verify_lemma_weightsum", "verify_numerator_identity", "verlinde", "verlinde_table",
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
    assert len(PUBLIC_NAMES) == 68
