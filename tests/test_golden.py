"""Golden output: `verify ... --seed 0` must reproduce the recorded JSON
lines byte for byte.  Refactors of the checking code keep the arithmetic and
the summation order, so the residuals themselves are pinned, not only the
verdicts.

Re-record (only after a deliberate change of output) with

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from fusionkit import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

#: file stem -> (verify arguments, exit code)
CASES = {
    "A1_k6_all": (["A1", "--k", "6", "--suite", "all"], 0),
    "A2_k2_all": (["A2", "--k", "2", "--suite", "all"], 0),
    "G2_k2_identity": (["G2", "--k", "2", "--suite", "identity"], 0),
    "G2_k2_lemma": (["G2", "--k", "2", "--suite", "lemma"], 0),
    "G2_k2_bounds": (["G2", "--k", "2", "--suite", "bounds"], 0),
    "G2_k2_conjugacy": (["G2", "--k", "2", "--suite", "conjugacy"], 0),
    "G2_k2_csmodel": (["G2", "--k", "2", "--suite", "csmodel"], 0),
    "A1_kinf_identity": (["A1", "--k", "inf", "--suite", "identity"], 0),
    "A2_kinf_identity": (["A2", "--k", "inf", "--suite", "identity"], 0),
}


def run_verify(args, path):
    """Run `verify <args> --seed 0 --output path` in process; the exit code."""
    return cli.main(["verify", *args, "--seed", "0", "--output", str(path)])


@pytest.mark.filterwarnings("ignore:G2 admits no complex representations")
@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_output_matches_golden(name, tmp_path):
    args, expected_code = CASES[name]
    out = tmp_path / f"{name}.jsonl"
    assert run_verify(args, out) == expected_code
    assert out.read_bytes() == (GOLDEN / f"{name}.jsonl").read_bytes()


def test_g2_all_stops_at_theta(capsys):
    """theta sums need a simply-laced algebra: the whole G2 run is a usage
    error and prints nothing, so its suites are pinned one by one above."""
    with pytest.warns(UserWarning):
        code = cli.main(["verify", "G2", "--k", "2", "--suite", "all", "--seed", "0"])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().out == ""


if __name__ == "__main__":
    import warnings

    warnings.simplefilter("ignore")
    GOLDEN.mkdir(exist_ok=True)
    for name, (args, expected_code) in sorted(CASES.items()):
        code = run_verify(args, GOLDEN / f"{name}.jsonl")
        if code != expected_code:
            sys.exit(f"{name}: exit {code}, expected {expected_code}")
