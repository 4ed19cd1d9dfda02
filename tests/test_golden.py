"""Golden output: `verify ... --seed 0` must reproduce the recorded JSON
lines byte for byte.  Refactors of the checking code keep the arithmetic and
the summation order, so the residuals themselves are pinned, not only the
verdicts.  The `weights` and `fuse` tables are pinned the same way, in each
output format.

Re-record (only after a deliberate change of output) with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

where a NAME is a CASES stem or a COMMAND_CASES file name; with no NAME every
file is re-recorded.
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
    # 784 ordered pairs: the largest all-pairs integer suites of the set
    "A2_k6_bounds": (["A2", "--k", "6", "--suite", "bounds"], 0),
    "A2_k6_conjugacy": (["A2", "--k", "6", "--suite", "conjugacy"], 0),
    # L = 24 with a radical of 3: the largest Fourier transform of the set
    "A2_k5_csmodel": (["A2", "--k", "5", "--suite", "csmodel"], 0),
    # the csmodel invocation of the rings benchmark, at seed 0
    "A2_k4_csmodel": (["A2", "--k", "4", "--suite", "csmodel"], 0),
    # rank 3, halves in the quadratic form, a 1,000-state cover and a
    # non-unitary S: the non-simply-laced branch of check_s_conjugation
    "C3_k1_csmodel": (["C3", "--k", "1", "--suite", "csmodel"], 0),
    "A1_kinf_identity": (["A1", "--k", "inf", "--suite", "identity"], 0),
    "A2_kinf_identity": (["A2", "--k", "inf", "--suite", "identity"], 0),
    # quadratic forms with thirds and with halves: the non-simply-laced generic cases
    "G2_kinf_identity": (["G2", "--k", "inf", "--suite", "identity"], 0),
    "B2_kinf_identity": (["B2", "--k", "inf", "--suite", "identity"], 0),
    # 192-image orbits with wall terms: the largest orbits of the set
    "D4_k1_lemma": (["D4", "--k", "1", "--suite", "lemma"], 0),
}

#: file name -> (command line, exit code); the suffix names the format
COMMAND_CASES = {
    # multiplicities up to 2 and a quadratic form with thirds
    "G2_weights.jsonl": (["weights", "G2", "--mu", "1,1", "--format", "json"], 0),
    "G2_weights.csv": (["weights", "G2", "--mu", "1,1", "--format", "csv"], 0),
    "G2_weights.txt": (["weights", "G2", "--mu", "1,1", "--format", "text"], 0),
    "B3_weights.jsonl": (["weights", "B3", "--mu", "1,0,1", "--format", "json"], 0),
    "A2_k2_fuse_oracle.jsonl": (["fuse", "A2", "--k", "2", "--mu", "1,1", "--nu", "1,1",
                                 "--oracle", "--format", "json"], 0),
    "A2_k2_fuse_oracle.csv": (["fuse", "A2", "--k", "2", "--mu", "1,1", "--nu", "1,1",
                               "--oracle", "--format", "csv"], 0),
    "A2_k2_fuse_oracle.txt": (["fuse", "A2", "--k", "2", "--mu", "1,1", "--nu", "1,1",
                               "--oracle", "--format", "text"], 0),
    "B3_k2_fuse_oracle.jsonl": (["fuse", "B3", "--k", "2", "--mu", "1,0,1", "--nu", "0,0,1",
                                 "--oracle", "--format", "json"], 0),
    # 1,920-image orbits through the Verlinde oracle: the rings benchmark's fuse call
    "D5_k1_fuse_oracle.jsonl": (["fuse", "D5", "--k", "1", "--mu", "1,0,0,0,0", "--nu",
                                 "0,0,0,1,0", "--oracle", "--format", "json"], 0),
    # three 51,840-image orbits of E6 through the Verlinde oracle
    "E6_k1_fuse_oracle.jsonl": (["fuse", "E6", "--k", "1", "--mu", "1,0,0,0,0,0", "--nu",
                                 "0,0,0,0,1,0", "--oracle", "--format", "json"], 0),
    "G2_kinf_fuse.txt": (["fuse", "G2", "--k", "inf", "--mu", "1,0", "--nu", "0,1",
                          "--format", "text"], 0),
}


def run_cli(argv, path):
    """Run `<argv> --output path` in process; the exit code."""
    return cli.main([*argv, "--output", str(path)])


def run_verify(args, path):
    """Run `verify <args> --seed 0 --output path` in process; the exit code."""
    return run_cli(["verify", *args, "--seed", "0"], path)


@pytest.mark.filterwarnings("ignore:(A1|G2) admits no complex representations")
@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_output_matches_golden(name, tmp_path):
    args, expected_code = CASES[name]
    out = tmp_path / f"{name}.jsonl"
    assert run_verify(args, out) == expected_code
    assert out.read_bytes() == (GOLDEN / f"{name}.jsonl").read_bytes()


@pytest.mark.parametrize("name", sorted(COMMAND_CASES))
def test_command_output_matches_golden(name, tmp_path):
    argv, expected_code = COMMAND_CASES[name]
    out = tmp_path / name
    assert run_cli(argv, out) == expected_code
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_record_refuses_an_unknown_name_before_writing(monkeypatch, tmp_path):
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", tmp_path)
    with pytest.raises(SystemExit, match="unknown golden case: A2_kinf_identit$"):
        record(["B2_kinf_identity", "A2_kinf_identit"])
    assert list(tmp_path.iterdir()) == []


def record(names) -> None:
    """Re-record the named golden files, CASES by stem and COMMAND_CASES by
    file name; every file when no name is given."""
    files = {f"{stem}.jsonl": (["verify", *args, "--seed", "0"], code)
             for stem, (args, code) in CASES.items()}
    files.update(COMMAND_CASES)
    chosen = [f"{name}.jsonl" if name in CASES else name for name in names] or sorted(files)
    unknown = [name for name in chosen if name not in files]
    if unknown:
        sys.exit(f"unknown golden case: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in chosen:
        argv, expected_code = files[name]
        code = run_cli(argv, GOLDEN / name)
        if code != expected_code:
            sys.exit(f"{name}: exit {code}, expected {expected_code}")


if __name__ == "__main__":
    import warnings

    warnings.simplefilter("ignore")
    record(sys.argv[1:])
