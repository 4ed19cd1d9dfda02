"""CLI contract: exit codes, schemas, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fusionkit
from fusionkit import cli, fusion

SRC = str(Path(fusionkit.__file__).resolve().parent.parent)


def run_optimized(*args):
    """Run python -O with the package on the path; returns the finished process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-O", *args], env=env, capture_output=True,
                          text=True, timeout=120)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_weights_json(capsys):
    code, out = run(capsys, "weights", "A1", "--mu", "2")
    assert code == 0
    record = json.loads(out)
    assert record["dim"] == 3
    assert record["sum_squares"] == 3
    assert {tuple(e["weight"]): e["multiplicity"] for e in record["entries"]} == {
        (-2,): 1, (0,): 1, (2,): 1,
    }


def test_weights_a2_adjoint(capsys):
    code, out = run(capsys, "weights", "A2", "--mu", "1,1")
    record = json.loads(out)
    assert code == 0 and record["dim"] == 8 and record["sum_squares"] == 10


def test_weights_trivial_and_text(capsys):
    code, out = run(capsys, "weights", "A1", "--mu", "0", "--format", "text")
    assert code == 0 and "dim 1" in out


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "weights", "Q3", "--mu", "1")[0] == 2
    assert run(capsys, "weights", "A2", "--mu", "1")[0] == 2       # wrong length
    assert run(capsys, "weights", "A1")[0] == 2                    # argparse error
    assert run(capsys, "fuse", "A1", "--k", "-3", "--mu", "1", "--nu", "1")[0] == 2
    assert run(capsys, "fuse", "A1", "--k", "2", "--mu", "3", "--nu", "0")[0] == 2


def test_cap_exceeded_exit_1(capsys, monkeypatch):
    monkeypatch.setenv("FUSIONKIT_CAPS", "dim=2")
    assert run(capsys, "weights", "A2", "--mu", "1,1")[0] == 1


WEYL_GROUP_COMMANDS = [
    ("verify", "A2", "--k", "1", "--suite", "identity"),
    ("verify", "A2", "--k", "1", "--suite", "all"),
    ("fuse", "A2", "--k", "1", "--mu", "1,0", "--nu", "0,1", "--oracle"),
    ("theta", "A2", "--k", "1", "--gamma", "1,0", "--tau", "0+1i", "--u", "0.05,0.02"),
]


@pytest.mark.parametrize("argv", WEYL_GROUP_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_weyl_order_cap_flag(capsys, argv):
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv, "--cap-weyl-order", "6")[0] == 0
    assert run(capsys, *argv, "--cap-weyl-order", "1")[0] == 1


@pytest.mark.parametrize("argv", WEYL_GROUP_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_weyl_order_cap_env(capsys, monkeypatch, argv):
    monkeypatch.setenv("FUSIONKIT_CAPS", "weyl_order=5")
    assert run(capsys, *argv)[0] == 1


def test_weyl_order_cap_skips_commands_without_orbits(capsys):
    """Tensor folding and weight systems enumerate no Weyl orbit, so the cap
    leaves them alone (E7 and E8 lie above the default cap)."""
    assert run(capsys, "weights", "A2", "--mu", "1,0", "--cap-weyl-order", "1")[0] == 0
    assert run(capsys, "fuse", "A2", "--k", "1", "--mu", "1,0", "--nu", "0,1",
               "--cap-weyl-order", "1")[0] == 0
    assert run(capsys, "verify", "A2", "--k", "1", "--suite", "bounds",
               "--cap-weyl-order", "1")[0] == 0


def test_env_caps_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setenv("FUSIONKIT_CAPS", "nonsense=1")
    assert run(capsys, "weights", "A1", "--mu", "1")[0] == 2


def test_fuse_examples(capsys):
    code, out = run(capsys, "fuse", "A1", "--k", "2", "--mu", "2", "--nu", "2")
    record = json.loads(out)
    assert code == 0
    assert record["table"] == [{"weight": [0], "coefficient": 1}]

    code, out = run(capsys, "fuse", "A1", "--k", "inf", "--mu", "1", "--nu", "1")
    record = json.loads(out)
    assert code == 0
    assert {tuple(e["weight"]) for e in record["table"]} == {(0,), (2,)}

    code, out = run(capsys, "fuse", "A2", "--k", "1", "--mu", "1,0", "--nu", "1,0",
                    "--oracle")
    record = json.loads(out)
    assert code == 0 and record["oracle_matches"]
    assert record["table"] == [{"weight": [0, 1], "coefficient": 1}]


def test_fuse_oracle_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "fuse_level_k", lambda *a, **k: {(0,): 2})
    code, _ = run(capsys, "fuse", "A1", "--k", "2", "--mu", "2", "--nu", "2", "--oracle")
    assert code == 3


def test_invariant_violation_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(fusion, "_FOLD_LIMIT", 0)
    fusion._fuse_cached.cache_clear()
    try:
        code, _ = run(capsys, "fuse", "A1", "--k", "2", "--mu", "1", "--nu", "1")
    finally:
        fusion._fuse_cached.cache_clear()
    assert code == 3


def test_invariant_violation_exits_3_under_optimize():
    script = ("import sys; from fusionkit import cli, fusion; fusion._FOLD_LIMIT = 0; "
              "sys.exit(cli.main(['fuse', 'A1', '--k', '2', '--mu', '1', '--nu', '1']))")
    finished = run_optimized("-c", script)
    assert finished.returncode == 3, finished.stderr
    assert "invariant violated" in finished.stderr


def test_weights_invariant_under_optimize():
    """A Weyl dimension that disagrees with the multiplicities trips the
    weights invariant, which python -O must not strip."""
    script = ("import sys; from fusionkit import cli, weights; "
              "weights.weyl_dimension = lambda spec, mu: 4; "
              "sys.exit(cli.main(['weights', 'A2', '--mu', '1,0']))")
    finished = run_optimized("-c", script)
    assert finished.returncode == 3, finished.stderr
    assert "invariant violated" in finished.stderr
    assert "not the Weyl dimension 4" in finished.stderr


def test_verify_under_optimize():
    finished = run_optimized("-m", "fusionkit.cli", "verify", "A1", "--k", "2",
                             "--suite", "identity")
    assert finished.returncode == 0, finished.stderr
    records = [json.loads(line) for line in finished.stdout.splitlines()]
    assert records and all(r["passed"] and r["points_checked"] == 8 for r in records)


@pytest.mark.parametrize("suite", ["identity", "lemma", "bounds", "conjugacy"])
def test_verify_suites_pass(capsys, suite):
    code, out = run(capsys, "verify", "A2", "--k", "2", "--suite", suite)
    assert code == 0
    for line in out.strip().splitlines():
        record = json.loads(line)
        assert record["passed"] is True
        assert record["witnesses"] == []
        assert record["algebra"] == "A2" and record["k"] == 2
        assert set(record) == {"case_id", "algebra", "k", "mu", "nu", "points_checked",
                               "max_abs_residual", "tolerance", "passed", "witnesses"}


def test_verify_theta_and_csmodel(capsys):
    for suite in ("theta", "csmodel"):
        code, out = run(capsys, "verify", "A1", "--k", "2", "--suite", suite)
        assert code == 0
        assert all(json.loads(line)["passed"] for line in out.strip().splitlines())


def test_verify_identity_at_algebra_level(capsys):
    code, out = run(capsys, "verify", "A1", "--k", "inf", "--suite", "identity",
                    "--seed", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16  # labels 0..3 squared
    assert all(json.loads(line)["passed"] for line in lines)


def test_verify_failure_exits_3(capsys, monkeypatch):
    from fusionkit import identity

    monkeypatch.setattr(identity, "fuse_level_k", lambda *a, **k: {(0,): 2})
    code, out = run(capsys, "verify", "A1", "--k", "2", "--suite", "identity")
    assert code == 3
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert any(not r["passed"] and r["witnesses"] for r in records)


def test_verify_deterministic_output(capsys):
    _, first = run(capsys, "verify", "A1", "--k", "3", "--suite", "identity",
                   "--seed", "42")
    _, second = run(capsys, "verify", "A1", "--k", "3", "--suite", "identity",
                    "--seed", "42")
    assert first == second


def test_output_file_roundtrip(tmp_path, capsys):
    target = tmp_path / "report.jsonl"
    code, out = run(capsys, "verify", "A1", "--k", "2", "--suite", "lemma",
                    "--output", str(target))
    assert code == 0 and out == ""
    lines = target.read_text().strip().splitlines()
    assert lines and all(json.loads(line)["passed"] for line in lines)


def test_theta_command(capsys):
    code, out = run(capsys, "theta", "A1", "--k", "2", "--gamma", "1",
                    "--tau", "0+1i", "--u", "0.05")
    assert code == 0
    header, row = out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["t_residual"]) < 1e-10
    assert float(fields["heat_residual"]) < 1e-4
    assert abs(complex(float(fields["value_re"]), float(fields["value_im"]))) > 0
    assert float(fields["radius"]) >= 1.0
    assert int(fields["lattice_points"]) > 0
    assert float(fields["tail_bound"]) < 1e-12
    assert list(fields)[-3:] == ["radius", "lattice_points", "tail_bound"]


def test_theta_wall_antisym_is_zero(capsys):
    code, out = run(capsys, "theta", "A1", "--k", "2", "--gamma", "0",
                    "--tau", "0+1i", "--u", "0.05", "--antisym")
    fields = dict(zip(*[line.split(",") for line in out.strip().splitlines()]))
    assert code == 0
    assert complex(float(fields["value_re"]), float(fields["value_im"])) == 0


def test_theta_char_of_vacuum_is_one(capsys):
    code, out = run(capsys, "theta", "A1", "--k", "2", "--char", "--mu", "0",
                    "--tau", "0+1i", "--u", "0.05")
    fields = dict(zip(*[line.split(",") for line in out.strip().splitlines()]))
    assert code == 0
    assert abs(complex(float(fields["value_re"]), float(fields["value_im"])) - 1) < 1e-12


def test_theta_bad_tau_exits_2(capsys):
    assert run(capsys, "theta", "A1", "--k", "2", "--gamma", "1",
               "--tau", "1+0i", "--u", "0.05")[0] == 2
    assert run(capsys, "theta", "A1", "--k", "2", "--tau", "0+1i", "--u", "0.05")[0] == 2
