"""CLI contract: exit codes, schemas, determinism."""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import fusionkit
from fusionkit import cli, fusion

SRC = str(Path(fusionkit.__file__).resolve().parent.parent)
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_optimized(*args):
    """Run python -O with the package on the path; returns the finished process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-O", *args], env=env, capture_output=True,
                          text=True, timeout=120)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_with_stderr(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    for argv in (["weights", "A2", "--mu", "1"],
                 ["fuse", "A2", "--k", "1", "--mu", "-1", "--nu", "0,1"],
                 ["fuse", "A2", "--mu", "1,0", "--nu", "0,1,0"],
                 ["theta", "A2", "--k", "1", "--gamma", "1", "--tau", "0+1i", "--u", "0.1,0.2"],
                 ["theta", "A2", "--k", "1", "--gamma", "1,0,0", "--antisym", "--tau", "0+1i",
                  "--u", "0.1,0.2"],
                 ["theta", "A2", "--k", "1", "--char", "--mu", "1", "--tau", "0+1i",
                  "--u", "0.1,0.2"]):
        code, out, err = run_with_stderr(capsys, *argv)
        assert (code, out) == (2, "") and "weight length does not match rank 2" in err, argv
    assert run(capsys, "weights", "A1")[0] == 2                    # argparse error
    assert run(capsys, "fuse", "A1", "--k", "-3", "--mu", "1", "--nu", "1")[0] == 2
    assert run(capsys, "fuse", "A1", "--k", "2", "--mu", "3", "--nu", "0")[0] == 2


@pytest.mark.parametrize("mu,nu", [("1,0", "-4,0"), ("1,0", "-2,0"), ("1,1", "-2,3"),
                                   ("-1,0", "1,0")])
def test_non_dominant_weight_at_k_inf_exits_2(capsys, mu, nu):
    """fuse at k = infinity used to print a table for (1,0) x (-4,0), an empty
    one for (1,0) x (-2,0) and exit 3 for (1,1) x (-2,3)."""
    code, out, err = run_with_stderr(capsys, "fuse", "A2", "--k", "inf", f"--mu={mu}",
                                     f"--nu={nu}")
    assert (code, out) == (2, "") and "is not dominant" in err


def test_cap_exceeded_exit_1(capsys, monkeypatch):
    monkeypatch.setenv("FUSIONKIT_CAPS", "dim=2")
    assert run(capsys, "weights", "A2", "--mu", "1,1")[0] == 1


WEYL_GROUP_COMMANDS = [
    ("verify", "A2", "--k", "1", "--suite", "identity"),
    ("verify", "A2", "--k", "1", "--suite", "all"),
    ("fuse", "A2", "--k", "1", "--mu", "1,0", "--nu", "0,1", "--oracle"),
    ("theta", "A2", "--k", "1", "--gamma", "1,0", "--tau", "0+1i", "--u", "0.05,0.02",
     "--antisym"),
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
    """Tensor folding, weight systems and plain theta sums enumerate no Weyl
    orbit, so the cap leaves them alone (E7 and E8 lie above the default cap)."""
    assert run(capsys, "weights", "A2", "--mu", "1,0", "--cap-weyl-order", "1")[0] == 0
    assert run(capsys, "fuse", "A2", "--k", "1", "--mu", "1,0", "--nu", "0,1",
               "--cap-weyl-order", "1")[0] == 0
    assert run(capsys, "verify", "A2", "--k", "1", "--suite", "bounds",
               "--cap-weyl-order", "1")[0] == 0
    assert run(capsys, "theta", "A2", "--k", "1", "--gamma", "1,0", "--tau", "0+1i",
               "--u", "0.05,0.02", "--cap-weyl-order", "1")[0] == 0


#: commands whose Weyl-orbit work sits behind a cache (the S matrix, primary
#: states, eval_D) or, for theta, behind none
CACHED_ORBIT_COMMANDS = [
    ("fuse", "A2", "--k", "1", "--mu", "1,0", "--nu", "0,1", "--oracle"),
    ("verify", "A2", "--k", "2", "--suite", "csmodel"),
    ("verify", "A2", "--k", "inf", "--suite", "identity"),
    ("theta", "A2", "--k", "1", "--gamma", "1,0", "--tau", "0+1i", "--u", "0.05,0.02",
     "--antisym"),
]


@pytest.mark.parametrize("argv", CACHED_ORBIT_COMMANDS, ids=lambda argv: f"{argv[0]} {argv[-1]}")
def test_weyl_order_cap_checked_on_warm_caches(capsys, argv):
    """A result cached under the default caps is not returned under a lower
    cap: the check sits in front of every cache."""
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv, "--cap-weyl-order", "1")[0] == 1


def test_cap_dim_reaches_finite_level_runs(capsys):
    """--cap-dim bounds the weight system behind every fusion table, also at
    finite level and on a warm fold memo: the fuse command and every suite
    that folds level-k tables."""
    argv = ("fuse", "A2", "--k", "2", "--mu", "1,1", "--nu", "1,0")
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv, "--cap-dim", "2")[0] == 1
    for suite in ("identity", "bounds", "conjugacy", "csmodel"):
        argv = ("verify", "A2", "--k", "2", "--suite", suite)
        assert run(capsys, *argv)[0] == 0, suite
        assert run(capsys, *argv, "--cap-dim", "2")[0] == 1, suite


def run_limited(argv, timeout, limit=2 << 30):
    """Run the CLI in a child under an address-space limit, 2 GiB unless
    given, so a scan that outgrows it fails alone instead of filling the
    machine."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run([sys.executable, "-m", "fusionkit.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=timeout,
                          preexec_fn=limit_memory)


@pytest.mark.parametrize("argv", [
    ("verify", "E7", "--k", "1", "--suite", "identity"),
    ("verify", "E8", "--k", "1", "--suite", "lemma"),
], ids=lambda argv: " ".join(argv[1:6:4]))
def test_e_series_scans_fail_fast(argv):
    """|W| of E7 and E8 is above the default cap: the suite stops before its
    first case."""
    assert run_limited(argv, timeout=5).returncode == 1


def test_e6_lemma_nets_without_a_grid():
    """Every E6 k1 lemma case nets to zero, so none builds the 13^6-point
    grid, and the run fits in 2 GiB."""
    proc = run_limited(("verify", "E6", "--k", "1", "--suite", "lemma"), timeout=60)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 3
    assert all(r["passed"] and r["points_checked"] == 13 ** 6 == 4826809 for r in records)


def test_e6_wall_orbits_fit_in_160_mib():
    """verify E6 --k 1 --suite lemma sums 55 orbits of up to 51,840 images,
    52 of them on walls; no orbit is kept, so it runs under a 160 MiB
    address-space limit and prints its golden output."""
    argv = ("verify", "E6", "--k", "1", "--suite", "lemma", "--seed", "0")
    proc = run_limited(argv, timeout=60, limit=160 << 20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "E6_k1_lemma.jsonl").read_text()


def test_e_series_runs_without_orbits_pass(capsys):
    assert run(capsys, "verify", "E7", "--k", "1", "--suite", "bounds")[0] == 0
    assert run(capsys, "weights", "E8", "--mu", "1,0,0,0,0,0,0,0")[0] == 0


def test_env_caps_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setenv("FUSIONKIT_CAPS", "nonsense=1")
    assert run(capsys, "weights", "A1", "--mu", "1")[0] == 2
    # a cap below 1 is a usage error, from the environment and from the flags
    for override in ("dim=0", "weyl_order=-5", "hilbert=0"):
        monkeypatch.setenv("FUSIONKIT_CAPS", override)
        code, _, err = run_with_stderr(capsys, "weights", "A1", "--mu", "1")
        assert code == 2 and err.startswith("error: ") and len(err.splitlines()) == 1
    monkeypatch.delenv("FUSIONKIT_CAPS")
    for flag, name, value in [("--cap-dim", "dim", "-1"), ("--cap-dim", "dim", "0"),
                              ("--cap-weyl-order", "weyl_order", "0"),
                              ("--cap-hilbert", "hilbert", "-3")]:
        code, _, err = run_with_stderr(capsys, "weights", "A1", "--mu", "1", flag, value)
        assert code == 2 and err == f"error: cap {name} must be at least 1, got {value}\n"


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
    # the fuse command imports fuse_level_k from fusion when it runs
    monkeypatch.setattr(fusion, "fuse_level_k", lambda *a, **k: {(0,): 2})
    code, _ = run(capsys, "fuse", "A1", "--k", "2", "--mu", "2", "--nu", "2", "--oracle")
    assert code == 3


def test_invariant_violation_exits_3(capsys, monkeypatch, cold_memos):
    monkeypatch.setattr(fusion, "_FOLD_LIMIT", 0)
    code, _ = run(capsys, "fuse", "A1", "--k", "2", "--mu", "1", "--nu", "1")
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


@pytest.mark.parametrize("argv", [("A1", "--k", "3"), ("D4", "--k", "1", "--suite", "conjugacy")])
def test_trivial_conjugacy_suite_warns_once(capsys, argv):
    """-w0 = id on A1 and D4: the conjugacy suite says its check is trivial,
    once, and still passes."""
    with pytest.warns(UserWarning, match="conjugacy check is trivial") as caught:
        assert run(capsys, "verify", *argv)[0] == 0
    assert len(caught) == 1


def test_verify_theta_and_csmodel(capsys):
    for suite in ("theta", "csmodel"):
        code, out = run(capsys, "verify", "A1", "--k", "2", "--suite", suite)
        assert code == 0
        assert all(json.loads(line)["passed"] for line in out.strip().splitlines())


def test_theta_heat_case_fails_when_the_fine_residual_is_zero(capsys, monkeypatch):
    """A zero fine-step residual leaves the convergence ratio undefined; the
    case must fail instead of passing unchecked."""
    from fusionkit import theta

    monkeypatch.setattr(theta, "check_heat_equation", lambda *a, **k: 0.0)
    code, out = run(capsys, "verify", "A1", "--k", "2", "--suite", "theta")
    assert code == 3
    records = {r["case_id"]: r for r in map(json.loads, out.strip().splitlines())}
    assert records["theta-heat-equation:A1:k=2"]["passed"] is False


def test_verify_identity_at_algebra_level(capsys):
    code, out = run(capsys, "verify", "A1", "--k", "inf", "--suite", "identity",
                    "--seed", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16  # labels 0..3 squared
    assert all(json.loads(line)["passed"] for line in lines)


def test_verify_failure_exits_3(capsys, monkeypatch):
    from fusionkit import fusion

    # the identity suite reads one fold row per mu from fusion when it runs
    monkeypatch.setattr(fusion, "fuse_level_k_rows",
                        lambda spec, mu, nus, k: [{(0,): 2} for _ in nus])
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


@pytest.mark.parametrize("argv", [
    ["weights", "A1", "--mu", "1"],
    ["fuse", "A1", "--k", "2", "--mu", "1", "--nu", "1"],
    ["verify", "A1", "--k", "2", "--suite", "lemma"],
], ids=lambda argv: argv[0])
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, argv):
    """A directory or a file in a missing directory as --output exits 2 with
    one error line, not a traceback."""
    for target in (tmp_path, tmp_path / "missing" / "out.txt"):
        code, out, err = run_with_stderr(capsys, *argv, "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write --output {target}: ")
        assert len(err.splitlines()) == 1


def test_infinite_level_rejected_before_the_first_case(capsys):
    """verify with the default --k inf --suite all stops at the lemma suite's
    level check before the identity suite runs any case."""
    code, out, err = run_with_stderr(capsys, "verify", "A2")
    assert code == 2 and out == ""
    assert err == "error: the lemma suite needs a finite level\n"


@pytest.mark.parametrize("algebra", ["G2", "B2"])
def test_verify_all_refuses_a_non_ade_algebra_before_any_case(capsys, algebra):
    """theta sums need a simply-laced algebra, and --suite all checks the
    series before its first case: a usage error with nothing written."""
    code, out, err = run_with_stderr(capsys, "verify", algebra, "--k", "2", "--suite", "all")
    assert code == 2 and out == ""
    assert err == f"error: theta sums are defined for the ADE series, not {algebra}\n"


@pytest.mark.parametrize("suite", ["theta", "all"])
def test_verify_refuses_the_theta_suite_at_level_zero(capsys, suite):
    """Theta_{gamma,0} is undefined: a verify run that includes the theta
    suite refuses --k 0 before its first case, with nothing written (it used
    to pass two theta cases summed at level 1)."""
    code, out, err = run_with_stderr(capsys, "verify", "A1", "--k", "0", "--suite", suite)
    assert code == 2 and out == ""
    assert err == "error: the theta suite needs a positive level\n"


def test_cap_error_keeps_the_lines_of_finished_cases(capsys):
    """Each report line is written as its case finishes: on A3 the csmodel
    suite stops at the Fourier cap (exit 1) after its first two cases,
    and the 27 lines of the cases before stay."""
    code, out, err = run_with_stderr(capsys, "verify", "A3", "--k", "1", "--suite", "all")
    assert code == 1 and err.startswith("resource cap exceeded: Fourier transform over 8000 states (cap 1024)")
    records = [json.loads(line) for line in out.splitlines()]
    suites = [record["case_id"].split(":")[0] for record in records]
    assert len(records) == 27 and all(record["passed"] for record in records)
    assert suites[:16] == ["numerator-identity"] * 16
    assert suites[-2:] == ["clock-commutator", "primary-orthonormality"]


def test_generic_identity_checks_the_dim_cap_before_the_first_case(capsys):
    """verify --k inf --suite identity builds V(mu) for every label in
    range(4)^rank; on B3, V(2, 3, 3) is above the default dim cap, so the run
    stops before its first case (before, after 3,008 lines and 25 s)."""
    code, out, err = run_with_stderr(capsys, "verify", "B3", "--k", "inf", "--suite", "identity")
    assert code == 1 and out == ""
    assert err == "resource cap exceeded: (2, 3, 3) needs dim = 133056, above the cap 100000\n"


def test_fuse_oracle_needs_a_finite_level_before_any_work(capsys):
    """fuse --oracle at k = inf is a usage error found before the tensor
    decomposition, which here (dim 252252) would pass the dim cap."""
    code, out, err = run_with_stderr(capsys, "fuse", "E6", "--k", "inf", "--mu", "1,1,0,0,0,1",
                                     "--nu", "1,0,0,0,1,1", "--oracle")
    assert code == 2 and out == ""
    assert err == "error: --oracle needs a finite level\n"


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


def test_theta_infinite_tau_exits_2(capsys):
    code = cli.main(["theta", "A2", "--k", "1", "--gamma", "1,0", "--tau", "inf+1i",
                     "--u", "0.05,0.02"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "tau must be finite" in captured.err


def test_theta_sum_at_level_zero_exits_2(capsys):
    """Theta_{gamma,0} is undefined: --k 0 is refused, not read as level 1.
    The finite-tau character at k = 0 sums at level k + h^v and runs."""
    code = cli.main(["theta", "A1", "--k", "0", "--gamma", "1", "--tau", "0+1i",
                     "--u", "0.05"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "theta level must be a positive integer" in captured.err
    assert run(capsys, "theta", "A1", "--k", "0", "--char", "--mu", "0",
               "--tau", "0+1i", "--u", "0.05")[0] == 0


def test_parse_tau_maps_only_a_trailing_i():
    assert cli._parse_tau("0+1i") == 1j
    assert cli._parse_tau("0.3+2i") == 0.3 + 2j
    assert cli._parse_tau("0.5 + 2j") == 0.5 + 2j
    assert cli._parse_tau("-infj") == complex(0, -math.inf)


@pytest.mark.parametrize("tau,u", [("nan+1i", "0.05,0.02"), ("0+1i", "nan,0.02"),
                                   ("0+1i", "inf,0.02"), ("0+1i", "0.05,-inf")])
def test_theta_non_finite_input_exits_2(capsys, tau, u):
    code = cli.main(["theta", "A2", "--k", "1", "--gamma", "1,0", f"--tau={tau}", f"--u={u}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "must be finite" in captured.err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1e-9"])
def test_bad_tolerance_exits_2(capsys, tolerance):
    code = cli.main(["verify", "A2", "--k", "2", "--suite", "bounds", f"--tolerance={tolerance}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "tolerance must be finite and nonnegative" in captured.err


def test_zero_tolerance_is_legal(capsys):
    code, out = run(capsys, "verify", "A2", "--k", "2", "--suite", "bounds",
                    "--tolerance", "0")
    assert code == 0
    assert [json.loads(line)["tolerance"] for line in out.splitlines()] == [0.0, 0.0]
