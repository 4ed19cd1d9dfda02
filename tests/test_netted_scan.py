"""The netted variety scan: a case whose two sides net to the same residue
rows is settled without walking a point, and its report is the one the
two-sided scan gives.  The suites' K^rank grid is generated for each case
that walks it and never stored, and points enter the scan one way."""

import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from fusionkit import cli, identity, phase
from fusionkit.algebra import build_algebra
from fusionkit.fusion import fuse_level_k, level_k_weights
from fusionkit.identity import _ResidueGrid, check_identity, verify_numerator_identity
from fusionkit.phase import alternating_sums

ROOT = Path(__file__).resolve().parent.parent

SCAN_CASES = [("A", 1, 4), ("A", 2, 3), ("B", 2, 1), ("G", 2, 2), ("A", 3, 1), ("C", 3, 1)]


def plus_one(table, weights):
    return {w: n + 1 for w, n in table.items()}


def one_unit_move(table, weights):
    """One unit moved from the first channel to the first other level-k weight."""
    source = min(table)
    target = next(w for w in weights if w != source)
    moved = dict(table)
    moved[source] -= 1
    moved[target] = moved.get(target, 0) + 1
    return {w: n for w, n in moved.items() if n}


TABLES = {"true": None, "plus-one": plus_one, "one-unit-move": one_unit_move}


@pytest.fixture
def row_sums_calls(monkeypatch):
    """Counts the calls of phase._row_sums, the point walk."""
    calls = []
    walk = phase._row_sums

    def spy(*args):
        calls.append(len(args[2]))
        return walk(*args)

    monkeypatch.setattr(phase, "_row_sums", spy)
    return calls


#: wrong tables per (algebra, table) whose rows do not net: the scan fails
#: exactly these.  The rows key a weight by its class mod K.Q, as the scan's
#: points do; on B, C and G that is coarser than its class mod K.Q^v, which
#: Kac-Walton folding respects, so there some wrong tables net to zero, and
#: the scan passes the same ones.
WALKED = {
    ("B2", "plus-one"): 4, ("B2", "one-unit-move"): 9,
    ("G2", "plus-one"): 9, ("G2", "one-unit-move"): 14,
    ("C3", "plus-one"): 0, ("C3", "one-unit-move"): 0,
}


@pytest.mark.parametrize("series,rank,k", SCAN_CASES)
@pytest.mark.parametrize("kind", list(TABLES))
def test_netted_report_equals_two_sided_scan(series, rank, k, kind, row_sums_calls):
    """Every ordered pair: the same report as check_identity with the
    alternating_sums kernel, and the point walk runs once per side exactly
    when the rows do not net, never for a true table and for every wrong
    table on A."""
    spec = build_algebra(series, rank)
    level_shifted = k + spec.dual_coxeter
    gammas = tuple(_ResidueGrid(spec, k))
    weights = level_k_weights(spec, k)
    walked = 0
    for mu in weights:
        for nu in weights:
            table = fuse_level_k(spec, mu, nu, k)
            if TABLES[kind] is not None:
                table = TABLES[kind](table, weights)
            row_sums_calls.clear()
            netted = verify_numerator_identity(spec, mu, nu, k, gammas, coefficients=table)
            assert row_sums_calls == ([len(gammas)] * 2 if not netted.passed else [])
            walked += bool(row_sums_calls)
            scanned = check_identity(
                netted.case_id, spec, mu, nu, table, gammas,
                lambda terms, points: alternating_sums(spec, terms, points, level_shifted),
                1e-9)
            assert netted.to_dict() == scanned.to_dict()
            assert netted.points_checked == len(gammas)
    pairs = len(weights) ** 2
    expected = 0 if kind == "true" else WALKED.get((f"{series}{rank}", kind), pairs)
    assert walked == expected


def run_suite(capsys, *argv):
    code = cli.main(list(argv))
    return code, [json.loads(line) for line in capsys.readouterr().out.splitlines()]


@pytest.fixture
def grid_walks(monkeypatch):
    """Counts the walks of identity._ResidueGrid, the calls of its __iter__."""
    calls = []
    walk = identity._ResidueGrid.__iter__

    def spy(grid):
        calls.append((str(grid.spec), grid.k))
        return walk(grid)

    monkeypatch.setattr(identity._ResidueGrid, "__iter__", spy)
    return calls


@pytest.mark.parametrize("suite,lines", [("identity", 16), ("lemma", 4)])
def test_passing_suite_builds_no_grid(capsys, grid_walks, suite, lines):
    code, records = run_suite(capsys, "verify", "A3", "--k", "1", "--suite", suite)
    assert code == 0 and len(records) == lines
    assert all(r["passed"] and r["points_checked"] == 125 for r in records)
    assert grid_walks == []


def test_failing_cases_walk_the_grid(capsys, grid_walks, monkeypatch):
    """Positive control for the spy: with every table raised by one, every
    case walks the grid, three times in step (the point labels and each
    side), and nothing of it is kept between cases."""
    from fusionkit import fusion

    true_rows = fusion.fuse_level_k_rows
    monkeypatch.setattr(fusion, "fuse_level_k_rows",
                        lambda *args: [plus_one(table, ()) for table in true_rows(*args)])
    code, records = run_suite(capsys, "verify", "A3", "--k", "1", "--suite", "identity")
    assert code == 3 and len(records) == 16
    assert not any(r["passed"] for r in records)
    assert all(r["points_checked"] == 125 and r["witnesses"] for r in records)
    assert grid_walks == [("A3", 1)] * (3 * 16)


def test_identity_suite_folds_one_row_per_mu(capsys, monkeypatch):
    """At finite k the identity suite reads one fold row per mu, in weight
    order, and checks each pair against its table in that row: no pair is
    folded on its own."""
    from fusionkit import fusion

    rows, pairs = [], []
    true_rows, true_pair = fusion.fuse_level_k_rows, fusion.fuse_level_k
    monkeypatch.setattr(fusion, "fuse_level_k_rows",
                        lambda spec, mu, nus, k: rows.append(mu) or true_rows(spec, mu, nus, k))
    monkeypatch.setattr(fusion, "fuse_level_k",
                        lambda *args: pairs.append(args) or true_pair(*args))
    code, records = run_suite(capsys, "verify", "G2", "--k", "2", "--suite", "identity")
    weights = level_k_weights(build_algebra("G", 2), 2)
    assert code == 0 and len(records) == len(weights) ** 2
    assert rows == weights and pairs == []


@pytest.mark.parametrize("series,rank,k", [("A", 1, 4), ("A", 2, 3), ("G", 2, 2), ("A", 3, 1)])
def test_residue_grid_is_generated_on_every_walk(series, rank, k):
    """len is the number of points walked, every walk gives the same points
    (gamma mod 2K on A1, gamma mod K elsewhere), and the grid holds no
    point: its slots are its algebra and level."""
    spec = build_algebra(series, rank)
    grid = _ResidueGrid(spec, k)
    first, second = tuple(grid), tuple(grid)
    side = (k + spec.dual_coxeter) * (2 if rank == 1 else 1)
    assert first == second == tuple(product(range(side), repeat=rank))
    assert len(grid) == len(first) == side ** rank
    assert type(grid).__slots__ == ("spec", "k") and not hasattr(grid, "__dict__")


A3_CASE = (build_algebra("A", 3), (1, 0, 0), (0, 0, 1), 1)


def case_table(kind, spec, mu, nu, k):
    table = fuse_level_k(spec, mu, nu, k)
    return table if kind == "true" else plus_one(table, ())


@pytest.mark.parametrize("kind", ["true", "plus-one"])
def test_points_enter_as_list_tuple_generator_or_grid(kind):
    """The same points give the same report however they are passed; a
    one-shot generator is copied once, before the walk."""
    spec, mu, nu, k = A3_CASE
    table = case_table(kind, spec, mu, nu, k)
    points = list(_ResidueGrid(spec, k))
    reports = [verify_numerator_identity(spec, mu, nu, k, given, coefficients=table).to_dict()
               for given in (points, tuple(points), (p for p in points), _ResidueGrid(spec, k))]
    assert reports[0]["passed"] == (kind == "true")
    assert reports[0]["points_checked"] == 125
    assert all(report == reports[0] for report in reports)


@pytest.mark.parametrize("kind", ["true", "plus-one"])
def test_points_of_the_wrong_length_raise(kind):
    """Outside points are length-checked before the rows are compared, so a
    case whose rows net (the true table) refuses them too."""
    spec, mu, nu, k = A3_CASE
    table = case_table(kind, spec, mu, nu, k)
    for points in ([(0, 0)], [(0, 0, 0, 0)], [(0, 0, 0), (1, 2)]):
        with pytest.raises(ValueError):
            verify_numerator_identity(spec, mu, nu, k, points, coefficients=table)


@pytest.mark.parametrize("kind", ["true", "plus-one"])
@pytest.mark.parametrize("other", [("A", 2, 1), ("A", 3, 2), ("B", 3, 1)],
                         ids=["A2-k1", "A3-k2", "B3-k1"])
def test_grid_of_another_algebra_or_level_raises(kind, other):
    """A3 k = 1 on the grid of another algebra or level: a shorter grid
    (A2), a larger one (k = 2) and one of the same size and K (B3 k = 1).
    The true table nets and the plus-one table walks; both refuse the
    grid, and both give their verdict on their own grid."""
    spec, mu, nu, k = A3_CASE
    table = case_table(kind, spec, mu, nu, k)
    grid = _ResidueGrid(build_algebra(*other[:2]), other[2])
    with pytest.raises(ValueError):
        verify_numerator_identity(spec, mu, nu, k, grid, coefficients=table)
    report = verify_numerator_identity(spec, mu, nu, k, _ResidueGrid(spec, k),
                                       coefficients=table)
    assert report.passed == (kind == "true") and report.points_checked == 125


def test_negative_control_still_fails_on_every_point():
    """The bench's plus-one A3 k1 case is walked and fails on the full scan."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "negative_control.py")],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["passed"] is False and record["points_checked"] == 125
