"""The netted variety scan: a case whose two sides net to the same residue
rows is settled without walking a point, and its report is the one the
two-sided scan gives.  The suites build their K^rank grid only for a case
that walks it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fusionkit import characters, cli, identity
from fusionkit.algebra import build_algebra
from fusionkit.characters import alternating_sums
from fusionkit.fusion import fuse_level_k, level_k_weights
from fusionkit.identity import _full_residue_gammas, check_identity, verify_numerator_identity

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
    """Counts the calls of characters._row_sums, the point walk."""
    calls = []
    walk = characters._row_sums

    def spy(*args):
        calls.append(len(args[2]))
        return walk(*args)

    monkeypatch.setattr(characters, "_row_sums", spy)
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
    gammas = _full_residue_gammas(spec, k)
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
def grid_builds(monkeypatch):
    """Counts the calls of identity._full_residue_gammas, the grid builder."""
    calls = []
    build = identity._full_residue_gammas

    def spy(spec, k):
        calls.append((str(spec), k))
        return build(spec, k)

    monkeypatch.setattr(identity, "_full_residue_gammas", spy)
    return calls


@pytest.mark.parametrize("suite,lines", [("identity", 16), ("lemma", 4)])
def test_passing_suite_builds_no_grid(capsys, grid_builds, suite, lines):
    code, records = run_suite(capsys, "verify", "A3", "--k", "1", "--suite", suite)
    assert code == 0 and len(records) == lines
    assert all(r["passed"] and r["points_checked"] == 125 for r in records)
    assert grid_builds == []


def test_failing_cases_build_the_grid_once(capsys, grid_builds, monkeypatch):
    """Positive control for the spy: with every table raised by one, every
    case walks the grid, and the grid is built for the first of them only."""
    from fusionkit import fusion

    true_table = fusion.fuse_level_k
    monkeypatch.setattr(fusion, "fuse_level_k", lambda *args: plus_one(true_table(*args), ()))
    code, records = run_suite(capsys, "verify", "A3", "--k", "1", "--suite", "identity")
    assert code == 3 and len(records) == 16
    assert not any(r["passed"] for r in records)
    assert all(r["points_checked"] == 125 and r["witnesses"] for r in records)
    assert grid_builds == [("A3", 1)]


def test_negative_control_still_fails_on_every_point():
    """The bench's plus-one A3 k1 case is walked and fails on the full scan."""
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "negative_control.py")],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["passed"] is False and record["points_checked"] == 125
