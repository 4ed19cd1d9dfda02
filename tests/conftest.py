"""Fixtures shared by the test modules."""

import pytest

from fusionkit import algebra, fusion, phase, verlinde


def _clear_memos():
    for store in (algebra._signed_dominant, phase._orbit_rows, verlinde._s_matrix,
                  fusion._tensor_memo, fusion._fold_summand):
        store.cache_clear()
    algebra._walk_programs.clear()


@pytest.fixture
def cold_memos():
    """Every store that a reduction, walk or fold mutant can meet, emptied
    before and after the test: the reductions, the walk programs that every
    orbit replays, the residue rows and S matrices read from the orbits, and
    the tensor and fold memos of the fusion tables."""
    _clear_memos()
    yield
    _clear_memos()
