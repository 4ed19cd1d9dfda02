"""Fixtures shared by the test modules."""

import pytest

from fusionkit import algebra, fusion, phase, verlinde


def _clear_memos():
    for store in (algebra._signed_dominant, algebra._signed_orbit_cached, phase._orbit_rows,
                  verlinde._s_matrix, fusion._tensor_memo, fusion._fold_summand):
        store.cache_clear()
    algebra._walk_programs.clear()


@pytest.fixture
def cold_memos():
    """Every store that a reduction, walk or fold mutant can meet, emptied
    before and after the test: the reductions, the signed orbits and the walk
    programs they replay, the residue rows and S matrices read from them, and
    the tensor and fold memos of the fusion tables."""
    _clear_memos()
    yield
    _clear_memos()
