"""ArrivalSchedule merges streams exactly as a stable argsort does.

The schedule skips the argsort when the concatenated epoch is already
non-decreasing, where a stable argsort is the identity.  These tests
hold its ``times`` and ``owners`` to the argsort reference on epochs on
both sides of that check.
"""

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine.arrivals import ArrivalSchedule
from repro.workloads.arrivals import (
    ArrivalProcess,
    PoissonArrivals,
    UniformArrivals,
)


class ListedArrivals(ArrivalProcess):
    """Arrivals at prescribed instants, in the order given."""

    def __init__(self, times: List[float]) -> None:
        self.times = list(times)

    def initial_arrivals(self) -> List[float]:
        return list(self.times)


def reference(streams):
    """Concatenate, then one stable argsort: the merge at every size."""
    chunks = [np.asarray(s, dtype=np.float64) for s in streams]
    owners = [np.full(len(c), k, dtype=np.int32) for k, c in enumerate(chunks)]
    times = np.concatenate(chunks) if chunks else np.empty(0)
    owner = np.concatenate(owners) if owners else np.empty(0, np.int32)
    order = np.argsort(times, kind="stable")
    return times[order], owner[order]


def assert_matches_reference(streams):
    schedule = ArrivalSchedule(streams)
    times, owners = reference(streams)
    assert schedule.times.dtype == times.dtype
    assert schedule.owners.dtype == owners.dtype
    assert schedule.times.tobytes() == times.tobytes()
    assert schedule.owners.tobytes() == owners.tobytes()
    assert len(schedule) == len(times)


CASES = {
    "none": [],
    "one-poisson": [PoissonArrivals(500.0, 2.0, seed=4).as_arrays()],
    "one-unsorted": [
        ListedArrivals([0.3, 0.1, 0.2, 0.1, 0.0]).as_arrays(),
    ],
    "two-same-instants": [
        UniformArrivals(4.0, 1.0).as_arrays(),
        UniformArrivals(4.0, 1.0).as_arrays(),
    ],
    "two-in-order": [np.array([0.0, 0.5, 1.0]), np.array([1.0, 1.5])],
    "three-with-empty": [
        PoissonArrivals(300.0, 1.0, seed=1).as_arrays(),
        np.empty(0),
        UniformArrivals(100.0, 1.0).as_arrays(),
    ],
    "three-poisson": [
        PoissonArrivals(rate, 1.0, seed=seed).as_arrays()
        for rate, seed in [(200.0, 7), (50.0, 8), (10.0, 9)]
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_stable_argsort(name):
    assert_matches_reference(CASES[name])


def test_unsorted_single_stream_is_sorted():
    schedule = ArrivalSchedule(CASES["one-unsorted"])
    assert schedule.times.tolist() == [0.0, 0.1, 0.1, 0.2, 0.3]


# Instants on a coarse grid, so streams tie with each other and within
# themselves; each stream is sorted, as ``as_arrays`` returns it.
@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.lists(st.integers(min_value=0, max_value=20), max_size=30),
    min_size=1, max_size=3,
))
def test_sorted_streams_match_reference(grids):
    assert_matches_reference(
        [np.sort(np.asarray(g, dtype=np.float64)) * 0.25 for g in grids]
    )
