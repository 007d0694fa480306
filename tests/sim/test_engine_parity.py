"""Golden parity gate for the vectorized event engine.

The refactor that moved both simulators onto ``repro.sim.engine`` is
pinned by pre-refactor goldens: every scenario's report digest (and
timeline-artifact digest, where recording is on) must stay bit-identical
to the legacy per-request loops that generated
``tests/golden/engine_parity.json``.  Regenerate — only for a
deliberate, reviewed semantic change — with::

    PYTHONPATH=src:tests python tests/golden/generate_engine_goldens.py

Further goldens pin what the report digest does not cover: the
serving kernel trace (its Chrome-trace export and batch count) and the
injected fault timeline.

Alongside the goldens, property tests pin the engine's core invariant:
the event heap never pops out of virtual-time order, and same-instant
events keep (kind, push-order) priority.
"""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.obs.export import chrome_trace
from repro.sim.engine import EventHeap

from .engine_scenarios import BUILDERS, SCENARIOS, run_hermetic

GOLDEN = Path(__file__).parent.parent / "golden" / "engine_parity.json"


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_scenario(goldens):
    assert sorted(goldens) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_engine_parity(name, goldens):
    report_digest, timeline_digest = SCENARIOS[name]()
    pinned = goldens[name]
    assert report_digest == pinned["report_digest"], (
        f"{name}: report digest drifted from the pre-refactor golden"
    )
    assert timeline_digest == pinned["timeline_digest"], (
        f"{name}: timeline digest drifted from the pre-refactor golden"
    )


# -- what the report digest does not cover -------------------------------

#: scenario -> (sha256 of the kernel trace's Chrome export, batch count)
KERNEL_TRACE_GOLDENS = {
    "serving_multitenant": (
        "4d9eab18410ac464aec3b031fbf3c3c9fd1f826772d38b02a88c29341143a00d",
        152,
    ),
    "serving_faults": (
        "cd12767c2a42212576f32e37401a0e04dfbd715a767a81eee4d8f2954edddf03",
        105,
    ),
}

#: scenario -> FaultInjector.timeline_digest() (the report digest
#: covers only the number of fault events)
FAULT_TIMELINE_GOLDENS = {
    "serving_faults": (
        "b44f7497f4f2392c41505beecb875a0a5ad28018e6afec3f7daa4726a22581a8"
    ),
    "serving_faults_naive": (
        "b425bb0db3d1cfcce053c795f2447bc427bae43924dc9206bdfaae80dee3dc16"
    ),
}


@pytest.mark.parametrize("name", sorted(KERNEL_TRACE_GOLDENS))
def test_serving_kernel_trace_golden(name):
    sim, report = run_hermetic(BUILDERS[name])
    chrome, batches = KERNEL_TRACE_GOLDENS[name]
    exported = chrome_trace(sim.trace).encode()
    assert hashlib.sha256(exported).hexdigest() == chrome
    # One device slice per dispatched batch.
    assert len(sim.trace.events_for("device")) == batches
    assert batches == report.extra["batch_count"]
    # The report's device busy time is the trace's, bit for bit.
    assert report.extra["device_busy_s"] == sim.trace.busy_time("device")


@pytest.mark.parametrize("name", sorted(FAULT_TIMELINE_GOLDENS))
def test_fault_timeline_golden(name):
    sim, _ = run_hermetic(BUILDERS[name])
    assert sim.injector.timeline_digest() == FAULT_TIMELINE_GOLDENS[name]


# -- event-heap ordering properties ----------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(
                min_value=0.0,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            st.integers(min_value=0, max_value=2),
        ),
        max_size=64,
    )
)
def test_heap_pops_in_virtual_time_order(events):
    """Pops come out sorted by (time, kind, push order) — never a step
    back in virtual time, no matter the push order."""
    heap = EventHeap()
    for i, (t, kind) in enumerate(events):
        heap.push(t, kind, payload=i)
    popped = [heap.pop() for _ in range(len(events))]
    assert not heap
    times = [p[0] for p in popped]
    assert times == sorted(times)
    # Full priority: (time, kind, seq) strictly increases.
    triples = [(t, kind, seq) for t, kind, seq, _ in popped]
    assert triples == sorted(triples)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(
            min_value=0.0,
            max_value=100.0,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=1,
        max_size=32,
    ),
    st.data(),
)
def test_heap_interleaved_pushes_stay_monotone(times, data):
    """Pushing at-or-after the current virtual instant (what the
    simulators do) keeps pops monotone even when pushes interleave."""
    heap = EventHeap()
    heap.push(times[0], 0)
    now = 0.0
    remaining = times[1:]
    while heap:
        t, _, _, _ = heap.pop()
        assert t >= now
        now = t
        # Simulators only schedule completions/timers at >= now.
        for _ in range(min(len(remaining), data.draw(st.integers(0, 2)))):
            dt = remaining.pop()
            heap.push(now + dt, 1)


def test_heap_flags_out_of_order_pop():
    """The always-on monotonicity guard trips if someone schedules an
    event in the popped past."""
    heap = EventHeap()
    heap.push(5.0, 0)
    heap.pop()
    heap.push(1.0, 0)
    with pytest.raises(ReproError):
        heap.pop()


def test_heap_peek_matches_pop():
    heap = EventHeap()
    heap.push(2.0, 1, payload="b")
    heap.push(2.0, 0, payload="a")
    assert heap.peek_time() == 2.0
    assert heap.peek_kind() == 0
    assert heap.pop()[3] == "a"  # kind breaks the same-instant tie
    assert heap.pop()[3] == "b"
    assert heap.peek_time() == float("inf")
