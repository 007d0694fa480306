"""Property test: the queue's cached head state answers as the table does.

:class:`IndexQueue` keeps its head's wait deadline and expiry key as
floats and refreshes them only where the head moves: admission into an
empty queue, ``expire`` and ``take_batch``.  This test drives one queue
through random admissions, rejections, expiries and batches at
non-decreasing instants, and after every step recomputes each answer
from the request table alone: the pending rows are the ``PENDING`` rows
in row order, the wait deadline is the oldest arrival + ``max_wait_s``,
and the expiry count is a ``searchsorted`` over ``deadline + EPS``;
``due`` is an expiry or a ready batch.  A method that moved the head
without refreshing the cache would fail it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.batcher import BatchPolicy
from repro.sim.engine import PENDING, SHED, IndexQueue, RequestTable
from repro.sim.engine.queue import EPS

#: gaps between consecutive instants, with exact ties and EPS-scale steps
gaps = st.one_of(
    st.sampled_from((0.0, EPS / 2, EPS, 2 * EPS, 1e-4, 1e-3, 2e-3)),
    st.floats(min_value=0.0, max_value=5e-3, allow_nan=False),
)

steps = st.lists(
    st.tuples(
        st.sampled_from(
            ("offer", "bulk", "span", "reject", "expire", "take")
        ),
        gaps,
        st.lists(gaps, min_size=1, max_size=5),
    ),
    min_size=1,
    max_size=40,
)

queue_policies = st.builds(
    BatchPolicy,
    max_batch_size=st.integers(min_value=1, max_value=4),
    max_wait_s=st.sampled_from((0.0, EPS, 1e-3, 2e-3)),
    max_queue_depth=st.integers(min_value=1, max_value=6),
    deadline_s=st.one_of(st.none(), st.sampled_from((EPS, 1e-3, 3e-3))),
)


def _pending(queue):
    table = queue.table
    return np.flatnonzero(table.status[: len(table)] == PENDING)


def _wait_deadline(queue):
    """Oldest pending arrival + max_wait_s (None when nothing waits)."""
    rows = _pending(queue)
    if not len(rows):
        return None
    return float(queue.table.arrival_s[rows[0]]) + queue.policy.max_wait_s


def _ready(queue, now):
    n = len(_pending(queue))
    if n == 0:
        return False
    if n >= queue.policy.max_batch_size:
        return True
    return now + EPS >= _wait_deadline(queue)


def _expiring(queue, now):
    """How many pending rows ``expire(now)`` must abandon."""
    rows = _pending(queue)
    if queue.policy.deadline_s is None or not len(rows):
        return 0
    keys = queue.table.deadline_s[rows] + EPS
    return int(np.searchsorted(keys, now, side="left"))


def _check(queue, now):
    assert len(queue) == len(_pending(queue))
    assert queue.wait_deadline_s() == _wait_deadline(queue)
    assert queue.ready(now) == _ready(queue, now)
    assert queue.due(now) == (
        _expiring(queue, now) > 0 or _ready(queue, now)
    )


def _admit_many(queue, kind, arrivals):
    """Append one row per arrival and admit the ones that fit, through
    ``admit_bulk`` or ``admit_span``; the rest are shed."""
    table = queue.table
    arrivals = np.asarray(arrivals, dtype=np.float64)
    start = table.append_bulk(arrivals, 0)
    room = queue.policy.max_queue_depth - len(queue)
    n = min(len(arrivals), max(room, 0))
    # Rows past the cap are not pending: the simulator sheds them.
    table.status[start + n:start + len(arrivals)] = SHED
    if n == 0:
        return
    if kind == "bulk":
        queue.admit_bulk(
            np.arange(start, start + n, dtype=np.int64), arrivals[:n]
        )
    else:
        queue.admit_span(start, n, arrivals[:n])


@settings(max_examples=300, deadline=None)
@given(policy=queue_policies, plan=steps)
def test_cached_head_state_matches_the_table(policy, plan):
    queue = IndexQueue("t", policy, RequestTable())
    table = queue.table
    now = 0.0
    for kind, gap, burst in plan:
        now += gap
        if kind == "offer":
            queue.offer(table.append(now, 0), now)
        elif kind == "reject":
            queue.reject(table.append(now, 0), now)
        elif kind in ("bulk", "span"):
            arrivals = now + np.cumsum(burst)
            _admit_many(queue, kind, arrivals)
            now = float(arrivals[-1])
        elif kind == "take":
            if len(queue):
                queue.take_batch(now)
        _check(queue, now)
        # The simulator expires every queue before it picks one.
        want = _expiring(queue, now)
        assert queue.expire(now) == want
        _check(queue, now)
