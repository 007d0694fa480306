"""Dynamic-batcher policy edge cases and admission control, run on the
engine's :class:`IndexQueue` over a :class:`RequestTable`."""

import pytest

from repro.errors import ReproError
from repro.serving.batcher import BatchPolicy
from repro.sim.engine import PENDING, RUNNING, SHED, IndexQueue, RequestTable
from repro.sim.engine.queue import EPS


def make_queue(policy=None):
    return IndexQueue("m", policy or BatchPolicy(), RequestTable())


def count(q, status):
    """Rows of ``q``'s table in ``status``."""
    return int((q.table.status[: len(q.table)] == status).sum())


def offer(q, t=0.0):
    """Append a request arriving at ``t`` and offer it; returns whether
    it was admitted (its row is ``len(q.table) - 1``)."""
    return q.offer(q.table.append(t, 0), t)


class TestBatchPolicy:
    def test_defaults_valid(self):
        policy = BatchPolicy()
        assert policy.max_batch_size >= 1
        assert policy.max_wait_s >= 0
        assert policy.max_queue_depth >= 1

    @pytest.mark.parametrize("kwargs", [
        {"max_batch_size": 0},
        {"max_batch_size": -3},
        {"max_wait_s": -0.001},
        {"max_queue_depth": 0},
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ReproError):
            BatchPolicy(**kwargs)


class TestEmptyQueue:
    def test_not_ready(self):
        q = make_queue()
        assert not q.ready(now=100.0)
        assert not q.due(now=100.0)

    def test_no_deadline(self):
        q = make_queue()
        assert q.wait_deadline_s() is None
        assert q.head_wait_s == q.head_key_s == float("inf")

    def test_drained_queue_heads_at_inf(self):
        q = make_queue(BatchPolicy(max_wait_s=0.25, deadline_s=0.5))
        offer(q, 1.0)
        assert q.head_wait_s == 1.0 + 0.25
        assert q.head_key_s == 1.0 + 0.5 + EPS
        q.take_batch(now=1.0)
        assert q.head_wait_s == q.head_key_s == float("inf")

    def test_take_batch_raises(self):
        q = make_queue()
        with pytest.raises(ReproError):
            q.take_batch(now=0.0)


class TestMaxWaitExpiry:
    def test_not_ready_before_deadline(self):
        q = make_queue(BatchPolicy(max_batch_size=4, max_wait_s=0.01))
        offer(q, t=1.0)
        assert not q.ready(now=1.0)
        assert not q.ready(now=1.0099)

    def test_ready_exactly_at_deadline(self):
        q = make_queue(BatchPolicy(max_batch_size=4, max_wait_s=0.01))
        offer(q, t=1.0)
        assert q.wait_deadline_s() == pytest.approx(1.01)
        assert q.ready(now=1.01)

    def test_deadline_follows_oldest(self):
        q = make_queue(BatchPolicy(max_batch_size=4, max_wait_s=0.01))
        offer(q, t=1.0)
        offer(q, t=1.005)
        # The *oldest* request's budget governs.
        assert q.wait_deadline_s() == pytest.approx(1.01)

    def test_zero_wait_dispatches_immediately(self):
        q = make_queue(BatchPolicy(max_batch_size=4, max_wait_s=0.0))
        offer(q, t=2.0)
        assert q.ready(now=2.0)


class TestBatchFormation:
    def test_full_batch_ready_regardless_of_wait(self):
        q = make_queue(BatchPolicy(max_batch_size=2, max_wait_s=10.0))
        offer(q)
        assert not q.ready(now=0.0)
        offer(q)
        assert q.ready(now=0.0)

    def test_batch_one_degenerate(self):
        # max_batch_size=1 is per-request dispatch: ready the instant
        # anything is queued, batches always size 1.
        q = make_queue(BatchPolicy(max_batch_size=1, max_wait_s=5.0))
        offer(q, t=3.0)
        assert q.ready(now=3.0)
        batch = q.take_batch(now=3.0)
        assert batch.tolist() == [0]
        assert q.table.batch_size[0] == 1

    def test_take_batch_caps_at_max_and_preserves_fifo(self):
        q = make_queue(BatchPolicy(max_batch_size=3))
        for i in range(5):
            offer(q, t=0.1 * i)
        batch = q.take_batch(now=1.0)
        assert batch.tolist() == [0, 1, 2]
        assert len(q) == 2
        table = q.table
        assert (table.status[batch] == RUNNING).all()
        assert (table.dispatch_s[batch] == 1.0).all()
        assert (table.batch_size[batch] == 3).all()

    def test_partial_batch_size_stamped(self):
        q = make_queue(BatchPolicy(max_batch_size=8))
        offer(q)
        offer(q)
        batch = q.take_batch(now=0.5)
        assert q.table.batch_size[batch].tolist() == [2, 2]


class TestAdmissionControl:
    def test_sheds_past_queue_depth(self):
        q = make_queue(BatchPolicy(max_queue_depth=2))
        assert offer(q)
        assert offer(q)
        assert not offer(q, t=0.5)
        assert q.table.status[2] == SHED
        assert q.table.finish_s[2] == 0.5     # shed at its arrival
        assert len(q.table) == 3
        assert count(q, SHED) == 1
        assert len(q) == 2

    def test_depth_frees_after_dispatch(self):
        q = make_queue(BatchPolicy(max_batch_size=2, max_queue_depth=2))
        offer(q)
        offer(q)
        q.take_batch(now=0.0)
        assert offer(q)
        assert count(q, SHED) == 0

    def test_counters_conserve(self):
        q = make_queue(BatchPolicy(max_queue_depth=3))
        admitted = sum(offer(q) for _ in range(10))
        assert len(q.table) == 10
        assert admitted == count(q, PENDING) == len(q)
        assert admitted + count(q, SHED) == len(q.table)