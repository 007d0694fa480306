"""Dynamic-batcher policy edge cases and admission control, run on the
engine's :class:`IndexQueue` over a :class:`RequestTable`."""

import pytest

from repro.errors import ReproError
from repro.serving.batcher import BatchPolicy
from repro.sim.engine import RUNNING, SHED, IndexQueue, RequestTable


def make_queue(policy=None):
    return IndexQueue("m", policy or BatchPolicy(), RequestTable())


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

    def test_no_deadline(self):
        q = make_queue()
        assert q.wait_deadline_s() is None
        assert q.oldest_arrival_s is None

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
        assert not offer(q)
        assert q.table.status[2] == SHED
        assert q.offered == 3
        assert q.shed == 1
        assert len(q) == 2

    def test_depth_frees_after_dispatch(self):
        q = make_queue(BatchPolicy(max_batch_size=2, max_queue_depth=2))
        offer(q)
        offer(q)
        q.take_batch(now=0.0)
        assert offer(q)
        assert q.shed == 0

    def test_counters_conserve(self):
        q = make_queue(BatchPolicy(max_queue_depth=3))
        admitted = sum(offer(q) for _ in range(10))
        assert q.offered == 10
        assert admitted + q.shed == q.offered