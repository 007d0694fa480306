"""Property-based tests: backoff schedule law and batcher deadline math.

The backoff laws (monotone, jitter-bounded, capped) and the EPS
boundary behaviour of queue expiry are exactly the invariants the
serving loop's fault driver depends on — a violated cap would stretch
virtual timelines unboundedly, a wrong EPS comparison would abandon
requests that are still viable at their exact deadline.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import RetryPolicy
from repro.serving.batcher import BatchPolicy
from repro.sim.engine import PENDING, IndexQueue, RequestTable
from repro.sim.engine.queue import EPS

policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(min_value=1, max_value=8),
    base_delay_s=st.floats(min_value=0.0, max_value=0.1,
                           allow_nan=False),
    multiplier=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
    max_delay_s=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    jitter=st.floats(min_value=0.0, max_value=0.99, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


class TestBackoffProperties:
    @given(policy=policies, attempt=st.integers(0, 16))
    def test_nominal_is_monotone_nondecreasing(self, policy, attempt):
        assert policy.nominal_delay(attempt + 1) >= policy.nominal_delay(
            attempt
        )

    @given(policy=policies, attempt=st.integers(0, 16),
           token=st.text(max_size=8))
    def test_jitter_is_bounded(self, policy, attempt, token):
        nominal = policy.nominal_delay(attempt)
        delay = policy.delay(attempt, token=token)
        lo = nominal * (1.0 - policy.jitter)
        hi = nominal * (1.0 + policy.jitter)
        assert lo - 1e-12 <= delay <= hi + 1e-12

    @given(policy=policies, attempt=st.integers(0, 64),
           token=st.text(max_size=8))
    def test_cap_is_a_true_upper_bound(self, policy, attempt, token):
        assert policy.delay(attempt, token=token) <= policy.max_delay_s
        assert policy.nominal_delay(attempt) <= policy.max_delay_s

    @given(policy=policies, attempt=st.integers(0, 16),
           token=st.text(max_size=8))
    def test_delay_is_deterministic(self, policy, attempt, token):
        assert policy.delay(attempt, token=token) == policy.delay(
            attempt, token=token
        )

    @given(policy=policies, token=st.text(max_size=8))
    def test_schedule_shape(self, policy, token):
        schedule = policy.schedule(token=token)
        assert len(schedule) == policy.max_attempts - 1
        assert all(d >= 0.0 for d in schedule)


def _queue_with(policy, arrivals):
    queue = IndexQueue("t", policy, RequestTable())
    for arrival in arrivals:
        queue.offer(queue.table.append(arrival, 0), arrival)
    return queue


def _deadline_queue(deadline_s, arrivals):
    return _queue_with(
        BatchPolicy(deadline_s=deadline_s, max_queue_depth=4096), arrivals
    )


arrival_lists = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1, max_size=32,
).map(sorted)

budgets = st.floats(min_value=1e-6, max_value=10.0, allow_nan=False)
nows = st.floats(min_value=0.0, max_value=200.0, allow_nan=False)


class TestDeadlineMathProperties:
    @given(arrivals=arrival_lists, budget=budgets, now=nows)
    @settings(max_examples=200)
    def test_expire_splits_exactly_at_deadline_plus_eps(
        self, arrivals, budget, now
    ):
        queue = _deadline_queue(budget, arrivals)
        expired = queue.expire(now)
        # Exactly the requests with deadline + EPS < now are gone...
        assert expired == sum(
            1 for a in arrivals if now > a + budget + EPS
        )
        # ...and every survivor is still viable.
        table = queue.table
        survivors = np.flatnonzero(table.status[:len(table)] == PENDING)
        assert len(survivors) == len(queue)
        assert not (now > table.deadline_s[survivors] + EPS).any()

    @given(arrivals=arrival_lists, budget=budgets)
    def test_request_viable_at_exact_deadline(self, arrivals, budget):
        queue = _deadline_queue(budget, arrivals)
        deadline = arrivals[0] + budget
        assert queue.expire(deadline) == 0
        assert queue.expire(deadline + EPS) == 0

    @given(arrivals=arrival_lists, budget=budgets, now=nows)
    def test_expiry_conserves_requests(self, arrivals, budget, now):
        queue = _deadline_queue(budget, arrivals)
        expired = queue.expire(now)
        assert expired + len(queue) == len(arrivals)
        assert queue.timed_out == expired

    @given(arrivals=arrival_lists, budget=budgets, now=nows)
    def test_expiry_is_idempotent(self, arrivals, budget, now):
        queue = _deadline_queue(budget, arrivals)
        queue.expire(now)
        assert queue.expire(now) == 0

    @given(arrivals=arrival_lists, wait=st.floats(
        min_value=0.0, max_value=1.0, allow_nan=False
    ))
    def test_ready_at_exact_wait_deadline(self, arrivals, wait):
        queue = _queue_with(
            BatchPolicy(max_wait_s=wait, max_queue_depth=4096,
                        max_batch_size=4096),
            arrivals,
        )
        # The timer fires at exactly the wait deadline; EPS guarantees
        # readiness despite float round-off.
        assert queue.ready(queue.wait_deadline_s())
