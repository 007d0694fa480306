"""REPRO240 — exhaustive model check of the tuning lease protocol.

The fleet's fault story rests on :class:`repro.tuning.queue.JobQueue`
behaving as a lease protocol: claim -> renew-by-completion | failure |
silent death, with bounded retries and deterministic backoff.  Unit
tests exercise chosen paths; this pass explores **every** two-worker
interleaving over a small scope (two jobs, three attempts) against the
*real* queue class and proves, in each reachable state:

* **no double grant** — a claim never returns a job that was already
  leased, and a job is never leased to two workers at once;
* **no lost job** — every quiescent state (no action enabled) has all
  jobs ``done`` or ``poisoned``; nothing is stranded;
* **retry-count monotonicity** — ``attempts`` never decreases, and a
  failure/expiry bumps it by exactly one;
* **terminal immutability** — ``done``/``poisoned`` jobs never change;
* **completion postcondition** — ``complete`` yields ``done`` with the
  worker's sha recorded and attempts unchanged.

Finite state space: a zero-delay, zero-jitter
:class:`~repro.faults.resilience.RetryPolicy` collapses the backoff
clock, and states are canonicalized to ``(state, attempts, worker)``
per job, so lease deadlines and ``not_before`` gates don't blow up the
frontier.  Each transition rebuilds a fresh queue from the canonical
state and drives one public method — the model checks the shipped
transition code, not a re-implementation of it.

For tests, ``REPRO_ANALYSIS_QUEUE_CLASS=module:Class`` swaps in a
(deliberately buggy) queue implementation; the checker then reports a
REPRO240 finding with a counterexample trace.
"""

from __future__ import annotations

import importlib
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Type

from .findings import Finding

RULE_ID = "REPRO240"

#: Environment seam: "module.path:ClassName" of an alternative queue.
QUEUE_CLASS_ENV = "REPRO_ANALYSIS_QUEUE_CLASS"

#: Small-scope parameters (two of everything, three strikes).
WORKERS = ("w1", "w2")
JOB_IDS_PRIORITY = ((0, "a"), (1, "b"))
MAX_ATTEMPTS = 3
LEASE_TIMEOUT_S = 10.0

#: Canonical per-job state: (state, attempts, worker-or-"").
JobState = Tuple[str, int, str]
#: Canonical queue state: one JobState per job, in job-id order.
State = Tuple[JobState, ...]


@dataclass
class Violation:
    """One invariant breach with its counterexample."""

    invariant: str
    detail: str
    trace: Tuple[str, ...]

    def render(self, limit: int = 12) -> str:
        steps = self.trace[-limit:]
        prefix = "... -> " if len(self.trace) > limit else ""
        return (
            f"{self.invariant}: {self.detail} "
            f"[trace: {prefix}{' -> '.join(steps) if steps else '<initial>'}]"
        )


@dataclass
class ModelCheckResult:
    """Outcome of the exhaustive exploration."""

    states: int = 0
    transitions: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _queue_class() -> Tuple[Type, str]:
    """The queue class under check and its display path."""
    spec = os.environ.get(QUEUE_CLASS_ENV, "")
    if spec:
        module_name, _, cls_name = spec.partition(":")
        module = importlib.import_module(module_name)
        cls = getattr(module, cls_name)
        return cls, getattr(module, "__file__", module_name) or module_name
    from ..tuning.queue import JobQueue

    return JobQueue, "src/repro/tuning/queue.py"


def _model_keys() -> Dict[str, Tuple[int, Any]]:
    """job id -> (priority, PlanKey) for the small-scope jobs, in
    sorted-id order (the canonical state layout)."""
    from ..core.plan_cache import PlanKey

    keys: Dict[str, Tuple[int, Any]] = {}
    for priority, slug in JOB_IDS_PRIORITY:
        key = PlanKey(
            network=f"net-{slug}",
            device="edge",
            batch_size=1,
            precision="fp32",
            use_memory_management=True,
            use_hybrid_execution=True,
            use_inter_kernel=False,
            use_intra_kernel=False,
            objective="latency",
        )
        keys[key.slug()] = (priority, key)
    return dict(sorted(keys.items()))


def _build_queue(cls: Type, state: State) -> Any:
    """A fresh queue materializing a canonical state.

    Zero-delay retry policy: ``not_before`` gates collapse to 0, so
    pending jobs are always claimable and the state space is finite.
    """
    from ..faults.resilience import RetryPolicy
    from ..tuning.queue import LEASED, TuneJob

    queue = cls(
        retry_policy=RetryPolicy(
            max_attempts=MAX_ATTEMPTS,
            base_delay_s=0.0,
            multiplier=1.0,
            max_delay_s=0.0,
            jitter=0.0,
        ),
        lease_timeout_s=LEASE_TIMEOUT_S,
    )
    for (job_id, (priority, key)), (job_state, attempts, worker) in zip(
        _model_keys().items(), state
    ):
        job = TuneJob(
            key=key,
            priority=priority,
            attempts=attempts,
            state=job_state,
            not_before_s=0.0,
            lease_deadline_s=LEASE_TIMEOUT_S if job_state == LEASED else 0.0,
            worker=worker,
            failures=tuple("x" for _ in range(attempts)),
        )
        queue._jobs[job_id] = job
    return queue


def _snapshot(queue: Any, order: List[str]) -> State:
    from ..tuning.queue import LEASED

    return tuple(
        (job.state, job.attempts, job.worker if job.state == LEASED else "")
        for job in (queue._jobs[job_id] for job_id in order)
    )


class LeaseModelChecker:
    """Breadth-first exploration of the two-worker lease protocol."""

    def __init__(self) -> None:
        self.cls, self.display_path = _queue_class()
        self.order = list(_model_keys())
        self.result = ModelCheckResult()

    # -- invariant checks -----------------------------------------------------

    def _check_transition(
        self,
        action: str,
        before: State,
        after: State,
        trace: Tuple[str, ...],
    ) -> None:
        from ..tuning.queue import DONE, LEASED, POISONED

        def blame(invariant: str, detail: str) -> None:
            self.result.violations.append(
                Violation(invariant, detail, trace + (action,))
            )

        leased_workers = [w for s, _, w in after if s == LEASED]
        if len(leased_workers) != len(set(leased_workers)):
            blame("no-double-grant", "one worker holds two leases at once")
        for job_id, (b, a) in zip(self.order, zip(before, after)):
            b_state, b_attempts, _bw = b
            a_state, a_attempts, _aw = a
            if a_attempts < b_attempts:
                blame(
                    "retry-monotonicity",
                    f"job {job_id} attempts fell {b_attempts} -> {a_attempts}",
                )
            if b_state in (DONE, POISONED) and a != b:
                blame(
                    "terminal-immutability",
                    f"terminal job {job_id} changed: {b} -> {a}",
                )
            if (
                b_state == LEASED
                and a_state == LEASED
                and action.startswith("claim")
                and a != b
            ):
                blame(
                    "no-double-grant",
                    f"claim re-leased already-leased job {job_id}",
                )
            if a_attempts > b_attempts + 1:
                blame(
                    "retry-monotonicity",
                    f"job {job_id} attempts jumped {b_attempts} -> {a_attempts}",
                )
            # A reported failure or a silent death consumes exactly one
            # attempt — otherwise a poison-pill job retries forever.
            failed_here = (
                action == f"fail({_bw},{job_id})"
                or (action == "expire-leases" and b_state == LEASED)
            )
            if failed_here and a_attempts != b_attempts + 1:
                blame(
                    "retry-monotonicity",
                    f"{action} left job {job_id} at attempts="
                    f"{a_attempts} (expected {b_attempts + 1})",
                )

    def _check_quiescent(self, state: State, trace: Tuple[str, ...]) -> None:
        from ..tuning.queue import DONE, POISONED

        stranded = [
            job_id
            for job_id, (s, _, _) in zip(self.order, state)
            if s not in (DONE, POISONED)
        ]
        if stranded:
            self.result.violations.append(Violation(
                "no-lost-job",
                f"quiescent state strands job(s) {', '.join(stranded)}",
                trace,
            ))

    # -- transitions ----------------------------------------------------------

    def _successors(
        self, state: State
    ) -> List[Tuple[str, Optional[State], Optional[Violation]]]:
        """Enabled (action, next-state | None-on-protocol-error) pairs."""
        from ..errors import ReproError
        from ..tuning.queue import DONE, LEASED

        held: Dict[str, str] = {}
        for job_id, (s, _, worker) in zip(self.order, state):
            if s == LEASED:
                held[worker] = job_id
        out: List[Tuple[str, Optional[State], Optional[Violation]]] = []

        def run(action: str, fn: Callable[[Any], object]) -> None:
            queue = _build_queue(self.cls, state)
            try:
                fn(queue)
            except ReproError as exc:
                out.append((action, None, Violation(
                    "protocol-error", f"{action} raised: {exc}", ()
                )))
                return
            out.append((action, _snapshot(queue, self.order), None))

        for worker in WORKERS:
            if worker not in held:
                run(
                    f"claim({worker})",
                    lambda q, w=worker: q.claim(w, 0.0),
                )
            else:
                job_id = held[worker]
                run(
                    f"complete({worker},{job_id})",
                    lambda q, j=job_id: q.complete(j, "sha-" + j, 0.0),
                )
                run(
                    f"fail({worker},{job_id})",
                    lambda q, j=job_id: q.fail(j, "boom", 0.0),
                )
        if held:
            run("expire-leases", lambda q: q.expire_leases(LEASE_TIMEOUT_S))

        # A claim that found nothing claimable leaves the state unchanged;
        # completion must move the job to DONE — enforce the postcondition.
        checked: List[Tuple[str, Optional[State], Optional[Violation]]] = []
        for action, after, violation in out:
            if violation is not None:
                checked.append((action, after, violation))
                continue
            assert after is not None
            if action.startswith("complete("):
                job_id = action[:-1].split(",", 1)[1]
                index = self.order.index(job_id)
                a_state, a_attempts, _ = after[index]
                b_state, b_attempts, _ = state[index]
                if a_state != DONE or a_attempts != b_attempts:
                    checked.append((action, after, Violation(
                        "complete-postcondition",
                        f"complete left job {job_id} as "
                        f"({a_state}, attempts={a_attempts})",
                        (),
                    )))
                    continue
            checked.append((action, after, None))
        return checked

    # -- exploration ----------------------------------------------------------

    def explore(self) -> ModelCheckResult:
        from ..tuning.queue import PENDING

        initial: State = tuple((PENDING, 0, "") for _ in self.order)
        seen: Dict[State, Tuple[str, ...]] = {initial: ()}
        frontier = deque([initial])
        self.result.states = 1
        while frontier:
            state = frontier.popleft()
            trace = seen[state]
            successors = self._successors(state)
            progressed = False
            for action, after, violation in successors:
                self.result.transitions += 1
                if violation is not None:
                    self.result.violations.append(Violation(
                        violation.invariant,
                        violation.detail,
                        trace + (action,),
                    ))
                    continue
                assert after is not None
                if after != state:
                    progressed = True
                self._check_transition(action, state, after, trace)
                if after not in seen:
                    seen[after] = trace + (action,)
                    self.result.states += 1
                    frontier.append(after)
                if len(self.result.violations) >= 16:
                    return self.result  # enough counterexamples
            if not successors or not progressed:
                self._check_quiescent(state, trace)
        return self.result


def check_lease_protocol() -> List[Finding]:
    """Run the REPRO240 model check; findings carry counterexamples."""
    checker = LeaseModelChecker()
    result = checker.explore()
    findings: List[Finding] = []
    seen_keys: Set[Tuple[str, str]] = set()
    for violation in result.violations:
        key = (violation.invariant, violation.detail)
        if key in seen_keys:
            continue
        seen_keys.add(key)
        findings.append(Finding(
            rule=RULE_ID,
            path=checker.display_path,
            line=1,
            symbol=f"lease-protocol/{violation.invariant}",
            message=violation.render(),
        ))
    return findings


__all__ = [
    "LeaseModelChecker",
    "ModelCheckResult",
    "QUEUE_CLASS_ENV",
    "RULE_ID",
    "Violation",
    "check_lease_protocol",
]
