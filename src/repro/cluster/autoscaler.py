"""Autoscaler: grow and shrink model pools on the virtual clock.

The autoscaler ticks at a fixed virtual interval.  Each tick it looks
at two per-pool signals accumulated since the previous tick — mean
queue depth across routable replicas and the deadline-miss rate
(timed-out + late completions over admitted) — and reacts:

- *scale up* when either signal is above its high-water mark: add
  replicas (the fleet's device mix decides which hardware they are).
- *scale down* when both are below their low-water marks: mark the
  newest routable replica *draining* — it accepts no new requests,
  finishes what it has, and is retired by the event loop once empty.

Scaling is rate-limited by a cooldown, bounded by ``min_replicas`` /
``max_replicas``, and every decision is recorded as a
:class:`~repro.obs.provenance.ScalingRecord` in the run's provenance
log, so a fleet report can always answer *why* the replica population
changed.  Determinism: decisions are pure functions of the windowed
signals, so the same seed and config replays the same scaling history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import ReproError
from ..obs import Observability, ScalingRecord
from .fleet import Fleet, Pool, Replica


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Thresholds and limits for one run's scaling behavior."""

    interval_s: float = 5.0
    high_depth: float = 4.0
    low_depth: float = 0.5
    high_miss_rate: float = 0.05
    low_miss_rate: float = 0.01
    min_replicas: int = 1
    max_replicas: int = 4096
    cooldown_s: float = 10.0
    step: int = 1

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ReproError(
                f"autoscaler interval must be > 0, got {self.interval_s}"
            )
        if self.low_depth > self.high_depth:
            raise ReproError(
                "autoscaler depth thresholds inverted: "
                f"low {self.low_depth} > high {self.high_depth}"
            )
        if self.low_miss_rate > self.high_miss_rate:
            raise ReproError(
                "autoscaler miss-rate thresholds inverted: "
                f"low {self.low_miss_rate} > high {self.high_miss_rate}"
            )
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ReproError(
                "autoscaler replica bounds invalid: "
                f"min {self.min_replicas}, max {self.max_replicas}"
            )
        if self.step < 1:
            raise ReproError(f"autoscaler step must be >= 1, got {self.step}")


class _PoolWindow:
    """Signals accumulated for one pool since the last tick."""

    __slots__ = ("depth_sum", "depth_samples", "admitted", "missed")

    def __init__(self) -> None:
        self.depth_sum = 0
        self.depth_samples = 0
        self.admitted = 0
        self.missed = 0

    def reset(self) -> None:
        self.depth_sum = 0
        self.depth_samples = 0
        self.admitted = 0
        self.missed = 0

    @property
    def mean_depth(self) -> float:
        if self.depth_samples == 0:
            return 0.0
        return self.depth_sum / self.depth_samples

    @property
    def miss_rate(self) -> float:
        if self.admitted == 0:
            return 0.0
        return self.missed / self.admitted


class Autoscaler:
    """Windowed threshold scaler over a fleet's pools."""

    def __init__(
        self,
        fleet: Fleet,
        policy: AutoscalerPolicy,
        obs: Observability,
    ) -> None:
        self.fleet = fleet
        self.policy = policy
        self.obs = obs
        self._windows = {pool.name: _PoolWindow() for pool in fleet.pools}
        self._last_change = {pool.name: float("-inf") for pool in fleet.pools}
        #: replicas added this tick — the event loop registers them with
        #: the pool's router after the tick returns.
        self.added: List[Replica] = []

    # -- signal feed (called by the event loop) ---------------------------

    def observe_admit(self, pool: Pool, depth: int) -> None:
        window = self._windows[pool.name]
        window.admitted += 1
        window.depth_sum += depth
        window.depth_samples += 1

    def observe_miss(self, pool: Pool) -> None:
        self._windows[pool.name].missed += 1

    # -- tick -------------------------------------------------------------

    def _record(
        self,
        pool: Pool,
        now: float,
        action: str,
        replica: Replica,
        window: _PoolWindow,
        reason: str,
    ) -> None:
        self.obs.provenance.record_scaling(ScalingRecord(
            pool=pool.name,
            t_s=now,
            action=action,
            replica=replica.name,
            device=replica.spec.name,
            replicas_after=len(pool.active_replicas),
            queue_depth_mean=window.mean_depth,
            miss_rate=window.miss_rate,
            reason=reason,
        ))

    def tick(self, now: float) -> List[Replica]:
        """Evaluate every pool; returns replicas added this tick."""
        self.added = []
        for pool in self.fleet.pools:
            window = self._windows[pool.name]
            self._evaluate(pool, window, now)
            window.reset()
        return self.added

    def _evaluate(
        self, pool: Pool, window: _PoolWindow, now: float
    ) -> None:
        policy = self.policy
        if now - self._last_change[pool.name] < policy.cooldown_s:
            return
        active = pool.active_replicas
        depth = window.mean_depth
        miss = window.miss_rate
        if depth >= policy.high_depth or miss >= policy.high_miss_rate:
            room = policy.max_replicas - len(active)
            for _ in range(min(policy.step, room)):
                replica = self.fleet.add_replica(pool, now=now)
                self.added.append(replica)
                pool.scale_ups += 1
                reason = (
                    f"depth {depth:.2f} >= {policy.high_depth}"
                    if depth >= policy.high_depth
                    else f"miss rate {miss:.4f} >= {policy.high_miss_rate}"
                )
                self._record(pool, now, "scale_up", replica, window, reason)
            if room > 0:
                self._last_change[pool.name] = now
            return
        if depth <= policy.low_depth and miss <= policy.low_miss_rate:
            room = len(active) - policy.min_replicas
            drained = 0
            # Retire newest-first: oldest replicas carry the sticky
            # tenant state worth keeping.
            for replica in reversed(active):
                if drained >= min(policy.step, room):
                    break
                replica.draining = True
                replica.version += 1
                drained += 1
                pool.scale_downs += 1
                self._record(
                    pool, now, "scale_down", replica, window,
                    f"depth {depth:.2f} <= {policy.low_depth} and "
                    f"miss rate {miss:.4f} <= {policy.low_miss_rate}",
                )
            if drained > 0:
                self._last_change[pool.name] = now


__all__ = ["Autoscaler", "AutoscalerPolicy"]
