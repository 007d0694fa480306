"""Shared-DRAM bandwidth contention model for CPU-GPU co-running.

On an integrated SoC the CPU and GPU contend for one memory controller
(paper Challenge 1).  When both stream concurrently, neither achieves its
solo bandwidth; the controller itself also loses some peak efficiency from
interleaving two request streams.

We model each co-running kernel as a roofline job: it must move ``bytes``
bytes of memory traffic (at up to its solo rate) and additionally has a
compute floor — it can never finish faster than its compute time, and
memory transfers overlap compute.  While several jobs are active the total
achieved bandwidth is capped at ``total_bw`` and divided by max-min
fairness (water-filling).  When a job finishes its memory traffic it
releases its bandwidth share but still occupies its processor until the
compute floor elapses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import SimulationError


@dataclass(frozen=True)
class StreamJob:
    """One co-running kernel's demand.

    ``compute_s``  — compute floor (seconds).
    ``bytes_total`` — memory traffic to move.
    ``solo_rate``  — bandwidth it achieves running alone (bytes/s).
    """

    compute_s: float
    bytes_total: float
    solo_rate: float

    def __post_init__(self) -> None:
        _check_job(self.compute_s, self.bytes_total, self.solo_rate)

    @property
    def solo_time(self) -> float:
        """Roofline time of the job running alone."""
        if self.bytes_total == 0:
            return self.compute_s
        return max(self.compute_s, self.bytes_total / self.solo_rate)


def waterfill(caps: Sequence[float], total: float) -> List[float]:
    """Max-min fair allocation of ``total`` across streams capped at
    ``caps``.  Returns one rate per stream.

    Streams whose cap is below the fair share keep their cap; the slack is
    redistributed among the rest.
    """
    if total < 0:
        raise SimulationError("total bandwidth cannot be negative")
    rates = [0.0] * len(caps)
    remaining_idx = [i for i, c in enumerate(caps) if c > 0]
    remaining_bw = total
    while remaining_idx:
        share = remaining_bw / len(remaining_idx)
        bounded = [i for i in remaining_idx if caps[i] <= share]
        if not bounded:
            for i in remaining_idx:
                rates[i] = share
            break
        for i in bounded:
            rates[i] = caps[i]
            remaining_bw -= caps[i]
        remaining_idx = [i for i in remaining_idx if i not in set(bounded)]
    return rates


def corun_finish_times(jobs: Sequence[StreamJob], total_bw: float) -> List[float]:
    """Finish time of each job when all start at t=0 and share ``total_bw``.

    Event-driven: between memory-completion events the rate allocation is
    constant (water-filled over the still-streaming jobs).  This is the
    n-stream reference; :func:`corun_pair` solves two streams.
    """
    if total_bw <= 0:
        raise SimulationError("total bandwidth must be positive")
    n = len(jobs)
    remaining = [j.bytes_total for j in jobs]
    mem_done_at = [0.0 if j.bytes_total == 0 else None for j in jobs]
    t = 0.0
    guard = 0
    while any(done is None for done in mem_done_at):
        guard += 1
        if guard > 10 * n + 10:
            raise SimulationError("contention solver failed to converge")
        active = [i for i in range(n) if mem_done_at[i] is None]
        caps = [0.0] * n
        for i in active:
            caps[i] = jobs[i].solo_rate
        rates = waterfill([caps[i] for i in range(n)], total_bw)
        # Next memory completion under the current allocation.
        horizon = min(
            remaining[i] / rates[i] for i in active if rates[i] > 0
        )
        t += horizon
        for i in active:
            remaining[i] -= rates[i] * horizon
            if remaining[i] <= 1e-9:
                remaining[i] = 0.0
                mem_done_at[i] = t
    return [max(jobs[i].compute_s, mem_done_at[i]) for i in range(n)]


def _waterfill_pair(cap0: float, cap1: float, total: float) -> tuple[float, float]:
    """:func:`waterfill` of two streams, in its float operations."""
    if cap0 > 0 and cap1 > 0:
        share = total / 2
        bounded0 = cap0 <= share
        bounded1 = cap1 <= share
        if not (bounded0 or bounded1):
            return share, share
        if bounded0 and bounded1:
            return cap0, cap1
        if bounded0:
            rest = total - cap0
            return cap0, cap1 if cap1 <= rest else rest
        rest = total - cap1
        return cap0 if cap0 <= rest else rest, cap1
    if cap0 > 0:
        return cap0 if cap0 <= total else total, 0.0
    if cap1 > 0:
        return 0.0, cap1 if cap1 <= total else total
    return 0.0, 0.0


def _check_job(compute_s: float, bytes_total: float, solo_rate: float) -> None:
    """The checks a :class:`StreamJob` makes of its demands."""
    if compute_s < 0 or bytes_total < 0:
        raise SimulationError("job demands cannot be negative")
    if bytes_total > 0 and solo_rate <= 0:
        raise SimulationError("job with memory traffic needs a positive solo rate")


def corun_pair(
    cpu_compute_s: float,
    cpu_bytes: float,
    cpu_rate: float,
    gpu_compute_s: float,
    gpu_bytes: float,
    gpu_rate: float,
    dram_bw: float,
    *,
    corun_efficiency: float = 1.0,
) -> tuple[float, float]:
    """Finish times of a CPU kernel and a GPU kernel co-running on unified
    DRAM whose effective peak drops to ``dram_bw * corun_efficiency`` while
    both streams are active.  Each kernel is given as its
    :class:`StreamJob` terms (compute floor, bytes, solo rate).

    This is the primitive the hybrid executor prices intra-kernel splits
    with.  It is :func:`corun_finish_times` of the two jobs, in the same
    float operations and the same event loop, with the checks the jobs
    and the solver make, but with no per-call objects
    (``tests/properties/test_corun_oracle.py`` pins the two together).
    """
    _check_job(cpu_compute_s, cpu_bytes, cpu_rate)
    _check_job(gpu_compute_s, gpu_bytes, gpu_rate)
    if not 0.0 < corun_efficiency <= 1.0:
        raise SimulationError("corun efficiency must be in (0, 1]")
    total_bw = dram_bw * corun_efficiency
    if total_bw <= 0:
        raise SimulationError("total bandwidth must be positive")
    remaining0, remaining1 = cpu_bytes, gpu_bytes
    done0: Optional[float] = 0.0 if cpu_bytes == 0 else None
    done1: Optional[float] = 0.0 if gpu_bytes == 0 else None
    t = 0.0
    guard = 0
    while done0 is None or done1 is None:
        guard += 1
        if guard > 30:  # corun_finish_times' bound for two jobs
            raise SimulationError("contention solver failed to converge")
        rate0, rate1 = _waterfill_pair(
            cpu_rate if done0 is None else 0.0,
            gpu_rate if done1 is None else 0.0,
            total_bw,
        )
        # Next memory completion under the current allocation.
        horizon: Optional[float] = None
        if done0 is None and rate0 > 0:
            horizon = remaining0 / rate0
        if done1 is None and rate1 > 0:
            step = remaining1 / rate1
            if horizon is None or step < horizon:
                horizon = step
        if horizon is None:
            raise SimulationError("no streaming job has a positive rate")
        t += horizon
        if done0 is None:
            remaining0 -= rate0 * horizon
            if remaining0 <= 1e-9:
                remaining0 = 0.0
                done0 = t
        if done1 is None:
            remaining1 -= rate1 * horizon
            if remaining1 <= 1e-9:
                remaining1 = 0.0
                done1 = t
    return max(cpu_compute_s, done0), max(gpu_compute_s, done1)
