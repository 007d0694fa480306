"""Serving-run metrics: the request-level analogue of InferenceReport.

Where :class:`~repro.core.report.InferenceReport` describes one
inference, :class:`ServingReport` describes a whole run of the service:
latency percentiles across every served request, offered/served/shed
conservation, queue-depth statistics, the batch-size histogram the
dynamic batcher produced, and device utilization over the run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from ..errors import ReproError


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) over ``values``.

    Nearest-rank always returns an observed sample, so for any data set
    ``percentile(v, a) <= percentile(v, b)`` whenever ``a <= b`` — the
    monotonicity the report's p50/p95/p99 invariant relies on.
    """
    if not values:
        raise ReproError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ReproError(f"percentile rank must be in [0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class LatencyStats:
    """Distribution summary of served-request latencies."""

    count: int
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    @classmethod
    def from_latencies(cls, latencies: Sequence[float]) -> "LatencyStats":
        if not latencies:
            return cls(count=0, mean_s=0.0, p50_s=0.0, p95_s=0.0,
                       p99_s=0.0, max_s=0.0)
        return cls(
            count=len(latencies),
            mean_s=sum(latencies) / len(latencies),
            p50_s=percentile(latencies, 0.50),
            p95_s=percentile(latencies, 0.95),
            p99_s=percentile(latencies, 0.99),
            max_s=max(latencies),
        )


@dataclass(frozen=True)
class TenantServingStats:
    """One tenant's (model's) view of the run."""

    name: str
    network: str
    weight: float
    offered: int
    served: int
    shed: int
    latency: LatencyStats
    batch_histogram: Dict[int, int]     # batch size -> dispatch count
    timed_out: int = 0                  # deadline misses (queued or late)
    failed: int = 0                     # lost to execution faults
    rejected: int = 0                   # malformed payloads refused

    @property
    def shed_rate(self) -> float:
        if self.offered == 0:
            return 0.0
        return self.shed / self.offered

    @property
    def mean_batch_size(self) -> float:
        dispatches = sum(self.batch_histogram.values())
        if dispatches == 0:
            return 0.0
        total = sum(size * n for size, n in self.batch_histogram.items())
        return total / dispatches


@dataclass
class ServingReport:
    """Complete outcome of one simulated serving run."""

    device: str
    duration_s: float          # configured admission horizon
    makespan_s: float          # last completion instant (>= duration under load)
    offered: int
    served: int
    shed: int
    latency: LatencyStats
    batch_histogram: Dict[int, int]
    queue_depth_mean: float    # time-weighted average across the run
    queue_depth_max: int
    cpu_utilization: float     # busy share of the makespan
    gpu_utilization: float
    tenants: Tuple[TenantServingStats, ...]
    seed: int = 0
    #: deadline misses: abandoned in queue plus completions past deadline.
    timed_out: int = 0
    #: completions that missed their deadline (subset of ``timed_out``:
    #: a response was produced, but too late to be useful).
    late: int = 0
    #: requests lost to execution faults (failed batches).
    failed: int = 0
    #: malformed payloads refused by request validation.
    rejected: int = 0
    #: time-in-system distribution of deadline-missed requests
    #: (arrival → abandonment or late completion).
    abandoned_latency: LatencyStats = field(
        default_factory=lambda: LatencyStats.from_latencies([])
    )
    #: shared plan-cache traffic this run caused (one miss per distinct
    #: (network, batch, …) tuned; hits when a batch size recurs).
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        accounted = (
            self.served + self.shed + self.timed_out
            + self.failed + self.rejected
        )
        if accounted != self.offered:
            raise ReproError(
                f"request conservation violated: served {self.served} + "
                f"shed {self.shed} + timed_out {self.timed_out} + "
                f"failed {self.failed} + rejected {self.rejected} "
                f"!= offered {self.offered}"
            )
        if self.late > self.timed_out:
            raise ReproError(
                f"late completions {self.late} exceed total deadline "
                f"misses {self.timed_out}"
            )

    @property
    def shed_rate(self) -> float:
        if self.offered == 0:
            return 0.0
        return self.shed / self.offered

    @property
    def timeout_rate(self) -> float:
        if self.offered == 0:
            return 0.0
        return self.timed_out / self.offered

    @property
    def throughput_rps(self) -> float:
        """Responses produced per second of wall (virtual) time —
        including completions that arrived past their deadline."""
        if self.makespan_s == 0:
            return 0.0
        return (self.served + self.late) / self.makespan_s

    @property
    def goodput_rps(self) -> float:
        """*Useful* responses per second: served within deadline, with a
        valid payload, untouched by execution faults.  Deadline-missed,
        abandoned, failed, and rejected requests are all excluded."""
        if self.makespan_s == 0:
            return 0.0
        return self.served / self.makespan_s

    @property
    def mean_batch_size(self) -> float:
        dispatches = sum(self.batch_histogram.values())
        if dispatches == 0:
            return 0.0
        total = sum(size * n for size, n in self.batch_histogram.items())
        return total / dispatches

    def tenant(self, name: str) -> TenantServingStats:
        for t in self.tenants:
            if t.name == name:
                return t
        raise ReproError(f"no tenant {name!r} in serving report")

    def to_dict(self) -> Dict[str, object]:
        """Flat summary for tabulation / JSON export."""
        return {
            "device": self.device,
            "duration_s": self.duration_s,
            "makespan_s": self.makespan_s,
            "offered": self.offered,
            "served": self.served,
            "shed": self.shed,
            "timed_out": self.timed_out,
            "late": self.late,
            "failed": self.failed,
            "rejected": self.rejected,
            "shed_rate": self.shed_rate,
            "timeout_rate": self.timeout_rate,
            "throughput_rps": self.throughput_rps,
            "goodput_rps": self.goodput_rps,
            "abandoned_p99_ms": self.abandoned_latency.p99_s * 1e3,
            "abandoned_count": self.abandoned_latency.count,
            "p50_ms": self.latency.p50_s * 1e3,
            "p95_ms": self.latency.p95_s * 1e3,
            "p99_ms": self.latency.p99_s * 1e3,
            "mean_ms": self.latency.mean_s * 1e3,
            "queue_depth_mean": self.queue_depth_mean,
            "queue_depth_max": self.queue_depth_max,
            "mean_batch_size": self.mean_batch_size,
            "cpu_utilization": self.cpu_utilization,
            "gpu_utilization": self.gpu_utilization,
            "batch_histogram": dict(sorted(self.batch_histogram.items())),
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "tenants": [t.name for t in self.tenants],
            "seed": self.seed,
        }

    def digest(self) -> str:
        """Stable content hash of the whole report.

        The CI determinism gate runs the same seeded (scenario, policy)
        twice in fresh processes and compares these digests — any
        nondeterminism anywhere in the serving or fault path shows up
        as a mismatch here.
        """
        payload = dict(self.to_dict())
        payload["extra"] = {k: self.extra[k] for k in sorted(self.extra)}
        payload["per_tenant"] = [
            {
                "name": t.name,
                "offered": t.offered,
                "served": t.served,
                "shed": t.shed,
                "timed_out": t.timed_out,
                "failed": t.failed,
                "rejected": t.rejected,
                "p99_ms": t.latency.p99_s * 1e3,
                "mean_ms": t.latency.mean_s * 1e3,
            }
            for t in self.tenants
        ]
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def describe(self) -> str:
        """Multi-line human-readable summary (the CLI's output)."""
        lines = [
            f"serving run on {self.device} "
            f"({self.duration_s:g}s offered, makespan {self.makespan_s:.3f}s)",
            f"requests  : offered {self.offered}, served {self.served}, "
            f"shed {self.shed} ({self.shed_rate:.1%})",
        ]
        if self.timed_out or self.failed or self.rejected:
            lines.append(
                f"lost      : timed out {self.timed_out} "
                f"({self.late} late completions), failed {self.failed}, "
                f"rejected {self.rejected}"
            )
            if self.abandoned_latency.count:
                lines.append(
                    f"abandoned : p99 time-in-system "
                    f"{self.abandoned_latency.p99_s * 1e3:.3f} ms over "
                    f"{self.abandoned_latency.count} deadline misses"
                )
        lines += [
            f"throughput: {self.throughput_rps:.2f} req/s "
            f"(goodput {self.goodput_rps:.2f} req/s)",
            f"latency   : p50 {self.latency.p50_s * 1e3:.3f} ms, "
            f"p95 {self.latency.p95_s * 1e3:.3f} ms, "
            f"p99 {self.latency.p99_s * 1e3:.3f} ms "
            f"(mean {self.latency.mean_s * 1e3:.3f}, "
            f"max {self.latency.max_s * 1e3:.3f})",
            f"queue     : mean depth {self.queue_depth_mean:.2f}, "
            f"max {self.queue_depth_max}",
            f"batches   : mean size {self.mean_batch_size:.2f}, histogram "
            + (" ".join(f"{s}x{n}" for s, n in
                        sorted(self.batch_histogram.items())) or "(none)"),
            f"device    : cpu util {self.cpu_utilization:.1%}, "
            f"gpu util {self.gpu_utilization:.1%}",
            f"plan cache: {self.plan_cache_hits} hits, "
            f"{self.plan_cache_misses} misses",
        ]
        if len(self.tenants) > 1:
            lines.append("tenants:")
            for t in self.tenants:
                lines.append(
                    f"  {t.name:<14} w={t.weight:g} offered={t.offered} "
                    f"served={t.served} shed={t.shed} "
                    f"p99={t.latency.p99_s * 1e3:.3f}ms "
                    f"mean_batch={t.mean_batch_size:.2f}"
                )
        return "\n".join(lines)


def merge_histograms(
    histograms: Sequence[Dict[int, int]]
) -> Dict[int, int]:
    """Sum batch-size histograms across tenants."""
    out: Dict[int, int] = {}
    for hist in histograms:
        for size, n in hist.items():
            out[size] = out.get(size, 0) + n
    return out
