"""Request-level inference serving on top of the EdgeNN engine.

The paper evaluates one-shot inference; this package turns the engine
into a simulated *service*: arrival generators feed bounded per-tenant
queues, a dynamic batcher forms batches (max-batch-size / max-wait-time
policy, plans re-tuned per batch size through the shared plan cache),
admission control sheds load past the queue bound, and a weighted
fair-share scheduler multiplexes tenants on the non-preemptive device.
See docs/serving.md for the architecture.
"""

from .batcher import BatchPolicy
from .report import (
    LatencyStats,
    ServingReport,
    TenantServingStats,
    percentile,
)
from .scheduler import WeightedFairScheduler
from .simulator import (
    BatchServiceTime,
    ServiceTimeModel,
    ServingConfig,
    ServingSimulator,
    TenantSpec,
    poisson_tenant,
    simulate,
    simulate_poisson,
)

__all__ = [
    "BatchPolicy",
    "BatchServiceTime",
    "LatencyStats",
    "ServiceTimeModel",
    "ServingConfig",
    "ServingReport",
    "ServingSimulator",
    "TenantServingStats",
    "TenantSpec",
    "WeightedFairScheduler",
    "percentile",
    "poisson_tenant",
    "simulate",
    "simulate_poisson",
]
