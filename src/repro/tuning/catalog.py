"""Fleet catalogs: which plan keys a tuning fleet should pre-compile.

A serving deployment's plan demand is enumerable up front: every
(network, device, batch size) it may dispatch.  :func:`fleet_catalog`
expands that cross product into :class:`~repro.tuning.queue.TuneJob`
records.  The key's device fixes how it compiles: integrated CPU-GPU
devices run the **adaptive** five-stage pipeline (the paper's EdgeNN
path, default ablation flags all on), and every other device its fixed
baseline plan (:func:`~repro.compile.pipeline.compile_baseline`: all-CPU
on raspberry-pi-4, the original GPU program on rtx-2080ti-host) —
exactly the plans the serving and cluster simulators run.

Priorities: batch-1 keys (interactive traffic) and any ``hot``
networks claim first (priority 0); everything else is backfill
(priority 1).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..compile.pipeline import fixed_key
from ..core.engine import EdgeNNConfig
from ..core.plan_cache import PlanKey
from ..errors import ReproError
from ..hardware.specs import DeviceSpec
from ..hardware.variants import full_catalog
from ..nn.models import MODEL_BUILDERS
from .queue import TuneJob

#: Batch sizes a serving deployment dispatches (dynamic batcher range).
DEFAULT_BATCH_SIZES: Sequence[int] = (1, 2, 4, 8)


def key_for(network: str, spec: DeviceSpec, batch_size: int) -> PlanKey:
    """The plan key the fleet compiles for one catalog cell.

    Integrated devices use the default engine flags (all optimizations
    on — the keys :class:`~repro.core.engine.EdgeNNConfig` defaults
    produce at serve time); other devices the key of their baseline
    plan (:func:`~repro.compile.pipeline.fixed_key`).
    """
    if spec.is_integrated:
        return PlanKey.from_config(
            network, spec.name, EdgeNNConfig(batch_size=batch_size)
        )
    return fixed_key(network, spec.name, batch_size=batch_size)


def fleet_catalog(
    networks: Optional[Iterable[str]] = None,
    devices: Optional[Iterable[str]] = None,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    *,
    hot: Iterable[str] = (),
) -> List[TuneJob]:
    """Expand (networks x devices x batches) into prioritized jobs.

    Defaults to every registered model on every catalog device (paper
    catalog + variants).  ``hot`` networks are elevated to priority 0
    at every batch size.  The result is sorted in claim order
    ``(priority, job_id)``, so the catalog itself is deterministic.
    """
    catalog = full_catalog()
    chosen_networks = list(networks) if networks else sorted(MODEL_BUILDERS)
    chosen_devices = list(devices) if devices else sorted(catalog)
    hot_set = set(hot)
    for name in chosen_networks:
        if name not in MODEL_BUILDERS:
            raise ReproError(
                f"unknown network {name!r}; "
                f"available: {sorted(MODEL_BUILDERS)}"
            )
    for name in hot_set:
        if name not in MODEL_BUILDERS:
            raise ReproError(
                f"unknown hot network {name!r}; "
                f"available: {sorted(MODEL_BUILDERS)}"
            )
    for name in chosen_devices:
        if name not in catalog:
            raise ReproError(
                f"unknown device {name!r}; available: {sorted(catalog)}"
            )
    if not batch_sizes:
        raise ReproError("fleet catalog needs at least one batch size")
    for batch in batch_sizes:
        if not isinstance(batch, int) or batch < 1:
            raise ReproError(
                f"batch sizes must be ints >= 1, got {batch!r}"
            )

    jobs: List[TuneJob] = []
    for device_name in chosen_devices:
        spec = catalog[device_name]
        for network in chosen_networks:
            for batch in batch_sizes:
                priority = 0 if (batch == 1 or network in hot_set) else 1
                jobs.append(TuneJob(
                    key=key_for(network, spec, batch),
                    priority=priority,
                ))
    jobs.sort(key=lambda job: (job.priority, job.job_id))
    return jobs


__all__ = ["DEFAULT_BATCH_SIZES", "fleet_catalog", "key_for"]
