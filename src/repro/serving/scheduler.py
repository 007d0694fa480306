"""Weighted fair-share scheduling across tenants (models).

Replaces the round-robin interleaving of
:mod:`repro.core.multitenant` at the *request* level: the device runs
one batch at a time (GPU kernels are non-preemptive — the hard lesson
of the `ext_multitenant` experiment, where naive sharing starved the
small tenant ~270x), and whenever it goes idle the scheduler picks which
tenant's ready batch runs next.

The discipline is generalized processor sharing approximated over
*attained service*: each tenant accumulates the device seconds its
batches consumed, and the next grant goes to the ready tenant with the
smallest ``attained / weight``.  A tenant with weight 2 therefore
converges to twice the device share of a weight-1 tenant when both are
backlogged, while an idle tenant's unused share redistributes
automatically (work conservation).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..errors import ReproError


class WeightedFairScheduler:
    """Pick the next tenant by smallest weight-normalized attained service."""

    def __init__(self, weights: Mapping[str, float]) -> None:
        if not weights:
            raise ReproError("scheduler needs at least one tenant")
        for tenant, weight in weights.items():
            if weight <= 0:
                raise ReproError(
                    f"tenant {tenant!r} weight must be positive, got {weight}"
                )
        self._weights: Dict[str, float] = dict(weights)
        self._attained: Dict[str, float] = {t: 0.0 for t in weights}
        self._order: List[str] = list(weights)   # registration = tie-break

    @property
    def tenants(self) -> Sequence[str]:
        return tuple(self._order)

    def attained_s(self, tenant: str) -> float:
        """Device seconds this tenant's batches have consumed so far."""
        self._check(tenant)
        return self._attained[tenant]

    def normalized_attained(self, tenant: str) -> float:
        self._check(tenant)
        return self._attained[tenant] / self._weights[tenant]

    def pick(self, ready: Sequence[str]) -> Optional[str]:
        """The ready tenant owed the most service (None when none ready).

        Deterministic: ties break by tenant registration order.
        """
        best: Optional[str] = None
        best_score = float("inf")
        for tenant in self._order:
            if tenant not in ready:
                continue
            score = self.normalized_attained(tenant)
            if score < best_score:
                best, best_score = tenant, score
        if best is None and ready:
            unknown = [t for t in ready if t not in self._weights]
            if unknown:
                raise ReproError(f"unknown tenants {unknown!r}")
        return best

    def charge(self, tenant: str, service_s: float) -> None:
        """Account ``service_s`` device seconds to ``tenant``."""
        self._check(tenant)
        if service_s < 0:
            raise ReproError(f"negative service time {service_s}")
        self._attained[tenant] += service_s

    def _check(self, tenant: str) -> None:
        if tenant not in self._weights:
            raise ReproError(
                f"unknown tenant {tenant!r}; have {sorted(self._weights)}"
            )
