"""The five workloads of the end-to-end benchmark.

Each workload has a set-up phase and a timed operation.  The harness
times :meth:`Workload.op` alone; the output checks run in
:meth:`Workload.verify` (after every operation) and
:meth:`Workload.check` (after the timed phase), outside the timed
region.  Every input is derived from ``seed``; ``scale`` shrinks the
inputs for the smoke test (digests are recorded for ``scale == 1``
only).

Sizes are chosen so that one operation takes under a second on a
2-core host: a run then holds dozens of operations, and its throughput
comes from the fastest of them rather than from a single sample.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import EdgeNN, tuning
from repro.cluster import ClusterConfig, ClusterSimulator, ClusterTenant, DeviceMix
from repro.faults import load_scenario, scale_to_horizon
from repro.faults.resilience import RetryPolicy
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.obs.timeline import SloObjective
from repro.serving import BatchPolicy
from repro.serving.simulator import ServingConfig, ServingSimulator, TenantSpec
from repro.workloads import DiurnalPoissonArrivals, PoissonArrivals

ROOT = Path(__file__).resolve().parents[2]
LOGITS_GOLDEN = ROOT / "tests" / "golden" / "plan_parity.json"

#: (kind, work items, output) of one timed operation.
OpResult = Tuple[str, int, object]


def compare_digest(actual: str, recorded: Optional[str], errors: List[str]) -> str:
    """Check ``actual`` against the digest ``expected.json`` records (if
    any); returns the note printed with the run."""
    if recorded is None:
        return "digest unchecked"
    if recorded == actual:
        return "digest matches expected.json"
    errors.append(f"digest {actual[:16]} != expected.json {recorded[:16]}")
    return "digest differs from expected.json"


class Workload:
    """One benchmark workload: set-up, a repeatable timed operation,
    and the checks on what the operations produced."""

    name = ""
    #: what one work item is (the unit behind ``work_per_s``)
    item = ""
    #: operations per balanced round; a timed phase ends on a round
    #: boundary so every kind of operation is equally represented
    round_size = 1

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> OpResult:
        raise NotImplementedError

    def verify(self, output: object) -> bool:
        """Whether one operation's output is correct."""
        raise NotImplementedError

    def check(self, expected: Optional[dict]) -> Tuple[List[str], Dict[str, object]]:
        """(errors, facts) after the timed phase; ``expected`` is this
        workload's entry of ``expected.json`` (None when not at full scale)."""
        raise NotImplementedError


# -- simulators ------------------------------------------------------------------


class _SimulatorWorkload(Workload):
    """A simulation rebuilt and re-run from the same seeded inputs.

    Every timed repetition must reproduce the first one's report digest
    (determinism) and account for every generated arrival
    (completeness); the report constructors already raise on a
    conservation violation.
    """

    item = "simulated requests"

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        self.arrivals = 0
        self.digest: Optional[str] = None
        self.report = None

    def tenants(self) -> list:
        raise NotImplementedError

    def simulator(self, tenants: list):
        raise NotImplementedError

    def setup(self) -> None:
        tenants = self.tenants()
        self.arrivals = sum(len(t.arrival.as_arrays()) for t in tenants)
        self.simulator(tenants).run()

    def op(self, index: int) -> OpResult:
        report = self.simulator(self.tenants()).run()
        return "rep", report.offered, report

    def verify(self, output: object) -> bool:
        digest = output.digest()
        if self.digest is None:
            self.digest, self.report = digest, output
        return digest == self.digest and output.offered == self.arrivals

    def check(self, expected: Optional[dict]) -> Tuple[List[str], Dict[str, object]]:
        errors: List[str] = []
        report = self.report
        recorded = (expected or {}).get("digests", {}).get(str(self.seed))
        digest_check = compare_digest(self.digest, recorded, errors)
        unserved = report.offered - report.served
        facts = {
            "digest": self.digest,
            "digest_check": digest_check,
            "offered": report.offered,
            "served": report.served,
            "shed": report.shed,
            "timed_out": report.timed_out,
            "failed": report.failed,
            "unserved_share": unserved / report.offered,
            "sim_p50_ms": report.latency.p50_s * 1e3,
            "sim_p99_ms": report.latency.p99_s * 1e3,
            "sim_goodput_rps": report.goodput_rps,
        }
        facts.update(self.extra_facts(report))
        return errors, facts

    def extra_facts(self, report) -> Dict[str, object]:
        return {
            "rejected": report.rejected,
            "plan_cache_hits": report.plan_cache_hits,
            "plan_cache_misses": report.plan_cache_misses,
        }


class ServeMixed(_SimulatorWorkload):
    """Three open-loop tenants near the knee under ``edge-storm`` faults,
    with the timeline and one SLO on: the scalar engine path with wait
    timers, the fault/resilience layer and the timeline finish pass."""

    name = "serve-mixed"

    @property
    def horizon(self) -> float:
        return 30.0 * self.scale

    def tenants(self) -> List[TenantSpec]:
        horizon, seed = self.horizon, self.seed
        return [
            TenantSpec(
                "lenet",
                DiurnalPoissonArrivals(
                    600.0, horizon, period_s=horizon / 3, amplitude=0.5,
                    seed=seed,
                ),
                weight=3.0,
            ),
            TenantSpec("fcnn", PoissonArrivals(8.0, horizon, seed=seed + 1)),
            TenantSpec(
                "squeezenet", PoissonArrivals(0.5, horizon, seed=seed + 2)
            ),
        ]

    def simulator(self, tenants: List[TenantSpec]) -> ServingSimulator:
        config = ServingConfig(
            policy=BatchPolicy(
                max_batch_size=8, max_wait_s=0.002, max_queue_depth=256,
                deadline_s=0.5,
            ),
            seed=self.seed,
            faults=scale_to_horizon(load_scenario("edge-storm"), self.horizon),
            resilience=True,
            timeline_window_s=1.0,
            slos=(SloObjective.parse("goodput_ratio>=0.9"),),
        )
        return ServingSimulator(JETSON_AGX_XAVIER, tenants, config)


class ServeOverload(_SimulatorWorkload):
    """One lenet tenant at 200k req/s against a 256-deep queue: almost
    every arrival lands on the bulk-admission and bulk-shed path."""

    name = "serve-overload"

    def tenants(self) -> List[TenantSpec]:
        arrivals = PoissonArrivals(200_000.0, 5.0 * self.scale, seed=self.seed)
        return [TenantSpec("lenet", arrivals)]

    def simulator(self, tenants: List[TenantSpec]) -> ServingSimulator:
        config = ServingConfig(
            policy=BatchPolicy(max_batch_size=32, max_queue_depth=256),
            seed=self.seed,
        )
        return ServingSimulator(JETSON_AGX_XAVIER, tenants, config)


#: The cluster fleet: the device mix, throttled share, fault scenario and
#: per-replica request intensity of ``benchmarks/bench_cluster_routing.py``
#: (restated here so that edits to that bench leave this one unchanged).
CLUSTER_DEVICES = (
    "jetson-agx-xavier:3,dimensity-8100:2,raspberry-pi-4:1,rtx-2080ti-host:1"
)
CLUSTER_RATES_PER_REPLICA = {"fcnn": 62.5, "lenet": 50.0, "squeezenet": 2.0}


class ClusterFleet(_SimulatorWorkload):
    """72 heterogeneous replicas behind the ``plan_cost`` router with
    ``thermal-soak`` on a quarter of them: routing and per-dispatch
    Python at fleet scale, timeline off."""

    name = "cluster-fleet"

    @property
    def duration(self) -> float:
        return 20.0 * self.scale

    @property
    def replicas(self) -> int:
        return max(2, round(24 * self.scale))

    def tenants(self) -> List[ClusterTenant]:
        duration = self.duration
        return [
            ClusterTenant(
                network,
                DiurnalPoissonArrivals(
                    rate * self.replicas, duration, period_s=duration,
                    amplitude=0.5, phase=index * 2.0, seed=self.seed + index,
                ),
            )
            for index, (network, rate) in enumerate(
                sorted(CLUSTER_RATES_PER_REPLICA.items())
            )
        ]

    def simulator(self, tenants: List[ClusterTenant]) -> ClusterSimulator:
        duration = self.duration
        config = ClusterConfig(
            router="plan_cost",
            policy=BatchPolicy(
                max_batch_size=8, max_wait_s=0.0, max_queue_depth=64,
                deadline_s=5.0,
            ),
            seed=self.seed,
            faults=scale_to_horizon(load_scenario("thermal-soak"), duration),
            fault_share=0.25,
            fault_stagger_s=duration * 0.25,
        )
        mix = DeviceMix.parse(CLUSTER_DEVICES, throttled_share=0.15)
        return ClusterSimulator(tenants, mix, self.replicas, config)

    def extra_facts(self, report) -> Dict[str, object]:
        return {"replicas": report.replicas_start}


# -- plan-catalog compilation ----------------------------------------------------


def fleet_workers() -> int:
    """One pool worker per CPU this process may run on, at most two."""
    return min(2, len(os.sched_getaffinity(0)))


#: Integrated CPU-GPU devices (the adaptive five-stage pipeline) and the
#: networks whose adaptive compiles cost alike (19 to 37 ms each on a
#: 2-core host), so which jobs a seed's fault draws fail barely changes
#: the work per attempt.  With lenet and fcnn (4 ms) and fixed CPU/GPU
#: plans (under 1 ms) in the catalog, the same host measured 73 to 105
#: attempts per second depending on the seed.
CATALOG_DEVICES = (
    "amd-ryzen-apu", "apple-m1-style", "jetson-agx-xavier",
    "jetson-agx-xavier-10w", "jetson-agx-xavier-15w",
)
CATALOG_NETWORKS = ("mobilenet-v1", "resnet18", "squeezenet", "vgg16")


class CompileCatalog(Workload):
    """Cold starts of a plan catalog through the tuning fleet under
    ``flaky-fleet`` faults: the five-stage compile pipeline plus the
    store, queue and fsync path, never the event engine.

    Each operation cold-starts the catalog into a fresh store.  Every
    store's manifest must be byte-identical to the first one's, and a
    warm re-run on the first store must compile nothing.  The manifest
    is content-addressed, so its digest does not depend on the seed.
    """

    name = "compile-catalog"
    item = "compile attempts"

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        full = scale >= 1.0
        self.jobs = tuning.fleet_catalog(
            networks=CATALOG_NETWORKS if full else ["resnet18", "squeezenet"],
            devices=CATALOG_DEVICES if full else CATALOG_DEVICES[:2],
            batch_sizes=(1,),
        )
        self.workers = fleet_workers()
        self.first: Optional[Path] = None
        self.manifest: Optional[bytes] = None
        self.digest: Optional[str] = None
        self.attempts = self.failed_attempts = 0
        self.cold_starts = 0

    def _cold_start(self, store: Path):
        # Looked up on the package at call time, so that the tracer's
        # wrapper of ``run_fleet`` applies.
        return tuning.run_fleet(
            store,
            self.jobs,
            workers=self.workers,
            seed=self.seed,
            scenario=load_scenario("flaky-fleet"),
            # Millisecond backoff: a failed job is retried soon enough
            # that the cold start measures compilation, not sleeping.
            retry_policy=RetryPolicy(
                max_attempts=6, base_delay_s=0.001, max_delay_s=0.01,
                seed=self.seed,
            ),
        )

    def setup(self) -> None:
        store = self.workdir / "setup-store"
        self._cold_start(store)
        shutil.rmtree(store)

    def op(self, index: int) -> OpResult:
        self.cold_starts += 1
        store = self.workdir / f"store-{self.cold_starts}"
        report = self._cold_start(store)
        return "cold-start", report.attempts, (store, report)

    def verify(self, output: object) -> bool:
        store, report = output
        manifest = (store / "manifest.json").read_bytes()
        if self.first is None:
            self.first, self.manifest = store, manifest
            self.digest = report.manifest_digest
        else:
            shutil.rmtree(store)
        self.attempts += report.attempts
        self.failed_attempts += report.attempts - report.completed
        return (
            report.completed == len(self.jobs)
            and report.poisoned == 0
            and manifest == self.manifest
        )

    def check(self, expected: Optional[dict]) -> Tuple[List[str], Dict[str, object]]:
        errors: List[str] = []
        warm = self._cold_start(self.first)
        if warm.attempts != 0:
            errors.append(f"warm re-run made {warm.attempts} attempts, not 0")
        recorded = (expected or {}).get("manifest_digest")
        digest_check = compare_digest(self.digest, recorded, errors)
        return errors, {
            "manifest_digest": self.digest,
            "digest_check": digest_check,
            "plans": len(self.jobs),
            "workers": self.workers,
            "attempts": self.attempts,
            "failed_attempts": self.failed_attempts,
            "warm_rerun_attempts": warm.attempts,
        }


# -- real numerics ---------------------------------------------------------------

NETWORKS: Sequence[str] = (
    "lenet", "fcnn", "alexnet", "squeezenet", "mobilenet-v1", "resnet18", "vgg16",
)
#: distinct seeded inputs per network, cycled round by round
INPUTS_PER_NETWORK = 4
#: forwards per network in set-up; the first also materializes parameters
WARMUP_FORWARDS = 2


def logits_match(logits: np.ndarray, golden: dict) -> bool:
    """The rule of ``tests/compile/test_parity_golden.py``: the sha256 of
    the float32 logits, or, when BLAS summation order differs, the first
    eight values and the sum within tolerance."""
    flat = logits.astype(np.float32).ravel()
    digest = hashlib.sha256(
        flat.tobytes() + str(logits.shape).encode()
    ).hexdigest()
    return list(logits.shape) == golden["shape"] and (
        digest == golden["sha256"]
        or bool(
            np.allclose(flat[:8], golden["sample"], rtol=1e-5, atol=1e-6)
            and np.isclose(float(flat.sum()), golden["sum"], rtol=1e-4)
        )
    )


class NumpyInfer(Workload):
    """A closed loop with one caller: real NumPy forwards through
    ``EdgeNN.infer``, one per network per round in a seeded order."""

    name = "numpy-infer"
    item = "forwards"

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        super().__init__(seed, scale, workdir)
        self.networks = list(NETWORKS) if scale >= 1.0 else ["lenet", "fcnn"]
        self.round_size = len(self.networks)
        self.engines: Dict[str, EdgeNN] = {}
        self.inputs: Dict[str, List[np.ndarray]] = {}
        self.order: List[int] = []

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        for network in self.networks:
            engine = EdgeNN(network)
            shape = engine.graph.input_shape
            self.inputs[network] = [
                rng.standard_normal(shape).astype(np.float32)
                for _ in range(INPUTS_PER_NETWORK)
            ]
            for k in range(WARMUP_FORWARDS):
                engine.infer(self.inputs[network][k])
            self.engines[network] = engine

    def op(self, index: int) -> OpResult:
        round_index, position = divmod(index, self.round_size)
        if position == 0:
            self.order = list(
                np.random.default_rng([self.seed, round_index]).permutation(
                    self.round_size
                )
            )
        network = self.networks[self.order[position]]
        x = self.inputs[network][round_index % INPUTS_PER_NETWORK]
        return network, 1, (network, self.engines[network].infer(x))

    def verify(self, output: object) -> bool:
        network, y = output
        return (
            tuple(y.shape) == self.engines[network].graph.output_shape
            and bool(np.all(np.isfinite(y)))
            and float(y.min()) >= 0.0
            and abs(float(y.sum()) - 1.0) < 1e-3
        )

    def check(self, expected: Optional[dict]) -> Tuple[List[str], Dict[str, object]]:
        errors: List[str] = []
        goldens = json.loads(LOGITS_GOLDEN.read_text())["logits"]
        for network, engine in self.engines.items():
            x = np.random.default_rng(0).standard_normal(
                engine.graph.input_shape
            ).astype(np.float32)
            if not logits_match(engine.infer(x), goldens[network]):
                errors.append(f"{network} logits differ from {LOGITS_GOLDEN.name}")
        return errors, {
            "networks": list(self.engines),
            "golden_logits_checked": len(self.engines),
        }


WORKLOADS = {
    cls.name: cls
    for cls in (ServeMixed, ServeOverload, ClusterFleet, CompileCatalog, NumpyInfer)
}
