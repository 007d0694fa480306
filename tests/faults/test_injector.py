"""FaultInjector determinism: same seed => same timeline, cross-stream
independence, and artifact corruption helper."""

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile.artifact import PlanArtifact
from repro.compile.pipeline import compile_key
from repro.core.plan_cache import PlanCache, PlanKey
from repro.core.engine import EdgeNN, EdgeNNConfig
from repro.faults import (
    BAD_PAYLOADS,
    CORRUPT_ARTIFACTS,
    EDGE_STORM,
    FLAKY_KERNELS,
    FaultInjector,
    FaultScenario,
    corrupt_artifacts,
)
from repro.faults.resilience import _unit_draw
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.obs import Observability
from repro.store.plan_store import PlanStore


def _drain(injector, n=64):
    """Consume n draws from every stream and return the event list."""
    for i in range(n):
        injector.kernel_fails(i * 0.1, detail=f"batch-{i}")
        injector.payload_corrupt(i * 0.1, request_id=i)
        injector.artifact_corrupt(path=f"plan-{i}.json", now=i * 0.1)
    return injector.events


class TestPrefixDraws:
    """Each stream hashes its ``"{seed}:{stream}:"`` prefix once; every
    draw must still equal the from-scratch ``_unit_draw``."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(min_value=-(2**63), max_value=2**64),
        stream=st.sampled_from(("kernel", "payload", "artifact")),
        index=st.one_of(
            st.sampled_from((0, 9, 10, 99, 100)),
            st.integers(min_value=0, max_value=2**80),
        ),
    )
    def test_prefix_draw_equals_unit_draw(self, seed, stream, index):
        injector = FaultInjector(EDGE_STORM, seed=seed)
        digest = hashlib.sha256(f"{seed}:{stream}:{index}".encode()).digest()
        reference = int.from_bytes(digest[:8], "big") / 2.0**64
        assert injector._draw(stream, index) == reference
        assert _unit_draw(seed, stream, index) == reference

    def test_stream_decisions_follow_unit_draws(self):
        p = 0.3
        scenario = FaultScenario(
            name="draws", kernel_failure_p=p, payload_corrupt_p=p,
            artifact_corrupt_p=p,
        )
        injector = FaultInjector(scenario, seed=11)
        for i in range(200):
            assert injector.kernel_fails(0.0) == (
                _unit_draw(11, "kernel", i) < p
            )
            assert injector.payload_corrupt(0.0, request_id=i) == (
                _unit_draw(11, "payload", i) < p
            )
            assert injector.artifact_corrupt(path="x") == (
                _unit_draw(11, "artifact", i) < p
            )


class TestDeterminism:
    def test_same_seed_same_timeline(self):
        a = FaultInjector(EDGE_STORM, seed=42)
        b = FaultInjector(EDGE_STORM, seed=42)
        assert _drain(a) == _drain(b)
        assert a.timeline_digest() == b.timeline_digest()

    def test_different_seed_differs(self):
        a = FaultInjector(FLAKY_KERNELS, seed=1)
        b = FaultInjector(FLAKY_KERNELS, seed=2)
        _drain(a), _drain(b)
        assert a.timeline_digest() != b.timeline_digest()

    def test_digest_is_stable_hex(self):
        injector = FaultInjector(FLAKY_KERNELS, seed=0)
        _drain(injector)
        digest = injector.timeline_digest()
        assert len(digest) == 64
        int(digest, 16)  # valid hex
        # Digest is over the events, not the object identity.
        assert digest == injector.timeline_digest()

    def test_streams_are_independent(self):
        """Consuming payload draws must not perturb kernel draws."""
        plain = FaultInjector(EDGE_STORM, seed=7)
        kernel_only = [
            plain.kernel_fails(i * 0.1) for i in range(32)
        ]
        mixed = FaultInjector(EDGE_STORM, seed=7)
        interleaved = []
        for i in range(32):
            mixed.payload_corrupt(i * 0.1, request_id=i)
            interleaved.append(mixed.kernel_fails(i * 0.1))
        assert kernel_only == interleaved

    def test_fault_rate_tracks_probability(self):
        injector = FaultInjector(FLAKY_KERNELS, seed=0)
        fails = sum(injector.kernel_fails(0.0) for _ in range(2000))
        assert 0.15 < fails / 2000 < 0.35  # p = 0.25

    def test_quiet_scenario_never_fires(self):
        injector = FaultInjector(FaultScenario(name="quiet"), seed=0)
        assert not any(
            injector.kernel_fails(0.0) for _ in range(100)
        )
        assert injector.events == []


class TestWindows:
    def test_throttle_and_pressure_queries(self):
        injector = FaultInjector(EDGE_STORM, seed=0)
        assert injector.throttle_at(5.0) is not None
        assert injector.throttle_at(0.5) is None
        assert injector.memory_pressure_at(8.0)
        assert not injector.memory_pressure_at(1.0)

    def test_window_edge_events_recorded(self):
        injector = FaultInjector(EDGE_STORM, seed=0)
        window = EDGE_STORM.thermal[0]
        injector.note_thermal_enter(window.start_s, window)
        injector.note_thermal_exit(window.end_s, window)
        kinds = [e["kind"] for e in injector.events]
        assert kinds == ["thermal_enter", "thermal_exit"]


class TestObsMirror:
    def test_events_recorded_to_obs(self):
        obs = Observability.on()
        injector = FaultInjector(BAD_PAYLOADS, seed=0, obs=obs)
        for i in range(200):
            injector.payload_corrupt(0.0, request_id=i)
        assert injector.events  # p=0.08 over 200 draws fires w.h.p.
        spans = [
            s for s in obs.tracer.iter_spans() if s.category == "fault"
        ]
        assert len(spans) == len(injector.events)


class TestCorruptArtifacts:
    def _write_artifact(self, directory):
        """Put one tuned lenet plan into a store at ``directory``;
        returns (store, key, object path)."""
        engine = EdgeNN("lenet", JETSON_AGX_XAVIER, EdgeNNConfig())
        result = engine.tune()
        key = PlanKey.from_config(
            "lenet", JETSON_AGX_XAVIER.name, engine.config
        )
        store = PlanStore(directory)
        entry = store.put(PlanArtifact.from_tuning(key, result))
        return store, key, store.object_path(entry.sha256)

    def test_truncates_files_and_cache_survives(self, tmp_path):
        store, key, path = self._write_artifact(tmp_path)
        victims = corrupt_artifacts(
            store.objects_dir, scenario=CORRUPT_ARTIFACTS, seed=0
        )
        assert victims == [path]
        # The file is now torn JSON...
        try:
            json.loads(path.read_text())
            torn = False
        except json.JSONDecodeError:
            torn = True
        assert torn
        # ...and the hardened cache treats it as a miss, not a crash.
        cache = PlanCache(store=PlanStore(tmp_path))
        fresh = compile_key(key, JETSON_AGX_XAVIER).artifact
        out = cache.get_or_tune(key, lambda: fresh)
        assert out is fresh
        assert cache.corrupt_loads == 1
        assert cache.misses == 1

    def test_zero_probability_leaves_files_alone(self, tmp_path):
        store, _, path = self._write_artifact(tmp_path)
        before = path.read_text()
        victims = corrupt_artifacts(
            store.objects_dir, scenario=FaultScenario(name="quiet"), seed=0
        )
        assert victims == []
        assert path.read_text() == before
