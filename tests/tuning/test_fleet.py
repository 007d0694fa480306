"""TuneFleet: fault-tolerant drain of a catalog into a plan store."""

import pytest

from repro.compile import CompiledPlan
from repro.faults import FLAKY_FLEET, FaultScenario
from repro.hardware.variants import spec_by_name
from repro.obs import NOOP_OBS
from repro.serving.simulator import ServiceTimeModel, warm_service_time
from repro.store.plan_store import PlanStore
from repro.tuning import TuneFleet, fleet_catalog, run_fleet

JETSON_SUBSET = dict(
    networks=["lenet", "squeezenet"],
    devices=["jetson-agx-xavier", "raspberry-pi-4"],
    batch_sizes=(1, 2),
)


def subset_jobs():
    return fleet_catalog(**JETSON_SUBSET)


class TestQuietFleet:
    def test_all_plans_land_exactly_once(self, tmp_path):
        jobs = subset_jobs()
        report = run_fleet(tmp_path / "store", jobs, workers=2, seed=0)
        assert report.completed == len(jobs)
        assert report.poisoned == 0
        assert report.attempts == len(jobs)

        store = PlanStore(tmp_path / "store")
        for job in jobs:
            assert store.contains(job.key)
        assert len(list(store.objects_dir.glob("*.json"))) == len(jobs)

    def test_warm_rerun_is_noop(self, tmp_path):
        jobs = subset_jobs()
        run_fleet(tmp_path / "store", jobs, workers=2, seed=0)
        again = run_fleet(tmp_path / "store", jobs, workers=2, seed=0)
        assert again.completed == len(jobs)
        assert again.attempts == 0

    def test_store_round_trips_artifacts(self, tmp_path):
        jobs = subset_jobs()
        run_fleet(tmp_path / "store", jobs, workers=2, seed=0)
        store = PlanStore(tmp_path / "store")
        for job in jobs:
            artifact = store.get(job.key)
            assert artifact is not None
            result = artifact.to_tuning_result()
            assert result.source == "artifact"
            assert result.rounds == []  # zero tuner rounds on reload

    def test_stored_plans_replay_to_fleet_service_times(self, tmp_path):
        jobs = fleet_catalog(
            networks=["lenet", "alexnet"],
            devices=["raspberry-pi-4", "dimensity-8100", "rtx-2080ti-host"],
            batch_sizes=(1, 8),
        )
        run_fleet(tmp_path / "store", jobs, workers=2, seed=0)
        store = PlanStore(tmp_path / "store")
        for job in jobs:
            key = job.key
            replayed = warm_service_time(
                CompiledPlan.from_artifact(store.get(key)), NOOP_OBS
            )
            model = ServiceTimeModel(spec_by_name(key.device))
            assert replayed == model.warm(key.network, key.batch_size), (
                job.job_id
            )


class Interrupted(Exception):
    """Stands in for a coordinator killed mid-run."""


class TestResume:
    def test_rerun_resumes_from_the_store(self, tmp_path, monkeypatch):
        jobs = subset_jobs()
        cold = run_fleet(tmp_path / "cold", jobs, workers=2, seed=0)
        settle = TuneFleet._settle
        settled = []

        def dies_after_three(self, *args):
            settle(self, *args)
            settled.append(args[1].job_id)
            if len(settled) == 3:
                raise Interrupted

        monkeypatch.setattr(TuneFleet, "_settle", dies_after_three)
        with pytest.raises(Interrupted):
            run_fleet(tmp_path / "store", jobs, workers=2, seed=0)
        monkeypatch.undo()

        resumed = run_fleet(tmp_path / "store", jobs, workers=2, seed=0)
        assert resumed.completed == len(jobs)
        assert resumed.attempts == len(jobs) - 3
        assert resumed.manifest_digest == cold.manifest_digest
        assert (tmp_path / "store" / "manifest.json").read_bytes() == (
            tmp_path / "cold" / "manifest.json"
        ).read_bytes()
        assert not (tmp_path / "store" / "queue.json").exists()


class TestFlakyFleet:
    def test_crashes_and_corruption_recovered(self, tmp_path):
        jobs = subset_jobs()
        report = run_fleet(
            tmp_path / "store", jobs, workers=4, seed=3,
            scenario=FLAKY_FLEET,
        )
        assert report.completed == len(jobs)
        assert report.poisoned == 0
        # seed 3 on this subset provokes real faults; every one must
        # have been retried into a good final state.
        assert report.attempts > len(jobs)
        assert report.worker_crashes + report.corrupt_ingests > 0

        store = PlanStore(tmp_path / "store")
        for job in jobs:
            assert store.get(job.key) is not None

    def test_same_seed_same_manifest(self, tmp_path):
        jobs = subset_jobs()
        digests = []
        for run in ("a", "b"):
            report = run_fleet(
                tmp_path / run, jobs, workers=4, seed=0,
                scenario=FLAKY_FLEET,
            )
            digests.append(report.manifest_digest)
        assert digests[0] == digests[1]
        text_a = (tmp_path / "a" / "manifest.json").read_bytes()
        text_b = (tmp_path / "b" / "manifest.json").read_bytes()
        assert text_a == text_b

    def test_different_seed_different_fault_history(self, tmp_path):
        jobs = subset_jobs()
        reports = [
            run_fleet(
                tmp_path / str(seed), jobs, workers=2, seed=seed,
                scenario=FLAKY_FLEET,
            )
            for seed in (0, 1)
        ]
        # Manifests agree (content-addressed plans are seed-free) even
        # though the fault history differs.
        assert reports[0].manifest_digest == reports[1].manifest_digest

    def test_always_crash_poisons_everything(self, tmp_path):
        jobs = fleet_catalog(
            networks=["lenet"], devices=["raspberry-pi-4"], batch_sizes=(1,)
        )
        doomed = FaultScenario(name="doomed", worker_crash_p=1.0)
        report = run_fleet(
            tmp_path / "store", jobs, workers=1, seed=0, scenario=doomed,
        )
        assert report.completed == 0
        assert report.poisoned == len(jobs)
        assert report.poisoned_jobs[0]["failures"]
        # No torn tmp files survive the run.
        store = PlanStore(tmp_path / "store")
        assert list(store.objects_dir.glob("*.tmp")) == []
