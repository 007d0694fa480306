"""fleet_catalog: coverage, device flags, priorities, validation."""

import pytest

from repro.compile import compile_baseline
from repro.errors import ReproError
from repro.hardware.variants import full_catalog, spec_by_name
from repro.nn.models import MODEL_BUILDERS
from repro.tuning import DEFAULT_BATCH_SIZES, fleet_catalog, key_for


def key_flags(key):
    return (
        key.use_memory_management,
        key.use_hybrid_execution,
        key.use_inter_kernel,
        key.use_intra_kernel,
    )


class TestDefaultCatalog:
    def test_covers_every_network_device_batch(self):
        jobs = fleet_catalog()
        expected = (
            len(MODEL_BUILDERS) * len(full_catalog()) * len(DEFAULT_BATCH_SIZES)
        )
        assert len(jobs) == expected
        assert len(jobs) >= 200  # the CI cold-start floor
        assert len({j.job_id for j in jobs}) == len(jobs)

    def test_modes_follow_device_shape(self):
        flags = {}
        for job in fleet_catalog():
            flags.setdefault(job.key.device, set()).add(key_flags(job.key))
        assert flags["raspberry-pi-4"] == {(False,) * 4}
        assert flags["rtx-2080ti-host"] == {(False,) * 4}
        assert flags["jetson-agx-xavier"] == {(True,) * 4}

    def test_adaptive_keys_enable_all_flags(self):
        for job in fleet_catalog():
            flags = key_flags(job.key)
            if spec_by_name(job.key.device).is_integrated:
                assert all(flags)
            else:
                assert not any(flags)

    def test_batch_one_is_hot(self):
        for job in fleet_catalog():
            if job.key.batch_size == 1:
                assert job.priority == 0
            else:
                assert job.priority == 1

    def test_sorted_hot_first(self):
        jobs = fleet_catalog()
        priorities = [j.priority for j in jobs]
        assert priorities == sorted(priorities)


class TestFilters:
    def test_subset(self):
        jobs = fleet_catalog(
            networks=["lenet"], devices=["raspberry-pi-4"], batch_sizes=(1, 2)
        )
        assert len(jobs) == 2
        assert all(not any(key_flags(j.key)) for j in jobs)

    def test_hot_networks_promoted(self):
        jobs = fleet_catalog(
            networks=["lenet", "alexnet"],
            devices=["raspberry-pi-4"],
            batch_sizes=(4,),
            hot=("alexnet",),
        )
        by_net = {j.key.network: j.priority for j in jobs}
        assert by_net == {"alexnet": 0, "lenet": 1}

    def test_unknown_network_rejected(self):
        with pytest.raises(ReproError):
            fleet_catalog(networks=["not-a-net"])

    def test_unknown_device_rejected(self):
        with pytest.raises(ReproError):
            fleet_catalog(devices=["not-a-device"])

    def test_bad_batch_rejected(self):
        with pytest.raises(ReproError):
            fleet_catalog(batch_sizes=(0,))


class TestKeyFor:
    def test_mode_for_matches_key_flags(self):
        for name, spec in full_catalog().items():
            key = key_for("lenet", spec, 1)
            assert key.device == name
            assert key.use_hybrid_execution == spec.is_integrated

    def test_baseline_plans_compile_to_their_keys(self):
        for spec in full_catalog().values():
            if spec.is_integrated:
                continue
            compiled = compile_baseline("lenet", spec, batch_size=2)
            assert compiled.key == key_for("lenet", spec, 2)
