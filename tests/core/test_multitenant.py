"""Multi-DNN concurrent inference."""

import pytest

from repro.core.engine import EdgeNN
from repro.core.multitenant import (
    MultiTenantReport,
    concurrent_edgenn,
    run_concurrent,
)
from repro.errors import ReproError
from repro.hardware.specs import JETSON_AGX_XAVIER

from ..conftest import make_branch_net, make_chain_net


def tuned_job(net):
    engine = EdgeNN(net)
    return engine.graph, engine.plan


class TestRunConcurrent:
    def test_two_tenants_complete(self):
        jobs = [tuned_job(make_chain_net("tenant-a")),
                tuned_job(make_branch_net("tenant-b"))]
        report = run_concurrent(JETSON_AGX_XAVIER, jobs)
        assert isinstance(report, MultiTenantReport)
        assert len(report.tenants) == 2
        for tenant in report.tenants:
            assert tenant.completion_s > 0

    def test_rejects_empty_job_list(self):
        with pytest.raises(ReproError):
            run_concurrent(JETSON_AGX_XAVIER, [])

    def test_makespan_covers_all_completions(self):
        jobs = [tuned_job(make_chain_net("mk-a")),
                tuned_job(make_chain_net("mk-b"))]
        report = run_concurrent(JETSON_AGX_XAVIER, jobs)
        for tenant in report.tenants:
            assert tenant.completion_s <= report.makespan_s + 1e-12

    def test_corun_beats_sequential(self):
        # Two networks time-sharing the device finish sooner than running
        # them back-to-back (they overlap on different resources).
        jobs = [tuned_job(make_chain_net("sq-a")),
                tuned_job(make_branch_net("sq-b"))]
        report = run_concurrent(JETSON_AGX_XAVIER, jobs)
        assert report.makespan_s < report.sequential_s
        assert report.makespan_saving_pct > 0

    def test_each_tenant_slows_down_under_sharing(self):
        jobs = [tuned_job(make_chain_net("sl-a")),
                tuned_job(make_chain_net("sl-b"))]
        report = run_concurrent(JETSON_AGX_XAVIER, jobs)
        for tenant in report.tenants:
            assert tenant.slowdown >= 0.999   # never faster than solo

    def test_tenant_lookup(self):
        jobs = [tuned_job(make_chain_net("look-a"))]
        report = run_concurrent(JETSON_AGX_XAVIER, jobs)
        assert report.tenant("look-a").report.network == "look-a"
        with pytest.raises(ReproError):
            report.tenant("ghost")

    def test_single_tenant_matches_solo_run(self):
        net = make_chain_net("solo-net")
        graph, plan = tuned_job(net)
        report = run_concurrent(JETSON_AGX_XAVIER, [(graph, plan)])
        tenant = report.tenants[0]
        assert tenant.completion_s == pytest.approx(tenant.solo_s, rel=1e-6)

    def test_buffers_are_namespaced_not_colliding(self):
        # Same network name twice: allocations must not collide.
        jobs = [tuned_job(make_chain_net("dup")),
                tuned_job(make_chain_net("dup"))]
        report = run_concurrent(JETSON_AGX_XAVIER, jobs)
        assert len(report.tenants) == 2


class TestConcurrentEdgeNN:
    def test_end_to_end_on_paper_networks(self):
        report = concurrent_edgenn(["lenet", "squeezenet"])
        assert {t.report.network for t in report.tenants} == {
            "lenet", "squeezenet"
        }
        assert report.makespan_s > 0
        assert report.energy.energy_j > 0

    def test_energy_accounted_at_device_level(self):
        report = concurrent_edgenn(["lenet", "lenet"])
        spec = JETSON_AGX_XAVIER.power
        assert (spec.idle_w
                <= report.energy.average_power_w
                <= spec.idle_w + spec.cpu_dynamic_w + spec.gpu_dynamic_w)
