"""CPU-only baselines (the edge CPUs of Fig 6)."""

import pytest

from repro.baselines import run_cpu_only
from repro.core.plan import Assignment
from repro.hardware.specs import (
    DIMENSITY_8100,
    JETSON_AGX_XAVIER,
    RASPBERRY_PI_4,
)


class TestCpuOnly:
    @pytest.mark.parametrize(
        "spec", [JETSON_AGX_XAVIER, RASPBERRY_PI_4, DIMENSITY_8100],
        ids=lambda s: s.name,
    )
    def test_runs_on_every_cpu_platform(self, chain_net, spec):
        report = run_cpu_only(chain_net, spec)
        assert report.total_s > 0
        assert report.gpu_busy_s == 0.0

    def test_no_copies_ever(self, chain_net):
        report = run_cpu_only(chain_net, RASPBERRY_PI_4)
        assert report.copy_s_total == 0.0

    def test_every_layer_on_cpu(self, chain_net):
        report = run_cpu_only(chain_net, JETSON_AGX_XAVIER)
        for lr in report.layers:
            assert lr.assignment is Assignment.CPU
            assert lr.kernel_gpu_s == 0.0

    def test_platform_speed_ordering(self):
        # Paper Fig 6 implies: phone CPU > Jetson CPU > Raspberry Pi.
        lenet = "alexnet"
        jetson = run_cpu_only(lenet, JETSON_AGX_XAVIER).total_s
        phone = run_cpu_only(lenet, DIMENSITY_8100).total_s
        rpi = run_cpu_only(lenet, RASPBERRY_PI_4).total_s
        assert phone < jetson < rpi

    def test_power_stays_within_rpi_envelope(self, chain_net):
        report = run_cpu_only(chain_net, RASPBERRY_PI_4)
        assert report.energy.average_power_w <= 6.4 + 1e-9  # paper ref [11]
