"""Runtime device wrapper."""

import pytest

from repro.errors import SpecError
from repro.hardware import calibration as cal
from repro.hardware.memory import AllocKind
from repro.hardware.roofline import KernelWork
from repro.hardware.specs import ProcessorKind


def work(kernel_class="conv", flops=1e9, nbytes=1e7, out_elements=1e6):
    return KernelWork(kernel_class, flops, nbytes / 2, nbytes / 4, nbytes / 4,
                      out_elements=out_elements)


class TestDeviceStructure:
    def test_jetson_properties(self, jetson):
        assert jetson.name == "jetson-agx-xavier"
        assert jetson.is_integrated
        assert jetson.has_gpu

    def test_processor_lookup(self, jetson):
        assert jetson.processor(ProcessorKind.CPU).kind is ProcessorKind.CPU
        assert jetson.processor(ProcessorKind.GPU).kind is ProcessorKind.GPU

    def test_cpu_only_device_has_no_gpu(self, rpi):
        with pytest.raises(SpecError):
            rpi.processor(ProcessorKind.GPU)

    def test_cpu_only_device_has_no_copy_engine(self, rpi):
        assert rpi.copy_engine is None
        with pytest.raises(SpecError):
            rpi.copy_rate()

    def test_copy_rate_matches_interconnect(self, jetson):
        assert jetson.copy_rate() == cal.INTEGRATED_COPY_RATE


class TestReset:
    def test_reset_clears_memory_and_copy_stats(self, jetson):
        jetson.memory.allocate("a", 1e6, AllocKind.MANAGED)
        jetson.copy_engine.total_bytes = 123.0
        jetson.reset()
        assert jetson.memory.allocated_bytes == 0.0
        assert jetson.copy_engine.total_bytes == 0.0


class TestKernelCostDelegation:
    def test_gpu_cost_uses_gpu_spec(self, jetson):
        w = work()
        gpu = jetson.kernel_cost(ProcessorKind.GPU, w)
        cpu = jetson.kernel_cost(ProcessorKind.CPU, w)
        assert gpu.total_s != cpu.total_s

    def test_mem_bw_factor_passthrough(self, jetson):
        w = work("pool", flops=0.0, nbytes=1e8, out_elements=1e8)
        fast = jetson.kernel_cost(ProcessorKind.GPU, w)
        slow = jetson.kernel_cost(ProcessorKind.GPU, w, mem_bw_factor=0.5)
        assert slow.memory_s > fast.memory_s


class TestCorun:
    def test_discrete_device_no_contention(self, dgpu_host):
        w = work("pool", flops=0.0, nbytes=1e8, out_elements=1e8)
        cpu_cost = dgpu_host.kernel_cost(ProcessorKind.CPU, w, include_launch=False)
        gpu_cost = dgpu_host.kernel_cost(ProcessorKind.GPU, w, include_launch=False)
        cpu_s, gpu_s = dgpu_host.corun(cpu_cost, gpu_cost)
        assert cpu_s == pytest.approx(cpu_cost.body_s)
        assert gpu_s == pytest.approx(gpu_cost.body_s)

    def test_integrated_corun_slower_than_solo(self, jetson):
        w = work("pool", flops=0.0, nbytes=2e8, out_elements=1e8)
        cpu_cost = jetson.kernel_cost(ProcessorKind.CPU, w, include_launch=False)
        gpu_cost = jetson.kernel_cost(ProcessorKind.GPU, w, include_launch=False)
        cpu_s, gpu_s = jetson.corun(cpu_cost, gpu_cost)
        # Arbitration/interference slowdowns apply on top of sharing.
        assert cpu_s >= cpu_cost.body_s * cal.CORUN_CPU_SLOWDOWN - 1e-12
        assert gpu_s >= gpu_cost.body_s * cal.CORUN_GPU_SLOWDOWN - 1e-12

    def test_corun_slowdown_factors_applied(self, jetson):
        # Compute-bound jobs see exactly the interference factors (no
        # bandwidth pressure).
        w = work("conv", flops=1e10, nbytes=1e3, out_elements=1e6)
        cpu_cost = jetson.kernel_cost(ProcessorKind.CPU, w, include_launch=False)
        gpu_cost = jetson.kernel_cost(ProcessorKind.GPU, w, include_launch=False)
        cpu_s, gpu_s = jetson.corun(cpu_cost, gpu_cost)
        assert cpu_s == pytest.approx(cpu_cost.body_s * cal.CORUN_CPU_SLOWDOWN)
        assert gpu_s == pytest.approx(gpu_cost.body_s * cal.CORUN_GPU_SLOWDOWN)
