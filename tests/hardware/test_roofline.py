"""Roofline kernel cost model."""

import pytest

from repro.errors import SpecError
from repro.hardware.roofline import KernelCost, KernelWork, kernel_cost, occupancy_factor
from repro.hardware.specs import JETSON_AGX_XAVIER

SPEC = JETSON_AGX_XAVIER


def conv_work(flops=1e9, out_elements=1e6):
    return KernelWork(
        kernel_class="conv",
        flops=flops,
        act_in_bytes=1e6,
        weight_bytes=2e6,
        out_bytes=4e6,
        out_elements=out_elements,
    )


class TestKernelWork:
    def test_total_bytes(self):
        w = conv_work()
        assert w.total_bytes == 7e6

    def test_arithmetic_intensity(self):
        w = conv_work(flops=7e6)
        assert w.arithmetic_intensity == pytest.approx(1.0)

    def test_zero_byte_intensity_is_infinite(self):
        w = KernelWork("conv", flops=10, act_in_bytes=0, weight_bytes=0,
                       out_bytes=0, out_elements=1)
        assert w.arithmetic_intensity == float("inf")

    def test_rejects_negative_terms(self):
        with pytest.raises(SpecError):
            KernelWork("conv", flops=-1, act_in_bytes=0, weight_bytes=0,
                       out_bytes=0)
        with pytest.raises(SpecError):
            KernelWork("conv", flops=0, act_in_bytes=0, weight_bytes=0,
                       out_bytes=0, out_elements=0)

    def test_scaled_divides_flops_weights_outputs(self):
        w = conv_work()
        half = w.scaled(0.5)
        assert half.flops == w.flops * 0.5
        assert half.weight_bytes == w.weight_bytes * 0.5
        assert half.out_bytes == w.out_bytes * 0.5
        assert half.out_elements == w.out_elements * 0.5

    def test_scaled_keeps_full_activation_reads(self):
        # Both sides of a split read the whole input feature map.
        w = conv_work()
        assert w.scaled(0.3).act_in_bytes == w.act_in_bytes

    def test_scaled_rejects_out_of_range(self):
        with pytest.raises(SpecError):
            conv_work().scaled(1.5)

    def test_scaled_zero_keeps_positive_elements(self):
        assert conv_work().scaled(0.0).out_elements >= 1.0


class TestOccupancy:
    def test_cpu_has_no_ramp(self):
        assert occupancy_factor(SPEC.cpu, conv_work(out_elements=1)) == 1.0

    def test_gpu_saturated_at_large_outputs(self):
        assert occupancy_factor(SPEC.gpu, conv_work(out_elements=1e7)) == 1.0

    def test_gpu_ramp_below_saturation(self):
        sat = SPEC.gpu.saturation_elements["conv"]
        factor = occupancy_factor(SPEC.gpu, conv_work(out_elements=sat / 2))
        assert factor == pytest.approx(0.5)

    def test_gpu_ramp_floor(self):
        factor = occupancy_factor(SPEC.gpu, conv_work(out_elements=1))
        assert factor == pytest.approx(0.01)

    def test_unknown_class_has_no_ramp(self):
        work = KernelWork("conv", 1, 1, 1, 1, out_elements=1)
        object.__setattr__(work, "kernel_class", "conv")
        # classes absent from the saturation table pass through unscaled;
        # simulate by a processor without a table:
        assert occupancy_factor(SPEC.cpu, work) == 1.0


class TestKernelCost:
    def test_compute_bound_kernel(self):
        # Enormous FLOPs, tiny bytes => compute bound.
        w = conv_work(flops=1e12)
        cost = kernel_cost(SPEC, SPEC.gpu, w)
        assert not cost.is_memory_bound
        assert cost.body_s == cost.compute_s

    def test_memory_bound_kernel(self):
        w = KernelWork("pool", flops=1e3, act_in_bytes=1e8, weight_bytes=0,
                       out_bytes=1e8, out_elements=1e8)
        cost = kernel_cost(SPEC, SPEC.gpu, w)
        assert cost.is_memory_bound
        assert cost.body_s == cost.memory_s

    def test_launch_overhead_included_by_default(self):
        w = conv_work()
        with_launch = kernel_cost(SPEC, SPEC.gpu, w)
        without = kernel_cost(SPEC, SPEC.gpu, w, include_launch=False)
        assert with_launch.total_s == pytest.approx(
            without.total_s + SPEC.gpu.launch_overhead_s
        )

    def test_mem_bw_factor_slows_memory_time(self):
        w = KernelWork("pool", flops=0, act_in_bytes=1e8, weight_bytes=0,
                       out_bytes=0, out_elements=1e8)
        fast = kernel_cost(SPEC, SPEC.gpu, w)
        slow = kernel_cost(SPEC, SPEC.gpu, w, mem_bw_factor=0.5)
        assert slow.memory_s == pytest.approx(fast.memory_s * 2.0)

    def test_rejects_nonpositive_bw_factor(self):
        with pytest.raises(SpecError):
            kernel_cost(SPEC, SPEC.gpu, conv_work(), mem_bw_factor=0.0)

    def test_demand_bw(self):
        w = KernelWork("pool", flops=0, act_in_bytes=1e8, weight_bytes=0,
                       out_bytes=0, out_elements=1e8)
        cost = kernel_cost(SPEC, SPEC.gpu, w, include_launch=False)
        assert cost.demand_bw == pytest.approx(w.total_bytes / cost.body_s)

    def test_zero_work_kernel(self):
        cost = KernelCost(compute_s=0.0, memory_s=0.0, launch_s=0.0,
                          bytes_moved=0.0)
        assert cost.total_s == 0.0
        assert cost.demand_bw == 0.0

    def test_gpu_faster_than_cpu_on_big_conv(self):
        w = conv_work(flops=1e10, out_elements=1e6)
        gpu = kernel_cost(SPEC, SPEC.gpu, w)
        cpu = kernel_cost(SPEC, SPEC.cpu, w)
        assert gpu.total_s < cpu.total_s

    def test_cpu_competitive_on_small_kernels(self):
        # Tiny conv: the GPU occupancy ramp + launch overhead hand the
        # advantage to the CPU (the LeNet regime of Table I).
        w = conv_work(flops=3e5, out_elements=500)
        gpu = kernel_cost(SPEC, SPEC.gpu, w)
        cpu = kernel_cost(SPEC, SPEC.cpu, w)
        assert cpu.total_s < gpu.total_s
