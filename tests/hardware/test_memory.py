"""Buffer and allocation model: regular vs managed (zero-copy)."""

import pytest

from repro.errors import AllocationError, MemoryModelError
from repro.hardware import calibration as cal
from repro.hardware.copy_engine import CopyDirection
from repro.hardware.memory import AllocKind, Buffer, MemoryModel, footprint
from repro.hardware.specs import (
    JETSON_AGX_XAVIER,
    RASPBERRY_PI_4,
    ProcessorKind,
)

CPU = ProcessorKind.CPU
GPU = ProcessorKind.GPU


@pytest.fixture
def mem():
    return MemoryModel(JETSON_AGX_XAVIER)


class TestAllocation:
    def test_regular_counts_twice(self, mem):
        mem.allocate("a", 100.0, AllocKind.REGULAR)
        assert mem.allocated_bytes == 200.0

    def test_managed_counts_once(self, mem):
        mem.allocate("a", 100.0, AllocKind.MANAGED)
        assert mem.allocated_bytes == 100.0

    def test_duplicate_name_rejected(self, mem):
        mem.allocate("a", 1.0, AllocKind.MANAGED)
        with pytest.raises(AllocationError):
            mem.allocate("a", 1.0, AllocKind.MANAGED)

    def test_capacity_enforced(self, mem):
        with pytest.raises(AllocationError, match="capacity"):
            mem.allocate("big", 64e9, AllocKind.MANAGED)

    def test_managed_rejected_on_non_integrated(self):
        rpi = MemoryModel(RASPBERRY_PI_4)
        with pytest.raises(MemoryModelError, match="non-integrated"):
            rpi.allocate("a", 1.0, AllocKind.MANAGED)

    def test_unknown_buffer(self, mem):
        with pytest.raises(MemoryModelError):
            mem.get("nope")


SET = (("a", 0.1, AllocKind.REGULAR), ("b", 3.3, AllocKind.MANAGED),
       ("c", 7.7, AllocKind.REGULAR))


class TestAdopt:
    """``adopt`` accounts a buffer set as one ``allocate`` per buffer in
    order would."""

    def test_accounts_like_allocate(self, mem):
        expected = MemoryModel(JETSON_AGX_XAVIER)
        total = 0.0
        for name, nbytes, kind in SET:
            expected.allocate(name, nbytes, kind)
            total += footprint(nbytes, kind)
        bufs = [Buffer(name, nbytes, kind) for name, nbytes, kind in SET]
        mem.adopt(bufs, total)
        assert mem.allocated_bytes == expected.allocated_bytes
        assert mem.buffers == bufs
        assert mem.get("b") is bufs[1]

    def test_checks_each_buffer_in_a_used_model(self, mem):
        mem.allocate("b", 1.0, AllocKind.MANAGED)
        bufs = [Buffer(name, nbytes, kind) for name, nbytes, kind in SET]
        with pytest.raises(AllocationError, match="'b' already allocated"):
            mem.adopt(bufs, 1.0)
        assert mem.allocated_bytes == 1.0 + footprint(0.1, AllocKind.REGULAR)

    def test_refuses_what_allocate_refuses(self):
        rpi = MemoryModel(RASPBERRY_PI_4)
        bufs = [Buffer(name, nbytes, kind) for name, nbytes, kind in SET]
        with pytest.raises(MemoryModelError, match="'b' on non-integrated"):
            rpi.adopt(bufs, 0.0)

    def test_reset_restores_a_new_buffer(self):
        buf = Buffer("a", 1.0, AllocKind.REGULAR)
        buf.host_valid = False
        buf.device_valid = buf.gpu_touched = True
        buf.cpu_wrote = buf.gpu_wrote = True
        buf.reset(AllocKind.MANAGED)
        assert buf == Buffer("a", 1.0, AllocKind.MANAGED)


class TestRegularBufferProtocol:
    def test_fresh_buffer_is_host_valid(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.REGULAR)
        assert buf.host_valid and not buf.device_valid

    def test_gpu_read_triggers_h2d(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.REGULAR)
        cost = mem.read_cost(buf, GPU, "conv")
        assert len(cost.transfers) == 1
        assert cost.transfers[0].direction is CopyDirection.H2D
        assert cost.bw_factor == 1.0

    def test_second_gpu_read_is_free(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.REGULAR)
        mem.read_cost(buf, GPU, "conv")
        cost = mem.read_cost(buf, GPU, "conv")
        assert cost.transfers == ()

    def test_cpu_read_of_host_valid_is_free(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.REGULAR)
        assert mem.read_cost(buf, CPU, "conv").transfers == ()

    def test_gpu_write_invalidates_host(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.REGULAR)
        mem.write_cost(buf, GPU, "conv")
        assert buf.device_valid and not buf.host_valid
        cost = mem.read_cost(buf, CPU, "conv")
        assert len(cost.transfers) == 1
        assert cost.transfers[0].direction is CopyDirection.D2H

    def test_cowrite_keeps_both_copies(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.REGULAR)
        mem.write_cost(buf, GPU, "conv")
        mem.write_cost(buf, CPU, "conv")
        assert buf.device_valid and buf.host_valid

    def test_regular_cowrite_has_no_consistency_penalty(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.REGULAR)
        mem.write_cost(buf, GPU, "conv")
        mem.write_cost(buf, CPU, "conv")
        assert mem.cowrite_penalty(buf) == 0.0


class TestManagedBufferProtocol:
    def test_no_transfers_either_way(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.MANAGED)
        assert mem.read_cost(buf, GPU, "conv").transfers == ()
        assert mem.read_cost(buf, CPU, "conv").transfers == ()

    def test_gpu_first_touch_cost_once(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.MANAGED)
        first = mem.read_cost(buf, GPU, "conv")
        second = mem.read_cost(buf, GPU, "conv")
        assert first.overhead_s > 0
        assert second.overhead_s == 0.0

    def test_cpu_touch_has_no_page_cost(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.MANAGED)
        assert mem.read_cost(buf, CPU, "conv").overhead_s == 0.0

    def test_gpu_bandwidth_factor_per_kernel_class(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.MANAGED)
        pool = mem.read_cost(buf, GPU, "pool").bw_factor
        conv = mem.read_cost(buf, GPU, "conv").bw_factor
        assert pool == cal.MANAGED_GPU_BW_FACTORS["pool"]
        assert conv == cal.MANAGED_GPU_BW_FACTORS["conv"]
        # Scattered pooling access suffers more than streaming convolution
        # (this is what makes AlexNet's pools slower with zero-copy, Fig 10).
        assert pool < conv

    def test_cpu_bandwidth_factor(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.MANAGED)
        assert mem.read_cost(buf, CPU, "pool").bw_factor == cal.MANAGED_CPU_BW_FACTOR

    def test_managed_cowrite_penalty(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.MANAGED)
        mem.write_cost(buf, GPU, "conv")
        mem.write_cost(buf, CPU, "conv")
        penalty = mem.cowrite_penalty(buf)
        assert penalty == pytest.approx(
            1e6 * cal.MANAGED_COWRITE_PENALTY_S_PER_BYTE
        )

    def test_single_writer_has_no_penalty(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.MANAGED)
        mem.write_cost(buf, GPU, "conv")
        assert mem.cowrite_penalty(buf) == 0.0

    def test_penalty_resets_writer_set(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.MANAGED)
        mem.write_cost(buf, GPU, "conv")
        mem.write_cost(buf, CPU, "conv")
        mem.cowrite_penalty(buf)
        mem.write_cost(buf, GPU, "conv")
        assert mem.cowrite_penalty(buf) == 0.0

    def test_managed_cowrite_dearer_than_explicit_merge(self, mem):
        """The paper's §IV-B claim: two REGULAR copies + merge are
        substantially cheaper than zero-copy consistency on co-written
        arrays."""
        nbytes = 1e6
        buf = mem.allocate("a", nbytes, AllocKind.MANAGED)
        mem.write_cost(buf, GPU, "conv")
        mem.write_cost(buf, CPU, "conv")
        penalty = mem.cowrite_penalty(buf)
        merge_cost = (
            cal.INTEGRATED_COPY_LATENCY_S + nbytes / cal.INTEGRATED_COPY_RATE
        )
        assert penalty > merge_cost


class TestMergeAndStaging:
    def test_merge_transfer_copies_cpu_slice(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.REGULAR)
        transfer = mem.merge_transfer(buf, 0.25)
        assert transfer is not None
        assert transfer.nbytes == pytest.approx(2.5e5)
        assert transfer.direction is CopyDirection.H2D
        assert buf.device_valid

    def test_merge_noop_for_managed(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.MANAGED)
        assert mem.merge_transfer(buf, 0.5) is None

    def test_merge_noop_for_zero_fraction(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.REGULAR)
        assert mem.merge_transfer(buf, 0.0) is None

    def test_merge_rejects_bad_fraction(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.REGULAR)
        with pytest.raises(MemoryModelError):
            mem.merge_transfer(buf, 1.5)

    def test_stage_out_invalidates_device_copy(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.REGULAR)
        mem.write_cost(buf, GPU, "conv")
        transfer = mem.stage_out(buf)
        assert transfer is not None
        assert transfer.direction is CopyDirection.D2H
        assert buf.host_valid and not buf.device_valid

    def test_stage_out_noop_for_managed(self, mem):
        buf = mem.allocate("a", 1e6, AllocKind.MANAGED)
        assert mem.stage_out(buf) is None
