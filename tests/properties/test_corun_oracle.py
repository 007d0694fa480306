"""Oracle for the two-stream co-run solve the executor prices splits with.

:func:`corun_pair` must be :func:`corun_finish_times` of the same
two jobs exactly (``==``): it performs the same float operations in the
same event loop.  :meth:`Device.split_bodies` must likewise equal the
object path it replaces: scale both sides' work, quote their launch-free
roofline costs, and solve the two jobs with the n-stream solver.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.hardware import calibration as cal
from repro.hardware.contention import (
    StreamJob,
    corun_finish_times,
    corun_pair,
)
from repro.hardware.device import Device
from repro.hardware.roofline import KernelWork, kernel_cost
from repro.hardware.specs import JETSON_AGX_XAVIER, RTX_2080TI_HOST
from repro.hardware.variants import spec_by_name

compute = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
traffic = st.one_of(
    st.just(0.0),   # a side that moves nothing
    st.floats(min_value=1.0, max_value=1e10, allow_nan=False),
)
rate = st.floats(min_value=1e3, max_value=1e12, allow_nan=False)
bandwidth = st.floats(min_value=1.0, max_value=1e12, allow_nan=False)
efficiency = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)


def reference(cpu, gpu, dram_bw, corun_efficiency):
    jobs = [StreamJob(*cpu), StreamJob(*gpu)]
    return tuple(corun_finish_times(jobs, dram_bw * corun_efficiency))


@given(
    cpu=st.tuples(compute, traffic, rate),
    gpu=st.tuples(compute, traffic, rate),
    dram_bw=bandwidth,
    corun_efficiency=efficiency,
)
@example(cpu=(0.0, 0.0, 1e9), gpu=(0.1, 1e9, 2e9),
         dram_bw=2e9, corun_efficiency=1.0)          # zero-byte side
@example(cpu=(0.0, 1e9, 2e9), gpu=(0.0, 1e9, 2e9),
         dram_bw=2e9, corun_efficiency=1.0)          # equal rates
@example(cpu=(0.0, 1e8, 3e9), gpu=(0.0, 2e9, 4e8),
         dram_bw=2e9, corun_efficiency=1.0)          # one cap above fair share
@example(cpu=(0.0, 0.0, 1e9), gpu=(0.0, 0.0, 1e9),
         dram_bw=2e9, corun_efficiency=1.0)          # nothing streams
@settings(max_examples=400, deadline=None)
def test_pair_solve_equals_the_n_stream_solver(
    cpu, gpu, dram_bw, corun_efficiency,
):
    assert corun_pair(
        *cpu, *gpu, dram_bw, corun_efficiency=corun_efficiency,
    ) == reference(cpu, gpu, dram_bw, corun_efficiency)


@given(
    share=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    above=st.floats(min_value=0.5, max_value=4.0, exclude_min=True),
    cpu_bytes=st.floats(min_value=1.0, max_value=1e10),
    gpu_bytes=st.floats(min_value=1.0, max_value=1e10),
    dram_bw=bandwidth,
    equal=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_pair_solve_with_caps_around_the_fair_share(
    share, above, cpu_bytes, gpu_bytes, dram_bw, equal,
):
    """One cap above half the bandwidth and the other below it, or (with
    ``equal``) both at one rate: every branch of the two-stream fill."""
    cpu = (0.0, cpu_bytes, dram_bw * above)
    gpu = (0.0, gpu_bytes, cpu[2] if equal else max(1e-3, dram_bw * share / 2))
    assert corun_pair(*cpu, *gpu, dram_bw) == reference(cpu, gpu, dram_bw, 1.0)


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except ReproError as exc:
        return type(exc), str(exc)


def object_path(device, cpu_work, gpu_work, p, f_cpu, f_gpu):
    """What the executor computed with per-call objects: scaled work,
    launch-free costs, stream jobs and the n-stream solver."""
    spec = device.spec
    cpu_cost = kernel_cost(spec, spec.cpu, cpu_work.scaled(p),
                           mem_bw_factor=f_cpu, include_launch=False)
    gpu_cost = kernel_cost(spec, spec.gpu, gpu_work.scaled(1.0 - p),
                           mem_bw_factor=f_gpu, include_launch=False)
    if not spec.is_integrated:
        return cpu_cost.body_s, gpu_cost.body_s
    jobs = [
        StreamJob(cost.compute_s, cost.bytes_moved,
                  cost.demand_bw if cost.bytes_moved else 1.0)
        for cost in (cpu_cost, gpu_cost)
    ]
    cpu_s, gpu_s = corun_finish_times(
        jobs, spec.memory.bandwidth * spec.corun_dram_efficiency,
    )
    return cpu_s * cal.CORUN_CPU_SLOWDOWN, gpu_s * cal.CORUN_GPU_SLOWDOWN


amount = st.one_of(
    st.just(0.0), st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
)
works = st.builds(
    KernelWork,
    kernel_class=st.sampled_from(cal.KERNEL_CLASSES),
    flops=st.floats(min_value=0.0, max_value=1e11, allow_nan=False),
    act_in_bytes=amount,
    weight_bytes=amount,
    out_bytes=amount,
    out_elements=st.floats(min_value=0.5, max_value=1e7, allow_nan=False),
)
devices = st.sampled_from([
    JETSON_AGX_XAVIER, spec_by_name("amd-ryzen-apu"), RTX_2080TI_HOST,
])


@given(
    spec=devices,
    cpu_work=works,
    gpu_work=works,
    fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                       exclude_max=True),
    f_cpu=st.sampled_from([1.0, cal.MANAGED_CPU_BW_FACTOR]),
    f_gpu=st.floats(min_value=0.3, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_split_bodies_equal_the_object_path(
    spec, cpu_work, gpu_work, fraction, f_cpu, f_gpu,
):
    """Equal results, or the same error: a side whose bytes underflow
    its body time to zero has no solo rate, which a job refuses."""
    device = Device(spec)
    assert outcome(
        device.split_bodies, cpu_work, gpu_work, fraction,
        cpu_bw_factor=f_cpu, gpu_bw_factor=f_gpu,
    ) == outcome(object_path, device, cpu_work, gpu_work, fraction, f_cpu, f_gpu)
