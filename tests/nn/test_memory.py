"""Transient-memory bounds of NumPy inference.

``tracemalloc`` sees NumPy's data allocations, so each test measures the
peak a call adds on top of what was already allocated before it.
"""

import tracemalloc

import numpy as np

from repro.nn import weights
from repro.nn.graph import NetworkGraph
from repro.nn.layers import Conv2D, ReLU

MB = 2**20


def traced_peak(fn, *args):
    """``(fn(*args), peak bytes allocated while it ran)``."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base


def test_init_param_peaks_near_its_own_bytes():
    # rng.normal + astype held the float64 draw beside the float32 copy:
    # three times the result's bytes.  A first call pays NumPy's lazy
    # imports, which are not the function's own transient.
    weights.init_param((2,), "m", "l", "w")
    out, peak = traced_peak(weights.init_param, (1024, 4096), "m", "l", "w")
    assert peak <= out.nbytes + 1 * MB


def test_large_conv_transient_is_output_plus_padded_input(rng):
    # vgg16's conv1_2: the whole im2col matrix alone would be 115 MB.
    layer = Conv2D("conv1_2", out_channels=64, kernel_size=3, padding=1)
    x = rng.standard_normal((64, 224, 224)).astype(np.float32)
    params = weights.materialize(
        "m", "conv1_2", layer.param_shapes([x.shape])
    )
    out, peak = traced_peak(layer.forward, [x], params)
    padded = 64 * 226 * 226 * 4
    assert out.shape == (64, 224, 224)
    assert peak <= out.nbytes + padded + 4 * MB


def conv_chain(depth: int) -> NetworkGraph:
    net = NetworkGraph(f"chain-{depth}", (8, 64, 64))
    for i in range(depth):
        net.add(Conv2D(f"conv{i}", out_channels=8, kernel_size=3, padding=1))
        net.add(ReLU(f"relu{i}"))
    return net


def test_forward_peak_does_not_grow_with_depth(rng):
    # Each activation is 128 KB; keeping them all would add about 4 MB
    # at depth 16.
    peaks = []
    for depth in (2, 16):
        net = conv_chain(depth)
        params = net.materialize_params()
        x = rng.standard_normal(net.input_shape).astype(np.float32)
        _, peak = traced_peak(net.forward, x, params)
        peaks.append(peak)
    activation = 8 * 64 * 64 * 4
    assert peaks[1] <= peaks[0] + activation // 2
