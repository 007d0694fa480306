"""Deterministic parameter materialization.

The paper's benchmarks initialize weights host-side and measure inference
latency; values do not matter for timing, but our functional forward passes
need real arrays.  Parameters are generated lazily per layer from a stable
seed derived from ``(network_name, layer_name, param_name)`` so results are
reproducible across processes without storing checkpoints.

Large tensors are drawn in fixed-size float64 chunks straight into the
float32 result, so materializing a parameter costs its own bytes plus
one chunk rather than a full float64 copy (vgg16's ``fc6`` alone would
otherwise hold 822 MB of float64 beside its 411 MB result).
"""

from __future__ import annotations

import zlib
from typing import Dict, Mapping, Tuple

import numpy as np

#: Elements drawn per chunk by :func:`init_param` (512 KB of float64).
CHUNK = 64 * 1024


def _seed_for(*parts: str) -> int:
    """Stable 32-bit seed from string parts (crc32, platform independent)."""
    return zlib.crc32("/".join(parts).encode("utf-8")) & 0xFFFFFFFF


def init_param(shape: Tuple[int, ...], *seed_parts: str, scale: float | None = None) -> np.ndarray:
    """He-style initialization with a deterministic per-parameter seed.

    Bit-identical to ``rng.normal(0.0, scale, size=shape).astype(np.float32)``:
    ``normal`` draws ``loc + scale * z`` from the same standard-normal
    stream, so filling chunks with ``standard_normal`` and scaling them
    in float64 before the float32 cast reproduces every value.
    """
    rng = np.random.default_rng(_seed_for(*seed_parts))
    if scale is None:
        fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else int(shape[0])
        scale = float(np.sqrt(2.0 / max(1, fan_in)))
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    buf = np.empty(min(CHUNK, flat.size), dtype=np.float64)
    for start in range(0, flat.size, CHUNK):
        chunk = buf[: min(CHUNK, flat.size - start)]
        rng.standard_normal(out=chunk)
        chunk *= scale
        flat[start : start + chunk.size] = chunk
    return out


def materialize(
    network_name: str,
    layer_name: str,
    param_shapes: Mapping[str, Tuple[int, ...]],
) -> Dict[str, np.ndarray]:
    """Create all parameters of one layer.

    Bias-like parameters (1-D named ``bias``/``beta``/``mean``) start at
    zero; variance-like (``var``) at one; the rest use He init.
    """
    params: Dict[str, np.ndarray] = {}
    for pname, shape in param_shapes.items():
        if pname in ("bias", "beta", "mean"):
            params[pname] = np.zeros(shape, dtype=np.float32)
        elif pname == "var":
            params[pname] = np.ones(shape, dtype=np.float32)
        elif pname == "gamma":
            params[pname] = np.ones(shape, dtype=np.float32)
        else:
            params[pname] = init_param(shape, network_name, layer_name, pname)
    return params
