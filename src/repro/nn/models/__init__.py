"""Builders for the six paper benchmark networks (Section V-A) plus
extension models (MobileNetV1)."""

import functools
from typing import Callable, Dict, List

from ..graph import NetworkGraph
from .alexnet import build_alexnet
from .fcnn import build_fcnn
from .lenet import build_lenet
from .mobilenet import build_mobilenet_v1
from .resnet import build_resnet18
from .squeezenet import build_squeezenet
from .vgg import build_vgg16

#: The paper's benchmark suite, in the order its figures use.
BENCHMARK_BUILDERS: Dict[str, Callable[[], NetworkGraph]] = {
    "fcnn": build_fcnn,
    "lenet": build_lenet,
    "alexnet": build_alexnet,
    "vgg16": build_vgg16,
    "squeezenet": build_squeezenet,
    "resnet18": build_resnet18,
}

#: All buildable networks: the paper suite plus extensions.
MODEL_BUILDERS: Dict[str, Callable[[], NetworkGraph]] = {
    **BENCHMARK_BUILDERS,
    "mobilenet-v1": build_mobilenet_v1,
}


def benchmark_names() -> List[str]:
    """The paper's benchmark network names, in paper order (extensions
    such as mobilenet-v1 are buildable via :func:`build` but excluded
    from the reproduced experiments)."""
    return list(BENCHMARK_BUILDERS)


def build(name: str) -> NetworkGraph:
    """Build any registered network by name: a new, frozen graph."""
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown network {name!r}; available: {sorted(MODEL_BUILDERS)}"
        ) from exc
    return builder().freeze()


@functools.cache
def shared(name: str) -> NetworkGraph:
    """The process's one graph of a registered network, built on first
    use.  It is frozen and keeps no parameters, so every compile in the
    process can run on it, and the run tables and buffer roles derived
    on it carry over from one compile to the next (a tuning-fleet
    worker keeps them across its jobs).  ``shared.cache_clear()`` starts
    a fresh registry."""
    return build(name)


__all__ = [
    "BENCHMARK_BUILDERS",
    "MODEL_BUILDERS",
    "benchmark_names",
    "build",
    "build_alexnet",
    "build_fcnn",
    "build_lenet",
    "build_mobilenet_v1",
    "build_resnet18",
    "build_squeezenet",
    "build_vgg16",
    "shared",
]
