"""Data-processing-semantics classification of inference buffers (§IV-B).

The paper's guideline: *"The effect of applying zero-copy is not always
positive and is determined by data processing semantics.  The memory should
be managed according to the semantics."*

Buffer naming convention used across the library:

* ``input``             — the network input tensor.
* ``<layer>.weights``   — a layer's parameters (one buffer per layer).
* ``<layer>.out``       — a layer's output activation.

Roles drive the memory manager's REGULAR/MANAGED choice:

* ``WEIGHTS`` / ``NETWORK_INPUT`` — written once host-side, then read-only:
  the ideal zero-copy case (eliminates the h2d parameter copies that
  dominate Fig 9).
* ``ACTIVATION`` — written by exactly one processor, read downstream;
  zero-copy safe, and it makes cross-processor handoffs free.
* ``COWRITTEN_OUTPUT`` — output of a split layer: both processors write
  slices in the same step.  Zero-copy would trigger the fine-grained
  consistency storm; the paper mandates two REGULAR copies + explicit merge.
* ``NETWORK_OUTPUT`` — read back by the host at the end.
"""

from __future__ import annotations

import enum
from typing import Dict

from ..nn.graph import NetworkGraph
from .plan import Assignment, ExecutionPlan


class BufferRole(enum.Enum):
    """Data-processing semantics of one buffer."""

    NETWORK_INPUT = "network_input"
    WEIGHTS = "weights"
    ACTIVATION = "activation"
    COWRITTEN_OUTPUT = "cowritten_output"
    NETWORK_OUTPUT = "network_output"


def input_buffer() -> str:
    """Name of the network-input buffer."""
    return "input"


def weights_buffer(layer: str) -> str:
    """Name of a layer's parameter buffer."""
    return f"{layer}.weights"


def output_buffer(layer: str) -> str:
    """Name of a layer's output buffer."""
    return f"{layer}.out"


def classify_buffers(graph: NetworkGraph, plan: ExecutionPlan) -> Dict[str, BufferRole]:
    """Assign a :class:`BufferRole` to every buffer of an inference run.

    The classification is *plan dependent*: the same layer output is a
    plain ``ACTIVATION`` under GPU-only execution but a
    ``COWRITTEN_OUTPUT`` when the plan splits the layer across processors —
    which is exactly why the paper's memory management must cooperate with
    its hybrid execution.
    """
    roles: Dict[str, BufferRole] = {input_buffer(): BufferRole.NETWORK_INPUT}
    output_layer = graph.output_name
    for name in graph.topo_order():
        node = graph.node(name)
        if node.param_bytes > 0:
            roles[weights_buffer(name)] = BufferRole.WEIGHTS
        if node.layer.is_noop:
            continue  # aliases its input; no buffer of its own
        layer_plan = plan.layer_plan(name)
        if layer_plan.assignment is Assignment.SPLIT:
            roles[output_buffer(name)] = BufferRole.COWRITTEN_OUTPUT
        elif name == output_layer:
            roles[output_buffer(name)] = BufferRole.NETWORK_OUTPUT
        else:
            roles[output_buffer(name)] = BufferRole.ACTIVATION
    return roles
