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
from typing import Dict, List

from ..nn.graph import INPUT, NetworkGraph
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


class GraphBuffers:
    """Every buffer of one graph's inference run, walked once per graph
    (:func:`graph_buffers`): its role under a plan that splits nothing,
    its base (fp32, batch-1) byte size, and each layer's output buffer.
    A plan changes only the roles of its split layers' outputs."""

    def __init__(self, graph: NetworkGraph) -> None:
        #: buffer -> role, in allocation order (the plan's ``alloc`` order)
        self.roles: Dict[str, BufferRole] = {
            input_buffer(): BufferRole.NETWORK_INPUT
        }
        #: buffer -> base byte size, in the same order
        self.sizes: Dict[str, float] = {
            input_buffer(): float(graph.out_bytes(INPUT))
        }
        #: layer -> its output buffer; no-op layers alias their input
        self.outputs: Dict[str, str] = {}
        output_layer = graph.output_name
        for name in graph.topo_order():
            node = graph.node(name)
            if node.param_bytes > 0:
                self.roles[weights_buffer(name)] = BufferRole.WEIGHTS
                self.sizes[weights_buffer(name)] = float(node.param_bytes)
            if node.layer.is_noop:
                continue  # aliases its input; no buffer of its own
            out = self.outputs[name] = output_buffer(name)
            self.roles[out] = (
                BufferRole.NETWORK_OUTPUT if name == output_layer
                else BufferRole.ACTIVATION
            )
            self.sizes[out] = node.work.out_bytes

    def split_outputs(self, plan: ExecutionPlan) -> List[str]:
        """The output buffers of ``plan``'s split layers, which both
        processors write (``COWRITTEN_OUTPUT``).  Raises
        :class:`~repro.errors.PlanError` when the plan misses a layer
        that owns a buffer."""
        layers = plan.layers
        if not layers.keys() >= self.outputs.keys():
            for name in self.outputs:
                plan.layer_plan(name)  # raises for the first missing one
        outputs = self.outputs
        return [
            outputs[name] for name, lp in layers.items()
            if lp.assignment is Assignment.SPLIT and name in outputs
        ]


def graph_buffers(graph: NetworkGraph) -> GraphBuffers:
    """The graph's :class:`GraphBuffers`, built on first use and kept on
    the graph."""
    return graph.derived(("buffers",), lambda: GraphBuffers(graph))


def classify_buffers(graph: NetworkGraph, plan: ExecutionPlan) -> Dict[str, BufferRole]:
    """Assign a :class:`BufferRole` to every buffer of an inference run.

    The classification is *plan dependent*: the same layer output is a
    plain ``ACTIVATION`` under GPU-only execution but a
    ``COWRITTEN_OUTPUT`` when the plan splits the layer across processors —
    which is exactly why the paper's memory management must cooperate with
    its hybrid execution.
    """
    buffers = graph_buffers(graph)
    roles = dict(buffers.roles)
    for out in buffers.split_outputs(plan):
        roles[out] = BufferRole.COWRITTEN_OUTPUT
    return roles
