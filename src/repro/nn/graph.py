"""Network DAG.

The paper's tuner "divides the network into layers and builds a directed
acyclic graph (DAG) whose nodes represent layers and edges represent the
execution sequences of layers" (§IV-A).  :class:`NetworkGraph` is that DAG,
plus:

* shape inference and validation at construction time,
* per-layer :class:`~repro.hardware.roofline.KernelWork` accounting,
* a reference NumPy forward pass,
* **segmentation** into chain parts and branch (non-chain) parts — the
  structure EdgeNN's scheduler reasons about (Figure 5): chains are
  candidates for intra-kernel CPU/GPU splits, parallel branches for
  inter-kernel assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, TypeVar,
)

import numpy as np

from .. import units
from ..errors import GraphError, ReproError, ShapeError
from ..hardware.roofline import KernelWork
from . import tensor, weights
from .layer import Layer, Shape

#: Name of the pseudo-node feeding the first layer.
INPUT = "input"

_T = TypeVar("_T")


@dataclass
class Node:
    """One layer instance bound into a graph, with resolved shapes and
    the static cost terms those shapes fix (computed once, at ``add``)."""

    layer: Layer
    input_names: Tuple[str, ...]
    in_shapes: Tuple[Shape, ...]
    out_shape: Shape
    work: KernelWork
    param_bytes: int
    successors: List[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.layer.name

    @property
    def in_degree(self) -> int:
        return len(self.input_names)

    @property
    def out_degree(self) -> int:
        return len(self.successors)


@dataclass(frozen=True)
class ChainSegment:
    """A maximal single-path run of layers: must execute in sequence, so the
    only co-running opportunity is intra-kernel partitioning of each layer."""

    layers: Tuple[str, ...]


@dataclass(frozen=True)
class BranchSegment:
    """Parallel independent chains between a fork and its join layer.

    ``branches`` may contain an empty tuple — an identity shortcut
    (ResNet).  ``join`` is the layer where the branches reconverge
    (``concat`` / ``add``); it executes after all branches synchronize.
    """

    branches: Tuple[Tuple[str, ...], ...]
    join: str


Segment = ChainSegment | BranchSegment


class NetworkGraph:
    """A validated layer DAG for one neural network."""

    def __init__(self, name: str, input_shape: Sequence[int]) -> None:
        if not name:
            raise GraphError("network name cannot be empty")
        self.name = name
        self.input_shape: Shape = tensor.validate_shape(input_shape)
        self._input_bytes = tensor.nbytes(self.input_shape)
        self._nodes: Dict[str, Node] = {}
        self._order: List[str] = []       # insertion order == topological
        self._last_added: Optional[str] = None
        # Derived from the whole DAG; add() drops them.
        self._params: Optional[Dict[str, Dict[str, np.ndarray]]] = None
        self._segments: Optional[List[Segment]] = None
        self._output_name: Optional[str] = None
        self._derived: Dict[Hashable, object] = {}

    # -- construction ----------------------------------------------------------

    def add(self, layer: Layer, inputs: Optional[Iterable[str]] = None) -> str:
        """Add a layer.

        ``inputs`` defaults to the previously added layer (or the network
        input for the first layer) so linear networks read naturally.
        Returns the layer name.
        """
        name = layer.name
        if name == INPUT:
            raise GraphError(f"layer may not be named {INPUT!r}")
        if name in self._nodes:
            raise GraphError(f"duplicate layer name {name!r}")
        if inputs is None:
            inputs = (self._last_added if self._last_added is not None else INPUT,)
        input_names = tuple(inputs)
        if not input_names:
            raise GraphError(f"layer {name!r} has no inputs")
        shapes: List[Shape] = []
        for src in input_names:
            if src == INPUT:
                shapes.append(self.input_shape)
            elif src in self._nodes:
                shapes.append(self._nodes[src].out_shape)
            else:
                raise GraphError(
                    f"layer {name!r} depends on unknown layer {src!r} "
                    "(layers must be added in topological order)"
                )
        out_shape = layer.infer_shape(shapes)
        tensor.validate_shape(out_shape)
        in_shapes = tuple(shapes)
        node = Node(
            layer=layer,
            input_names=input_names,
            in_shapes=in_shapes,
            out_shape=out_shape,
            work=layer.work(in_shapes, out_shape),
            param_bytes=layer.param_bytes(in_shapes),
        )
        self._nodes[name] = node
        for src in input_names:
            if src != INPUT:
                self._nodes[src].successors.append(name)
        self._order.append(name)
        self._last_added = name
        self._params = self._segments = self._output_name = None
        self._derived = {}
        return name

    # -- structure --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError as exc:
            raise GraphError(f"unknown layer {name!r}") from exc

    def topo_order(self) -> List[str]:
        """Layer names in a valid execution order."""
        return list(self._order)

    @property
    def output_name(self) -> str:
        """The unique sink layer."""
        if self._output_name is None:
            sinks = [n for n in self._order if self._nodes[n].out_degree == 0]
            if len(sinks) != 1:
                raise GraphError(
                    f"network {self.name!r} must have exactly one output, "
                    f"found {sinks}"
                )
            self._output_name = sinks[0]
        return self._output_name

    @property
    def output_shape(self) -> Shape:
        return self.node(self.output_name).out_shape

    def work(self, name: str) -> KernelWork:
        """Kernel work of one layer."""
        return self.node(name).work

    def out_bytes(self, name: str) -> int:
        """Output bytes of one layer (the paper's ``v_o``); ``INPUT``
        gives the network input's bytes."""
        if name == INPUT:
            return self._input_bytes
        return int(self.node(name).work.out_bytes)

    def total_param_bytes(self) -> int:
        """Total parameter bytes of the network."""
        return sum(self._nodes[n].param_bytes for n in self._order)

    def total_flops(self) -> float:
        """Total forward-pass FLOPs."""
        return sum(self.work(n).flops for n in self._order)

    def layers_of_class(self, kernel_class: str) -> List[str]:
        """Layer names whose roofline class matches (e.g. 'conv', 'dense')."""
        return [
            n for n in self._order
            if self._nodes[n].layer.kernel_class == kernel_class
        ]

    def derived(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """The value ``build()`` derives from the whole DAG, built on the
        first call per ``key`` and kept until ``add()`` changes the DAG
        (the executor keeps its run tables here)."""
        try:
            return self._derived[key]  # type: ignore[return-value]
        except KeyError:
            value = self._derived[key] = build()
            return value

    # -- segmentation -------------------------------------------------------------

    def segments(self) -> List[Segment]:
        """Partition the DAG into chain and branch segments (Figure 5).

        Supports fork-join regions whose branches are simple chains (fire
        modules, residual blocks).  Nested forks raise :class:`GraphError`.
        """
        if self._segments is not None:
            return list(self._segments)
        first = self._first_layer()
        segments: List[Segment] = []
        chain: List[str] = []
        cur: Optional[str] = first
        while cur is not None:
            node = self._nodes[cur]
            chain.append(cur)
            if node.out_degree == 0:
                break
            if node.out_degree == 1:
                cur = node.successors[0]
                continue
            # Fork: flush the chain (including the fork layer) and walk
            # each branch to the common join.
            segments.append(ChainSegment(tuple(chain)))
            chain = []
            branches, join = self._walk_branches(cur)
            segments.append(BranchSegment(branches=branches, join=join))
            cur = join
        if chain:
            segments.append(ChainSegment(tuple(chain)))
        covered = sum(
            len(s.layers) if isinstance(s, ChainSegment)
            else sum(len(b) for b in s.branches)
            for s in segments
        )
        if covered != len(self._nodes):
            raise GraphError(
                f"segmentation covered {covered} of {len(self._nodes)} layers; "
                "the DAG has structure beyond chain/fork-join"
            )
        self._segments = segments
        return list(segments)

    def _first_layer(self) -> str:
        roots = [n for n in self._order if self._nodes[n].input_names == (INPUT,)]
        if len(roots) != 1:
            raise GraphError(
                f"network {self.name!r} must have exactly one entry layer, "
                f"found {roots}"
            )
        return roots[0]

    def _walk_branches(
        self, fork: str
    ) -> Tuple[Tuple[Tuple[str, ...], ...], str]:
        branches: List[Tuple[str, ...]] = []
        join: Optional[str] = None
        for succ in self._nodes[fork].successors:
            branch: List[str] = []
            cur = succ
            while self._nodes[cur].in_degree == 1:
                node = self._nodes[cur]
                if node.out_degree != 1:
                    raise GraphError(
                        f"branch from {fork!r} has nested fork or dead end "
                        f"at {cur!r}"
                    )
                branch.append(cur)
                cur = node.successors[0]
            if join is None:
                join = cur
            elif join != cur:
                raise GraphError(
                    f"branches from {fork!r} reconverge at different layers "
                    f"({join!r} vs {cur!r})"
                )
            branches.append(tuple(branch))
        assert join is not None
        return tuple(branches), join

    def verify_dataflow(self) -> List[str]:
        """Statically re-verify the DAG's dataflow invariants.

        Construction already validates incrementally; this re-walks the
        finished graph — the check the static analyzer runs over every
        catalog model without executing anything.  Returns a list of
        problem descriptions (empty when the graph is sound): every
        layer's inputs must be produced by a predecessor (or the network
        input), recorded input shapes must match the producer's output
        shape, the recorded output shape must equal what the layer
        infers from those inputs today, and the stored work and parameter
        bytes must equal what the layer computes from those shapes.
        """
        problems: List[str] = []
        seen: set = {INPUT}
        for name in self._order:
            node = self._nodes[name]
            for src, shape in zip(node.input_names, node.in_shapes):
                if src not in seen:
                    problems.append(
                        f"layer {name!r} consumes {src!r} before it is "
                        f"produced (or from outside the graph)"
                    )
                    continue
                produced = (
                    self.input_shape if src == INPUT
                    else self._nodes[src].out_shape
                )
                if shape != produced:
                    problems.append(
                        f"layer {name!r} records input shape {shape} from "
                        f"{src!r}, which produces {produced}"
                    )
            try:
                inferred = node.layer.infer_shape(list(node.in_shapes))
            except ReproError as exc:
                problems.append(f"layer {name!r} fails shape inference: {exc}")
            else:
                if tuple(inferred) != node.out_shape:
                    problems.append(
                        f"layer {name!r} declares output {node.out_shape} "
                        f"but infers {tuple(inferred)}"
                    )
                work = node.layer.work(node.in_shapes, node.out_shape)
                if node.work != work:
                    problems.append(
                        f"layer {name!r} stores work {node.work} but its "
                        f"shapes give {work}"
                    )
                param_bytes = node.layer.param_bytes(node.in_shapes)
                if node.param_bytes != param_bytes:
                    problems.append(
                        f"layer {name!r} stores {node.param_bytes} parameter "
                        f"bytes but its shapes give {param_bytes}"
                    )
            seen.add(name)
        try:
            self.output_name
        except GraphError as exc:
            problems.append(str(exc))
        return problems

    # -- numerics -------------------------------------------------------------------

    def materialize_params(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Deterministic parameters for every layer (a fresh copy)."""
        return {
            name: weights.materialize(
                self.name, name, node.layer.param_shapes(node.in_shapes)
            )
            for name, node in self._nodes.items()
        }

    def forward(
        self,
        x: np.ndarray,
        params: Optional[Dict[str, Dict[str, np.ndarray]]] = None,
    ) -> np.ndarray:
        """Reference forward pass; validates the input shape.

        Without ``params`` the graph's own parameters are used: they are
        materialized on the first such call and kept for the graph's
        lifetime (adding a layer discards them).  Each activation is
        dropped as soon as its last consumer has run, so the pass holds
        only the live frontier of the DAG rather than every layer's
        output.  ``x`` itself is never written to.
        """
        if tuple(x.shape) != self.input_shape:
            raise ShapeError(
                f"input shape {x.shape} != network input {self.input_shape}"
            )
        if params is None:
            if self._params is None:
                self._params = self.materialize_params()
            params = self._params
        pending: Dict[str, int] = {
            name: node.out_degree for name, node in self._nodes.items()
        }
        pending[INPUT] = sum(
            node.input_names.count(INPUT) for node in self._nodes.values()
        )
        values: Dict[str, np.ndarray] = {INPUT: x.astype(np.float32, copy=False)}
        for name in self._order:
            node = self._nodes[name]
            inputs = [values[src] for src in node.input_names]
            out = node.layer.forward(inputs, params.get(name, {}))
            if tuple(out.shape) != node.out_shape:
                raise ShapeError(
                    f"layer {name!r} produced {out.shape}, "
                    f"declared {node.out_shape}"
                )
            del inputs  # would keep dead inputs alive through the next layer
            for src in node.input_names:
                pending[src] -= 1
                if not pending[src]:
                    del values[src]
            values[name] = out
        return values[self.output_name]

    def summary(self) -> str:
        """Human-readable per-layer table."""
        lines = [f"{self.name} (input {self.input_shape})"]
        for name in self._order:
            node = self._nodes[name]
            work = self.work(name)
            lines.append(
                f"  {name:<16} {type(node.layer).__name__:<12} "
                f"out={node.out_shape!s:<18} "
                f"flops={work.flops / units.MEGA:9.2f}M "
                f"params={work.weight_bytes / units.MB:8.3f}MB"
            )
        return "\n".join(lines)
