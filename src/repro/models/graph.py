"""DNN computational graphs as DAGs of :class:`LayerSpec` nodes.

A :class:`ModelGraph` is a single-source, single-sink DAG built with a
small functional API::

    g = ModelGraph("toy")
    x = g.input((3, 224, 224))
    y = g.add_layer(Conv2d(64, 7, stride=2, padding=3), x)
    ...

After :meth:`propagate_shapes`, every node carries its output shape and
the analytic accounting (parameters, forward/backward FLOPs, memory
traffic) used by the cost model and the linearizer.
"""

from __future__ import annotations

from .layers import Input, LayerSpec, Shape

__all__ = ["ModelGraph"]


class ModelGraph:
    """A layered computational DAG with deterministic node ordering.

    Nodes live in plain dicts keyed by node id, in insertion order.  A
    layer may only consume nodes that already exist, so insertion order
    is a topological order and the graph cannot hold a cycle.
    """

    def __init__(self, name: str):
        self.name = name
        self._data: dict[str, dict] = {}
        self._preds: dict[str, tuple[str, ...]] = {}
        self._succs: dict[str, list[str]] = {}
        self._input: str | None = None
        self._shapes_ready = False

    # -- construction --------------------------------------------------------

    def input(self, shape: Shape, name: str = "input") -> str:
        """Declare the (single) network input."""
        if self._input is not None:
            raise ValueError("graph already has an input")
        node = self._new_node(Input(tuple(shape)), name, ())
        self._input = node
        return node

    def add_layer(self, spec: LayerSpec, *preds: str, name: str | None = None) -> str:
        """Append a layer consuming the outputs of ``preds``."""
        if not preds:
            raise ValueError("layer needs at least one predecessor")
        if spec.arity == 1 and len(preds) != 1:
            raise ValueError(f"{type(spec).__name__} takes exactly one input")
        for p in preds:
            if p not in self._data:
                raise KeyError(f"unknown predecessor {p!r}")
        node = self._new_node(spec, name or type(spec).__name__.lower(), preds)
        self._shapes_ready = False
        return node

    def _new_node(self, spec: LayerSpec, name: str, preds: tuple[str, ...]) -> str:
        node = f"{len(self._data):04d}:{name}"
        self._data[node] = {"spec": spec}
        self._preds[node] = preds
        self._succs[node] = []
        for p in preds:
            self._succs[p].append(node)
        return node

    # -- structure -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def topo_order(self) -> list[str]:
        """Topological order: the insertion order."""
        return list(self._data)

    def node_data(self, node: str) -> dict:
        """The node's attribute dict (``spec``; after profiling also the
        shape, FLOP and byte counts) — mutable, shared with the graph."""
        return self._data[node]

    def successors(self, node: str) -> list[str]:
        return list(self._succs[node])

    def edges(self) -> list[tuple[str, str]]:
        """Every ``(producer, consumer)`` pair, in consumer order."""
        return [(p, v) for v, preds in self._preds.items() for p in preds]

    @property
    def source(self) -> str:
        if self._input is None:
            raise ValueError("graph has no input")
        return self._input

    @property
    def sink(self) -> str:
        sinks = [n for n, succs in self._succs.items() if not succs]
        if len(sinks) != 1:
            raise ValueError(f"graph must have exactly one sink, found {sinks}")
        return sinks[0]

    def spec(self, node: str) -> LayerSpec:
        return self._data[node]["spec"]

    def predecessors_in_order(self, node: str) -> list[str]:
        return list(self._preds[node])

    # -- analysis -----------------------------------------------------------------

    def propagate_shapes(self) -> None:
        """Fill per-node ``shape``/``params``/``fwd_flops``/``bwd_flops``/
        ``mem_traffic`` attributes by a topological sweep."""
        if self._input is None:
            raise ValueError("graph has no input")
        for node, data in self._data.items():
            spec: LayerSpec = data["spec"]
            in_shapes = tuple(self._data[p]["shape"] for p in self._preds[node])
            data["shape"] = spec.out_shape(*in_shapes)
            data["params"] = spec.param_count(*in_shapes)
            data["fwd_flops"] = spec.fwd_flops(*in_shapes)
            data["bwd_flops"] = spec.bwd_flops(*in_shapes)
            data["mem_traffic"] = spec.mem_traffic(*in_shapes) if in_shapes else 0.0
        self._shapes_ready = True

    def _require_shapes(self) -> None:
        if not self._shapes_ready:
            self.propagate_shapes()

    def shape(self, node: str) -> Shape:
        self._require_shapes()
        return self._data[node]["shape"]

    def total_params(self) -> int:
        self._require_shapes()
        return sum(data["params"] for data in self._data.values())

    def total_fwd_flops(self) -> float:
        self._require_shapes()
        return sum(data["fwd_flops"] for data in self._data.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ModelGraph({self.name!r}, nodes={len(self)})"
