"""Graph → chain linearization (paper §5.1).

The paper uses "a classic linearization approach, also used for PipeDream
… to transform the computational graphs of these neural networks into
chains, by greedily grouping layers as necessary".

We implement it as a *single-crossing-edge* segmentation: walk a
topological order of the DAG and, after each prefix, count the edges from
processed to unprocessed nodes.  Whenever exactly one edge crosses, the
tensor on that edge is a serialization point of the network and a chain
boundary can be placed there.  Everything between two consecutive
boundaries (e.g. the body of a residual or Inception block) is greedily
grouped into one chain layer whose costs are the sums of its members and
whose output activation is the tensor on the crossing edge.
"""

from __future__ import annotations

from ..core.chain import Chain, LayerProfile
from .graph import ModelGraph

__all__ = ["linearize", "coarsen"]


def linearize(graph: ModelGraph, *, name: str | None = None) -> Chain:
    """Linearize a *profiled* graph (see ``profile_model``) into a chain.

    The chain's ``a[0]`` is the network input size; each chain layer
    aggregates ``u_f``/``u_b``/weights over its group and exposes the
    activation on the group's single outgoing tensor.
    """
    order = graph.topo_order()
    nodes = {n: graph.node_data(n) for n in order}
    if "u_f" not in nodes[order[-1]]:
        raise ValueError("graph must be profiled first (run profile_model)")

    # crossing = edges from the processed prefix to the rest; a chain
    # boundary exists when all crossing edges carry the SAME tensor, i.e.
    # originate from a single node.
    segments: list[tuple[list[str], str]] = []  # (members, boundary tensor node)
    current: list[str] = []
    crossing: set[tuple[str, str]] = set()
    for i, node in enumerate(order):
        crossing = {(u, v) for (u, v) in crossing if v != node}
        crossing |= {(node, v) for v in graph.successors(node)}
        current.append(node)
        sources = {u for (u, _v) in crossing}
        if len(sources) == 1:
            segments.append((current, next(iter(sources))))
            current = []
        elif i == len(order) - 1:
            segments.append((current, node))
            current = []
    if current:
        # no serialization point before the sink: fold the tail into the
        # last segment (cannot happen for single-sink DAGs, kept for safety)
        members, _ = segments.pop()
        segments.append((members + current, order[-1]))

    # The input node forms its own segment when it feeds a single layer;
    # it carries no compute and only defines a[0].
    first_members, first_boundary = segments[0]
    if len(first_members) == 1 and first_members[0] == graph.source:
        input_activation = nodes[first_boundary]["act_bytes"]
        segments = segments[1:]
    else:
        input_activation = nodes[graph.source]["act_bytes"]

    layers = []
    for members, boundary in segments:
        layers.append(
            LayerProfile(
                name=_segment_name(members),
                u_f=sum(nodes[m]["u_f"] for m in members),
                u_b=sum(nodes[m]["u_b"] for m in members),
                weights=sum(nodes[m]["weight_bytes"] for m in members),
                activation=nodes[boundary]["act_bytes"],
            )
        )
    return Chain(layers, input_activation, name=name or graph.name)


def _segment_name(members: list[str]) -> str:
    def short(n: str) -> str:
        return n.split(":", 1)[1]

    if len(members) == 1:
        return short(members[0])
    return f"{short(members[0])}..{short(members[-1])}[{len(members)}]"


def coarsen(chain: Chain, max_layers: int) -> Chain:
    """Greedily merge adjacent chain layers until ``L ≤ max_layers``.

    At each step the adjacent pair with the smallest combined compute cost
    is merged (the PipeDream-style "group as necessary" coarsening); the
    merged layer keeps the activation of its second member.
    """
    if max_layers < 1:
        raise ValueError("max_layers must be >= 1")
    layers = list(chain.layers)
    while len(layers) > max_layers:
        costs = [
            (layers[i].u_f + layers[i].u_b + layers[i + 1].u_f + layers[i + 1].u_b, i)
            for i in range(len(layers) - 1)
        ]
        _, i = min(costs)
        a, b = layers[i], layers[i + 1]
        layers[i : i + 2] = [
            LayerProfile(
                name=f"{a.name}+{b.name}",
                u_f=a.u_f + b.u_f,
                u_b=a.u_b + b.u_b,
                weights=a.weights + b.weights,
                activation=b.activation,
            )
        ]
    return Chain(layers, chain.input_activation, name=f"{chain.name}~{len(layers)}")
