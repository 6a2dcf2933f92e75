"""Digest pins of the model zoo's linearized chains.

Every zoo network is built, profiled on the V100 device model at batch
size 8 and linearized; the chain's ``(u_f, u_b, weights, a)`` arrays are
hashed bit for bit (``float64`` bytes).  The paper networks and ``gpt24``
go through :func:`repro.experiments.scenarios.paper_chain`, exactly as
the planners receive them.  A case moves when any bit of any array
moves — graph storage, node ordering, shape propagation, the cost model
or the linearizer.

The test also checks that :meth:`ModelGraph.topo_order` is the insertion
order (node ids carry a zero-padded insertion counter) and that every
edge points forward in it.

Regenerate only when a change is meant to move the chains; this prints
the new ``PINS`` entries::

    PYTHONPATH=src python tests/test_model_zoo_pin.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.chain import Chain
from repro.experiments.scenarios import network_builders, paper_chain
from repro.models import linearize, mobilenet_v1, transformer_encoder, unet, vgg16
from repro.profiling import V100, profile_model

BATCH = 8

# the zoo networks beyond the paper's four
EXTRA_BUILDERS = {
    "vgg16": vgg16,
    "mobilenet_v1": mobilenet_v1,
    "unet": unet,
    "transformer_encoder": transformer_encoder,
}
BUILDERS = {**network_builders(), **EXTRA_BUILDERS}

PINS = {
    "densenet121": "f329604a92fca154a9c79cf800c54b1dab085e30f9c9506026dcdd87ebe5c258",
    "gpt24": "b11cdc5d5fae84e32cfb90e31b11c95ac06ba1c09ef542fefa4635f591c2aabf",
    "inception": "c8ec8dd0a5990fdb05643e93aa47121b19fab6e174c77bfdadcf4d3296060c33",
    "mobilenet_v1": "bfef209ef3a6056d5cee7eb9c66be8399898d3ec8348e77a42788525483497ca",
    "resnet101": "0167fe76a6f710d7d6e7510ab7384154ecaed2e732bddcbe8a88a94568beffd9",
    "resnet50": "73732c907b48565453f789232e078f7b8d038c0b582fc4e34f0d1d9ee079a9ea",
    "transformer_encoder": "17b20684fffb302aafbded8462880f79177a9d4ff2c9d8e948bfd895560a3955",
    "unet": "8c758d8872524078098fe41b9c76cdf6f1345e26758f04e099fe24d20a5dd693",
    "vgg16": "c875be238376b76601dfdc94dc891935cf4167e3831fa7f3033721f144b91330",
}


def _chain(name: str) -> Chain:
    if name in EXTRA_BUILDERS:
        graph = EXTRA_BUILDERS[name]()
        profile_model(graph, V100, BATCH)
        return linearize(graph)
    return paper_chain(name, batch_size=BATCH)


def _digest(chain: Chain) -> str:
    layers = chain.layers
    arrays = (
        [l.u_f for l in layers],
        [l.u_b for l in layers],
        [l.weights for l in layers],
        [chain.input_activation] + [l.activation for l in layers],
    )
    h = hashlib.sha256()
    for values in arrays:
        h.update(np.asarray(values, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_chain_digest(name):
    assert _digest(_chain(name)) == PINS[name]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_topo_order_is_insertion_order(name):
    graph = BUILDERS[name]()
    order = graph.topo_order()
    assert order == sorted(order, key=lambda n: int(n.split(":", 1)[0]))
    assert len(order) == len(graph)
    pos = {n: i for i, n in enumerate(order)}
    for u, v in graph.edges():
        assert pos[u] < pos[v]


if __name__ == "__main__":
    for name in sorted(PINS):
        print(f'    "{name}": "{_digest(_chain(name))}",')
