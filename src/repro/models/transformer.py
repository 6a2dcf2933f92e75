"""Transformer encoder builder (GPT/BERT-style blocks on ``(seq, d)``).

Pre-norm blocks with residual connections; the linearizer groups every
block into one chain layer, giving the homogeneous chains that
PipeDream-2BW-style systems target — a useful contrast to the
heterogeneous CNN chains of the paper.
"""

from __future__ import annotations

from .graph import ModelGraph
from .layers import Add, FeedForward, LayerNorm, SelfAttention, TokenEmbedding

__all__ = ["gpt_chain", "transformer_encoder"]


def transformer_encoder(
    *,
    n_layers: int = 12,
    d_model: int = 768,
    heads: int = 12,
    seq_len: int = 512,
    vocab: int = 32000,
    ffn_ratio: int = 4,
) -> ModelGraph:
    """A BERT-base-like encoder by default (12 × 768, 512 tokens)."""
    g = ModelGraph(f"transformer{n_layers}x{d_model}")
    x = g.input((seq_len,))
    x = g.add_layer(TokenEmbedding(vocab, d_model), x, name="embed")
    for i in range(n_layers):
        tag = f"blk{i + 1}"
        a = g.add_layer(LayerNorm(), x, name=f"{tag}.ln1")
        a = g.add_layer(SelfAttention(heads), a, name=f"{tag}.attn")
        x = g.add_layer(Add(), x, a, name=f"{tag}.res1")
        f = g.add_layer(LayerNorm(), x, name=f"{tag}.ln2")
        f = g.add_layer(FeedForward(ffn_ratio * d_model), f, name=f"{tag}.ffn")
        x = g.add_layer(Add(), x, f, name=f"{tag}.res2")
    g.add_layer(LayerNorm(), x, name="final_ln")
    return g


def gpt_chain(
    n_layers: int = 24,
    *,
    d_model: int = 1024,
    heads: int = 16,
    seq_len: int = 1024,
    batch_size: int = 8,
    name: str | None = None,
):
    """A *uniform* GPT-style chain: one profiled decoder block, replicated.

    Profiles a single transformer block (GPT-2-medium-like by default:
    1024 wide, 16 heads, 1024 tokens) on the V100 device model, folds its
    chain layers into one per-block layer spec, and replicates that spec
    ``n_layers`` times.  The embedding and final norm bookends are
    excluded, so the chain is exactly homogeneous — the decoder *body*
    that GPT pipelines split across stages, and the regime where the
    zero-bubble B/W-split family is provably ahead of 1F1B\\* under tight
    memory (see ``tests/test_zero_bubble.py``).

    Deterministic and cheap (one block is profiled analytically, no
    hardware), so it is safe to build inside sweep worker processes at
    any ``n_layers``/pipeline depth.
    """
    # lazy: keep the models package importable without the profiling layer
    from ..profiling import V100, profile_model
    from .linearize import linearize
    from .synthetic import uniform_chain

    g = transformer_encoder(
        n_layers=1, d_model=d_model, heads=heads, seq_len=seq_len
    )
    profile_model(g, V100, batch_size)
    block = linearize(g)
    # chain layers 2..L-1 are the block's interior (1 = embed, L = final norm)
    inner = range(2, block.L)
    return uniform_chain(
        n_layers,
        u_f=sum(block.u_f(i) for i in inner),
        u_b=sum(block.u_b(i) for i in inner),
        weights=sum(block.weight(i) for i in inner),
        activation=block.activation(2),
        input_activation=block.activation(2),
        name=name or f"gpt{n_layers}",
    )
