"""Unit tests for the memory model M(k, l, g) (paper §4.2.1)."""

import numpy as np
import pytest

from repro.core import Allocation, Partitioning, stage_memory, stage_memory_breakdown
from repro.core.memory import stage_memory_terms, static_memory
from repro.models.synthetic import random_chain

MB = float(2**20)


class TestStageMemory:
    def test_middle_stage_formula(self, tiny_chain):
        # stage = layers 2..3, g = 2:
        #   weights: 3*(20+30) MB, activations: 2*(a1+a2) = 2*(40+30) MB
        #   buffers: 2*(a1 + a3) = 2*(40+20) MB
        expected = (3 * 50 + 2 * 70 + 2 * 60) * MB
        assert stage_memory(tiny_chain, 2, 3, 2) == pytest.approx(expected)

    def test_first_stage_drops_input_buffer(self, tiny_chain):
        # stage 1..1, g=1: 3*10 + 1*50 (a0) + out buffer 2*40
        expected = (30 + 50 + 80) * MB
        assert stage_memory(tiny_chain, 1, 1, 1) == pytest.approx(expected)

    def test_last_stage_drops_output_buffer(self, tiny_chain):
        # stage 4..4, g=3: 3*40 + 3*a3(20) + in buffer 2*20
        expected = (120 + 60 + 40) * MB
        assert stage_memory(tiny_chain, 4, 4, 3) == pytest.approx(expected)

    def test_whole_chain_has_no_buffers(self, tiny_chain):
        bd = stage_memory_breakdown(tiny_chain, 1, 4, 1)
        assert bd.buffers == 0.0

    def test_buffer_override(self, tiny_chain):
        with_buf = stage_memory(tiny_chain, 1, 2, 1, in_buffer=True)
        without = stage_memory(tiny_chain, 1, 2, 1)
        assert with_buf - without == pytest.approx(2 * tiny_chain.activation(0))

    def test_g_zero_keeps_static_parts(self, tiny_chain):
        bd = stage_memory_breakdown(tiny_chain, 2, 3, 0)
        assert bd.activations == 0.0
        assert bd.weights > 0 and bd.buffers > 0

    def test_monotone_in_g(self, tiny_chain):
        values = [stage_memory(tiny_chain, 1, 3, g) for g in range(5)]
        assert values == sorted(values)
        # slope is exactly the stored-activation size
        assert values[2] - values[1] == pytest.approx(
            tiny_chain.stored_activations(1, 3)
        )

    def test_breakdown_total(self, tiny_chain):
        bd = stage_memory_breakdown(tiny_chain, 2, 4, 3)
        assert bd.total == pytest.approx(bd.weights + bd.activations + bd.buffers)
        assert bd.total == pytest.approx(stage_memory(tiny_chain, 2, 4, 3))

    def test_empty_stage_rejected(self, tiny_chain):
        with pytest.raises(ValueError):
            stage_memory(tiny_chain, 3, 2, 1)

    def test_negative_g_rejected(self, tiny_chain):
        with pytest.raises(ValueError):
            stage_memory(tiny_chain, 1, 2, -1)


class TestStageMemoryTerms:
    """The vectorized terms equal the scalar breakdown's fields exactly."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("L", [1, 2, 7, 13])
    def test_every_stage_matches_the_breakdown(self, L, seed):
        chain = random_chain(L, seed=seed, decay=0.1 * seed)
        # every stage k..l, k = 1, l = L and single layers included
        starts = np.arange(1, L + 1)[:, None]
        ends = np.arange(1, L + 1)[None, :]
        terms = stage_memory_terms(chain, starts, ends)
        w3, abar, b_in, b_out = np.broadcast_arrays(*terms)
        for k in range(1, L + 1):
            for l in range(k, L + 1):
                i, j = k - 1, l - 1
                bd = stage_memory_breakdown(chain, k, l, 0)
                assert w3[i, j] == bd.weights, (k, l)
                assert b_in[i, j] + b_out[i, j] == bd.buffers, (k, l)
                assert b_in[i, j] == (2.0 * chain.activation(k - 1) if k > 1 else 0.0)
                assert b_out[i, j] == (2.0 * chain.activation(l) if l < L else 0.0)
                for g in (1, 3):
                    assert g * abar[i, j] == stage_memory_breakdown(
                        chain, k, l, g
                    ).activations, (k, l, g)

    def test_flat_arrays(self):
        chain = random_chain(9, seed=5)
        starts, ends = np.array([1, 3, 9, 1]), np.array([2, 8, 9, 9])
        w3, abar, b_in, b_out = stage_memory_terms(chain, starts, ends)
        for i, (k, l) in enumerate(zip(starts.tolist(), ends.tolist())):
            bd = stage_memory_breakdown(chain, k, l, 2)
            assert (w3[i] + 2 * abar[i]) + (b_in[i] + b_out[i]) == bd.total


class TestStaticMemory:
    @staticmethod
    def per_gpu_loop(chain, alloc):
        static = {}
        for p in alloc.procs_used():
            total = 0.0
            for i in alloc.stages_on_proc(p):
                s = alloc.stages[i]
                bd = stage_memory_breakdown(chain, s.start, s.end, 0)
                total += bd.weights + bd.buffers
            static[p] = total
        return static

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_per_gpu_loop(self, seed):
        chain = random_chain(12, seed=seed, decay=0.1)
        allocations = [
            Allocation.contiguous(Partitioning.from_cuts(12, [3, 7])),
            # GPU 1 holds three stages, GPU 0 two
            Allocation(Partitioning.from_cuts(12, [2, 4, 6, 9, 11]), (0, 1, 2, 1, 0, 1)),
            Allocation(Partitioning.from_cuts(12, [1, 11]), (1, 0, 1)),
        ]
        for alloc in allocations:
            got = static_memory(chain, alloc)
            assert got == self.per_gpu_loop(chain, alloc)
            assert list(got) == list(self.per_gpu_loop(chain, alloc))
