"""Packed-bitset primitives: round-trips and bit-identity with boolean masks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cascade.ic import IndependentCascade
from repro.cascade.reachability import all_reach_sizes
from repro.cascade.snapshots import SnapshotOracle, sample_snapshots
from repro.graphs.datasets import hep
from repro.utils.bitset import (
    WORD_BITS,
    is_packed,
    lookup_bits,
    num_words,
    pack_bits,
    packed_bytes,
    packed_zeros,
    set_bits,
    unpack_bits,
)

SIZES = [0, 1, 7, 63, 64, 65, 128, 1000]


class TestPackUnpack:
    @pytest.mark.parametrize("size", SIZES)
    def test_round_trip(self, size, rng):
        mask = rng.random(size) < 0.4
        words = pack_bits(mask)
        assert is_packed(words)
        assert words.shape == (num_words(size),)
        np.testing.assert_array_equal(unpack_bits(words, size), mask)

    def test_padding_bits_are_zero(self, rng):
        mask = np.ones(65, dtype=bool)
        words = pack_bits(mask)
        # bits 65..127 of the second word must be clear
        assert int(words[1]) == 1

    def test_pack_rejects_packed_input(self):
        words = packed_zeros(10)
        with pytest.raises(ValueError, match="already packed"):
            pack_bits(words)

    def test_pack_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            pack_bits(np.zeros((2, 3), dtype=bool))

    def test_unpack_rejects_overflow(self):
        with pytest.raises(ValueError, match="do not fit"):
            unpack_bits(packed_zeros(64), 100)

    def test_num_words(self):
        assert num_words(0) == 0
        assert num_words(1) == 1
        assert num_words(WORD_BITS) == 1
        assert num_words(WORD_BITS + 1) == 2
        with pytest.raises(ValueError):
            num_words(-1)


class TestLookupAndSet:
    @pytest.mark.parametrize("size", [1, 63, 64, 65, 1000])
    def test_lookup_matches_fancy_indexing(self, size, rng):
        mask = rng.random(size) < 0.3
        words = pack_bits(mask)
        idx = rng.integers(0, size, 200)
        np.testing.assert_array_equal(lookup_bits(words, idx), mask[idx])
        # boolean-style masks pass through unchanged
        np.testing.assert_array_equal(lookup_bits(mask, idx), mask[idx])

    def test_lookup_reads_set_bits_and_strided_words(self, rng):
        # Bits written word-wise by set_bits read back byte-wise, also
        # from a non-contiguous column of a packed stack.
        idx = rng.integers(0, 500, 120)
        stack = np.zeros((num_words(500), 3), dtype=np.uint64)
        column = stack[:, 1]
        set_bits(column, idx)
        expected = np.zeros(500, dtype=bool)
        expected[idx] = True
        probe = np.arange(500)
        np.testing.assert_array_equal(lookup_bits(column, probe), expected)
        np.testing.assert_array_equal(lookup_bits(stack[:, 1].copy(), probe), expected)
        assert lookup_bits(column, probe[:0]).shape == (0,)

    @pytest.mark.parametrize("size", [1, 64, 65, 300])
    def test_set_bits_matches_bool_assignment(self, size, rng):
        idx = rng.integers(0, size, 50)
        words = packed_zeros(size)
        set_bits(words, idx)
        expected = np.zeros(size, dtype=bool)
        expected[idx] = True
        np.testing.assert_array_equal(unpack_bits(words, size), expected)

    def test_set_bits_empty_index(self):
        words = packed_zeros(64)
        set_bits(words, np.array([], dtype=np.int64))
        assert not words.any()


class TestPackedBytes:
    def test_single_array_and_iterable(self):
        mask = np.zeros(128, dtype=bool)
        words = pack_bits(mask)
        assert packed_bytes(mask) == 128
        assert packed_bytes(words) == 16
        assert packed_bytes([words, words]) == 32


class TestCrossKernelBitIdentity:
    """Packed and boolean masks give bit-identical results on hep."""

    @pytest.fixture(scope="class")
    def graph(self):
        return hep(scale=0.05)

    def test_reach_sizes_identical(self, graph, rng):
        mask = rng.random(graph.num_edges) < 0.2
        np.testing.assert_array_equal(
            all_reach_sizes(graph, mask),
            all_reach_sizes(graph, pack_bits(mask)),
        )

    @pytest.mark.parametrize("sweep", ["python", "numpy"])
    def test_oracle_identical(self, graph, sweep):
        model = IndependentCascade(0.1)
        bool_masks = sample_snapshots(graph, model, 4, 99)
        packed_masks = sample_snapshots(graph, model, 4, 99, packed=True)
        for b, p in zip(bool_masks, packed_masks):
            np.testing.assert_array_equal(b, unpack_bits(p, graph.num_edges))
        bool_oracle = SnapshotOracle(graph, bool_masks)
        packed_oracle = SnapshotOracle(graph, packed_masks)
        assert is_packed(packed_oracle.mask_matrix)
        seeds = [0, 3, 17]
        assert bool_oracle.spread(seeds) == packed_oracle.spread(seeds)
        for br, pr in zip(bool_oracle.reach(seeds), packed_oracle.reach(seeds)):
            np.testing.assert_array_equal(br, pr)
        # Both equal the per-mask sweep: the python reference walk or the
        # numpy reach DP of a one-mask oracle, over the packed masks.
        for pr, mask in zip(packed_oracle.reach(seeds), packed_masks):
            if sweep == "python":
                expected = graph.reachable_from(seeds, unpack_bits(mask, graph.num_edges))
            else:
                expected = SnapshotOracle(graph, [mask]).reach(seeds)[0]
            np.testing.assert_array_equal(pr, expected)

    def test_oracle_incremental_identical(self, graph):
        model = IndependentCascade(0.15)
        bool_masks = sample_snapshots(graph, model, 3, 7)
        packed_masks = [pack_bits(m) for m in bool_masks]
        bool_oracle = SnapshotOracle(graph, bool_masks)
        packed_oracle = SnapshotOracle(graph, packed_masks)
        b_reached = bool_oracle.reach([5])
        p_reached = packed_oracle.reach([5])
        assert bool_oracle.marginal_gain(9, b_reached) == packed_oracle.marginal_gain(
            9, p_reached
        )
        bool_oracle.extend_reach(b_reached, 9)
        packed_oracle.extend_reach(p_reached, 9)
        for b, p in zip(b_reached, p_reached):
            np.testing.assert_array_equal(b, p)

    def test_mixed_masks_normalize_to_bool_matrix(self, graph):
        model = IndependentCascade(0.1)
        masks = sample_snapshots(graph, model, 2, 13)
        mixed = [masks[0], pack_bits(masks[1])]
        oracle = SnapshotOracle(graph, mixed)
        assert oracle.mask_matrix.dtype == bool
        np.testing.assert_array_equal(oracle.mask_matrix, np.stack(masks))
