"""Batched serving kernels pinned against their scalar references.

Every multi-query kernel the vectorised serve path runs -- packed-word
Hamming scans, batched fixed-radius selection, multi-query top-k and the
histogram radius calibration -- must return exactly what the per-query
reference code returns, element for element.  These tests pin that
contract over exhaustive small cases and randomised fuzzing.
"""

import numpy as np
import pytest

from repro.lsh import hamming as hamming_module
from repro.lsh.hamming import (
    hamming_matrix,
    hamming_matrix_packed,
    pack_bits,
    pack_bits_u64,
    pack_signature_words,
    pairwise_hamming,
    unpack_bits,
)
from repro.nns.exact import topk_indices_batch
from repro.nns.fixed_radius import (
    calibrate_population_radius,
    cap_candidates,
    fixed_radius_candidates,
    fixed_radius_candidates_batch,
)


class TestPackedHamming:
    @pytest.mark.parametrize("num_bits", [1, 7, 63, 64, 65, 127, 256])
    def test_matches_unpacked_matrix(self, num_bits):
        rng = np.random.default_rng(num_bits)
        queries = rng.integers(0, 2, size=(5, num_bits), dtype=np.uint8)
        items = rng.integers(0, 2, size=(11, num_bits), dtype=np.uint8)
        packed = hamming_matrix_packed(
            pack_bits_u64(queries), pack_bits_u64(items)
        )
        np.testing.assert_array_equal(packed, hamming_matrix(queries, items))

    def test_matches_pairwise(self):
        rng = np.random.default_rng(1)
        queries = rng.integers(0, 2, size=(4, 256), dtype=np.uint8)
        items = rng.integers(0, 2, size=(9, 256), dtype=np.uint8)
        packed = hamming_matrix_packed(
            pack_bits_u64(queries), pack_bits_u64(items)
        )
        for row, query in enumerate(queries):
            np.testing.assert_array_equal(
                packed[row], pairwise_hamming(query, items)
            )

    def test_pad_bits_do_not_count(self):
        # Widths that are not multiples of 64 pad with zero bits; the
        # distance between identical rows must stay zero.
        bits = np.ones((2, 65), dtype=np.uint8)
        packed = pack_bits_u64(bits)
        assert packed.shape[1] == 2
        np.testing.assert_array_equal(
            hamming_matrix_packed(packed, packed), np.zeros((2, 2))
        )

    def test_word_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hamming_matrix_packed(
                np.zeros((1, 2), dtype=np.uint64),
                np.zeros((1, 3), dtype=np.uint64),
            )

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("chunk_words", [1, 16, 1 << 22])
    def test_item_layout_and_query_chunks(self, monkeypatch, order, chunk_words):
        """Row-major and word-plane-major item blocks give the same
        distances, whole or in query chunks (1, 2 -- with a ragged last
        chunk -- or all 7 queries at once for 4 items x 2 words)."""
        monkeypatch.setattr(hamming_module, "_PACKED_CHUNK_WORDS", chunk_words)
        rng = np.random.default_rng(3)
        queries = rng.integers(0, 2, size=(7, 100), dtype=np.uint8)
        items = rng.integers(0, 2, size=(4, 100), dtype=np.uint8)
        item_words = np.asarray(pack_bits_u64(items), order=order)
        assert item_words.flags[f"{order}_CONTIGUOUS"]
        np.testing.assert_array_equal(
            hamming_matrix_packed(pack_bits_u64(queries), item_words),
            hamming_matrix(queries, items),
        )

    @pytest.mark.parametrize("chunk_words", [72, 1 << 22])
    def test_byte_table_popcount_fallback(self, monkeypatch, chunk_words):
        """numpy < 2 has no ``bitwise_count``: the byte-table path must
        count the same bits over the (W, Q, N) word-plane block, whole or
        in 2-query chunks (9 items x 4 words)."""
        monkeypatch.delattr(np, "bitwise_count")
        monkeypatch.setattr(hamming_module, "_PACKED_CHUNK_WORDS", chunk_words)
        rng = np.random.default_rng(4)
        queries = rng.integers(0, 2, size=(5, 200), dtype=np.uint8)
        items = rng.integers(0, 2, size=(9, 200), dtype=np.uint8)
        item_words = np.asfortranarray(pack_bits_u64(items))
        np.testing.assert_array_equal(
            hamming_matrix_packed(pack_bits_u64(queries), item_words),
            hamming_matrix(queries, items),
        )

    def test_pack_roundtrip_through_bytes(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=(3, 100), dtype=np.uint8)
        words = pack_bits_u64(bits)
        recovered = unpack_bits(words.view(np.uint8), 100)
        np.testing.assert_array_equal(recovered, bits)

    @pytest.mark.parametrize("num_bits", [1, 7, 64, 65, 256])
    def test_signature_words_match_checked_packing(self, num_bits):
        """The hot-path packer skips only the 0/1 scan: on 0/1 input its
        words equal the validated packer's."""
        rng = np.random.default_rng(num_bits)
        projections = rng.normal(size=(6, num_bits))
        signatures = (projections >= 0.0).astype(np.uint8)
        np.testing.assert_array_equal(
            pack_signature_words(signatures), pack_bits_u64(signatures)
        )

    @pytest.mark.parametrize("packer", [pack_bits, pack_bits_u64])
    def test_public_packers_still_reject_non_binary(self, packer):
        bits = np.zeros((2, 16), dtype=np.uint8)
        bits[1, 3] = 2
        with pytest.raises(ValueError, match="0/1"):
            packer(bits)


class TestTopkIndicesBatch:
    @staticmethod
    def reference(matrix, k, counts=None):
        rows = []
        for index, row in enumerate(matrix):
            masked = np.asarray(row, dtype=np.float64).copy()
            if counts is not None:
                masked[int(counts[index]) :] = -np.inf
            rows.append(np.argsort(-masked, kind="stable")[:k])
        return np.asarray(rows)

    def test_matches_stable_argsort(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            num_queries = int(rng.integers(1, 8))
            width = int(rng.integers(1, 30))
            k = int(rng.integers(1, width + 4))
            # Heavy ties: scores drawn from a handful of values.
            matrix = rng.choice([0.1, 0.5, 0.5, 0.9], size=(num_queries, width))
            got = topk_indices_batch(matrix, k)
            np.testing.assert_array_equal(
                got, self.reference(matrix, min(k, width))
            )

    def test_valid_counts_mask_padding(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            num_queries = int(rng.integers(1, 8))
            width = int(rng.integers(2, 20))
            k = int(rng.integers(1, width + 2))
            counts = rng.integers(1, width + 1, size=num_queries)
            matrix = rng.choice([0.2, 0.7, 0.7], size=(num_queries, width))
            got = topk_indices_batch(matrix, k, valid_counts=counts)
            np.testing.assert_array_equal(
                got, self.reference(matrix, min(k, width), counts)
            )

    @pytest.mark.parametrize("extra", [0, 1, 5])
    def test_k_at_or_past_width(self, extra):
        matrix = np.array([[0.3, 0.9, 0.3, 0.1], [0.5, 0.5, 0.5, 0.5]])
        got = topk_indices_batch(matrix, matrix.shape[1] + extra)
        np.testing.assert_array_equal(got, [[1, 0, 2, 3], [0, 1, 2, 3]])

    def test_padding_never_outranks_valid_entries(self):
        # Padding cells hold the largest scores in the matrix; masked by
        # ``valid_counts`` they still come after every valid entry, in
        # column order.
        matrix = np.array([[0.2, 0.8, 9.0, 9.0], [0.6, 9.0, 9.0, 9.0]])
        counts = np.array([2, 1])
        got = topk_indices_batch(matrix, 4, valid_counts=counts)
        np.testing.assert_array_equal(got, [[1, 0, 2, 3], [0, 1, 2, 3]])
        np.testing.assert_array_equal(got, self.reference(matrix, 4, counts))

    def test_empty_batch(self):
        assert topk_indices_batch(np.empty((0, 5)), 3).shape == (0, 3)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            topk_indices_batch(np.zeros((1, 3)), 0)


class TestFixedRadiusBatch:
    @staticmethod
    def reference_row(distances, radius, cap):
        candidates = fixed_radius_candidates(distances, radius)
        if candidates.shape[0] == 0:
            candidates = np.array([int(np.argmin(distances))])
        return cap_candidates(candidates, distances, cap)

    def assert_matches_chain(self, distances, radius, cap):
        """The batch kernel against the scalar chain, row by row."""
        padded, counts = fixed_radius_candidates_batch(distances, radius, cap)
        num_queries, num_items = np.shape(distances)
        assert padded.dtype == np.int64
        assert padded.shape == (num_queries, max(1, int(counts.max(initial=0))))
        assert counts.shape == (num_queries,)
        for row in range(num_queries):
            expected = self.reference_row(distances[row], radius, cap)
            assert counts[row] == expected.shape[0]
            np.testing.assert_array_equal(padded[row, : counts[row]], expected)
            # Padding is the one-past-the-end sentinel only.
            assert (padded[row, counts[row] :] == num_items).all()
        return padded, counts

    def fuzz(self, seed, levels):
        rng = np.random.default_rng(seed)
        for trial in range(100):
            num_queries = int(rng.integers(1, 10))
            num_items = int(rng.integers(1, 40))
            radius = int(rng.integers(0, 12))
            cap = int(rng.integers(1, 15))
            distances = rng.integers(0, levels, size=(num_queries, num_items))
            self.assert_matches_chain(distances, radius, cap)

    def test_matches_scalar_chain(self):
        self.fuzz(seed=0, levels=16)

    def test_matches_scalar_chain_under_heavy_ties(self):
        # Three distance levels per row: capped rows almost always have
        # ties straddling the cap.
        self.fuzz(seed=3, levels=3)

    def test_over_cap_ties_straddle_the_cap(self):
        # Row 0: 0 and 1 are strictly inside, three of the five 3s fit;
        # the lowest-index ties win.  Row 1: every entry ties.
        distances = np.array([[3, 1, 3, 3, 0, 3, 3], [2, 2, 2, 2, 2, 2, 2]])
        padded, counts = self.assert_matches_chain(distances, 5, 5)
        np.testing.assert_array_equal(padded, [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4]])
        np.testing.assert_array_equal(counts, [5, 5])

    def test_all_rows_empty(self):
        distances = np.array([[5, 2, 7, 2], [9, 9, 4, 8], [3, 6, 6, 3]])
        padded, counts = self.assert_matches_chain(distances, 1, 3)
        np.testing.assert_array_equal(padded, [[1], [2], [0]])
        np.testing.assert_array_equal(counts, [1, 1, 1])

    def test_mixed_empty_over_and_normal_rows(self):
        distances = np.array(
            [
                [9, 8, 9, 8, 9, 8],  # empty: nearest fallback
                [1, 0, 1, 1, 0, 1],  # over cap, ties at 1 straddle it
                [4, 1, 9, 2, 9, 9],  # two in radius
                [9, 9, 9, 9, 9, 7],  # empty, nearest is the last index
                [0, 0, 0, 9, 9, 9],  # exactly at cap
            ]
        )
        padded, counts = self.assert_matches_chain(distances, 2, 3)
        np.testing.assert_array_equal(counts, [1, 3, 2, 1, 3])
        np.testing.assert_array_equal(
            padded,
            [[1, 6, 6], [0, 1, 4], [1, 3, 6], [5, 6, 6], [0, 1, 2]],
        )

    def test_empty_batch_keeps_one_padded_column(self):
        padded, counts = fixed_radius_candidates_batch(
            np.empty((0, 5), dtype=np.int64), 3, 4
        )
        assert padded.shape == (0, 1) and padded.dtype == np.int64
        assert counts.shape == (0,)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    def test_narrow_integer_distances(self, dtype):
        rng = np.random.default_rng(5)
        for trial in range(30):
            distances = rng.integers(0, 200, size=(6, 25)).astype(dtype)
            self.assert_matches_chain(distances, int(rng.integers(0, 150)), 7)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            fixed_radius_candidates_batch(np.zeros((1, 2)), -1, 3)
        with pytest.raises(ValueError):
            fixed_radius_candidates_batch(np.zeros((1, 2)), 1, 0)
        with pytest.raises(ValueError):
            fixed_radius_candidates_batch(np.zeros(3), 1, 1)


class TestCalibratePopulationRadiusPin:
    @staticmethod
    def reference(distance_rows, target, max_radius):
        # The pre-vectorisation implementation: scan radii, per-radius
        # per-row counting, stop once the gap stops shrinking.
        rows = [np.asarray(row, dtype=np.int64) for row in distance_rows]
        best_radius, best_gap = 0, float("inf")
        for radius in range(max_radius + 1):
            mean_count = float(
                np.mean([(row <= radius).sum() for row in rows])
            )
            gap = abs(mean_count - target)
            if gap < best_gap:
                best_radius, best_gap = radius, gap
        return best_radius

    def test_identical_radius_selection(self):
        rng = np.random.default_rng(0)
        for trial in range(60):
            num_rows = int(rng.integers(1, 8))
            num_items = int(rng.integers(1, 50))
            max_radius = int(rng.integers(0, 40))
            target = float(rng.uniform(0.5, 30.0))
            rows = [
                rng.integers(0, max(1, max_radius + 10), size=num_items)
                for _ in range(num_rows)
            ]
            assert calibrate_population_radius(
                rows, target, max_radius
            ) == self.reference(rows, target, max_radius)

    def test_ragged_rows(self):
        rows = [np.array([0, 1, 5]), np.array([2])]
        assert calibrate_population_radius(rows, 2.0, 8) == self.reference(
            rows, 2.0, 8
        )

    def test_negative_distances_rejected(self):
        with pytest.raises(ValueError):
            calibrate_population_radius([np.array([-1, 2])], 1.0, 4)
