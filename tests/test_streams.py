"""Stream addressing and the one uniform-subset rule."""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from fedquant import federation as fed
from fedquant.streams import k_subset, substream


class TestKSubset:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 12), st.data(), st.integers(0, 2 ** 32 - 1))
    def test_k_distinct_sorted_indices(self, n, data, seed):
        k = data.draw(st.integers(1, n))
        rows = data.draw(st.integers(1, 4))
        picked = k_subset(substream(seed).random((rows, n)), k)
        assert picked.shape == (rows, k)
        for row in picked:  # strictly increasing, so k distinct indices
            assert np.all(np.diff(row) > 0) and row[0] >= 0 and row[-1] < n

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(1, 8), min_size=1, max_size=5), st.data(),
           st.integers(0, 2 ** 32 - 1))
    def test_inf_columns_never_chosen(self, sizes, data, seed):
        # the padded key block of local_train_clients: row r has sizes[r] keys
        k = data.draw(st.integers(1, min(sizes)))
        keys = np.full((len(sizes), max(sizes)), np.inf)
        rng = substream(seed)
        for r, size in enumerate(sizes):
            keys[r, :size] = rng.random(size)
        picked = k_subset(keys, k)
        for r, size in enumerate(sizes):
            assert picked[r, -1] < size
            assert np.array_equal(picked[r], k_subset(keys[r, :size], k))

    def test_every_subset_of_five_choose_two_occurs(self):
        draws = 20_000
        counts = dict.fromkeys(itertools.combinations(range(5), 2), 0)
        for row in k_subset(substream(50).random((draws, 5)), 2):
            counts[tuple(row.tolist())] += 1
        expected = draws / 10
        # every subset occurs, each within 5 standard deviations of its mean
        assert all(abs(c - expected) < 5 * np.sqrt(expected * 0.9) for c in counts.values())


def test_round_and_client_streams_are_distinct():
    # substream ignores a path's trailing zeros, so an untagged round stream
    # would equal client 0's stream
    draws = [fed.round_stream(3, 7).random(4), fed.round_stream(3, 8).random(4)]
    draws += [fed.client_stream(3, 7, c).random(4) for c in range(3)]
    assert len({d.tobytes() for d in draws}) == len(draws)
