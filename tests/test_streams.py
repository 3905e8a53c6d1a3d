"""Stream addressing and the one uniform-subset rule."""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from fedquant import federation as fed
from fedquant.streams import CLIENT, ROUND, k_subset, rekey, substream


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
    # the role keeps round t's stream apart from client 0 of round t, the
    # counter keeps (t, c) apart from (c, t), and the key keeps seeds apart
    streams = [fed.round_stream(3, 7), fed.client_stream(3, 7, 0),
               fed.client_stream(3, 7, 2), fed.client_stream(3, 2, 7),
               fed.round_stream(4, 7), fed.client_stream(4, 7, 2),
               fed.round_stream(3, 0), fed.client_stream(3, 0, 0), fed.round_stream(3, 8)]
    draws = {rng.random(4).tobytes() for rng in streams}
    assert len(draws) == len(streams)


# the engine's own pool: generator 0 draws a round's stream, the rest its clients'
POOL = fed.init_state(fed.FederationConfig(
    num_clients=2, clients_per_round=1, rounds=0, batch_size=1, dimension=2,
    samples_per_client=2)).pool


def uint32_then_doubles(rng):
    # 32-bit words first, so a stale pending half word shows
    return rng.integers(0, 2 ** 32, 3, dtype=np.uint32).tobytes() + rng.random(5).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 32 - 1),
       st.integers(0, 2 ** 32 - 1), st.booleans(), st.integers(0, 4),
       st.integers(0, 2 ** 64 - 1))
def test_rekeyed_pool_generator_draws_like_a_fresh_stream(seed, t, client, is_round,
                                                           blocks, previous_seed):
    rng = POOL[0] if is_round else POOL[1]
    # leave it mid-buffer, with half a 32-bit word pending
    rekey(rng, previous_seed, CLIENT, 1, 2)
    rng.random(4 * blocks + 1)
    rng.integers(0, 2 ** 32, dtype=np.uint32)
    state = rng.bit_generator.state
    assert state["buffer_pos"] < 4 and state["has_uint32"] == 1

    if is_round:
        pooled, fresh = rekey(rng, seed, ROUND, t), fed.round_stream(seed, t)
    else:
        pooled, fresh = rekey(rng, seed, CLIENT, t, client), fed.client_stream(seed, t, client)
    assert uint32_then_doubles(pooled) == uint32_then_doubles(fresh)
