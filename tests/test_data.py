"""Synthetic-data and i.i.d. partition tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fedquant import data as d
from fedquant.models import ClientDataset


def source_ids(size: int) -> ClientDataset:
    """A dataset whose only feature is each sample's source index."""
    return ClientDataset(np.arange(size, dtype=float)[:, None])


def covers_source(shards: list[ClientDataset], size: int) -> bool:
    """The shards of ``source_ids(size)`` are disjoint and cover it."""
    merged = np.sort(np.concatenate([s.features[:, 0] for s in shards]))
    return np.array_equal(merged, np.arange(size, dtype=float))


class TestPartitionIid:
    def test_equal_sizes(self):
        shards = d.partition_iid(source_ids(100), 10, seed=0)
        assert [s.size for s in shards] == [10] * 10
        assert covers_source(shards, 100)

    def test_near_equal_when_indivisible(self):
        shards = d.partition_iid(source_ids(10), 3, seed=0)
        sizes = [s.size for s in shards]
        assert max(sizes) - min(sizes) <= 1
        assert covers_source(shards, 10)

    def test_single_client_is_whole_dataset(self):
        shards = d.partition_iid(source_ids(7), 1, seed=3)
        assert np.array_equal(np.sort(shards[0].features[:, 0]),
                              np.arange(7, dtype=float))

    def test_shards_keep_source_order_and_labels(self):
        ds = ClientDataset(np.arange(12, dtype=float)[:, None], np.arange(12) % 2)
        for shard in d.partition_iid(ds, 4, seed=2):
            ids = shard.features[:, 0]
            assert np.all(np.diff(ids) > 0)
            assert shard.labels.tolist() == (ids.astype(int) % 2).tolist()

    def test_deterministic(self):
        ds = ClientDataset(np.random.default_rng([1]).standard_normal((50, 2)))
        a = d.partition_iid(ds, 5, seed=9)
        b = d.partition_iid(ds, 5, seed=9)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.features, sb.features)

    def test_too_many_clients_rejected(self):
        ds = ClientDataset(np.ones((3, 1)))
        with pytest.raises(ValueError):
            d.partition_iid(ds, 4, seed=0)

    @given(st.integers(1, 12), st.integers(12, 60), st.integers(0, 5))
    def test_disjoint_coverage_property(self, n_clients, size, seed):
        shards = d.partition_iid(source_ids(size), n_clients, seed=seed)
        assert len(shards) == n_clients
        assert covers_source(shards, size)


class TestGenQuadraticClients:
    def test_shapes_and_determinism(self):
        a = d.gen_quadratic_clients(4, 3, 1.0, seed=0, samples_per_client=6)
        b = d.gen_quadratic_clients(4, 3, 1.0, seed=0, samples_per_client=6)
        assert len(a) == 4
        for da, db in zip(a, b):
            assert da.features.shape == (6, 3)
            assert np.array_equal(da.features, db.features)

    def test_zero_spread_shares_center(self):
        clients = d.gen_quadratic_clients(5, 2, 0.0, seed=1)
        for ds in clients:
            assert np.allclose(ds.features.mean(axis=0), 0.0, atol=1e-13)

    def test_client_mean_tracks_center_scale(self):
        small = d.gen_quadratic_clients(6, 2, 0.5, seed=2)
        large = d.gen_quadratic_clients(6, 2, 2.0, seed=2)
        for ds_s, ds_l in zip(small, large):
            # same directions, 4x the center magnitude
            assert np.allclose(ds_l.features.mean(axis=0),
                               4.0 * ds_s.features.mean(axis=0), atol=1e-12)

    def test_single_sample_equals_center(self):
        clients = d.gen_quadratic_clients(3, 1, 1.0, seed=3,
                                          samples_per_client=1)
        for ds in clients:
            assert ds.features.shape == (1, 1)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            d.gen_quadratic_clients(0, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            d.gen_quadratic_clients(2, 2, -1.0, seed=0)


class TestGenLogisticDataset:
    def test_shapes_labels_determinism(self):
        a = d.gen_logistic_dataset(30, 4, seed=5)
        b = d.gen_logistic_dataset(30, 4, seed=5)
        assert a.features.shape == (30, 4)
        assert set(np.unique(a.labels)) <= {0, 1}
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_feature_scales_applied(self):
        scales = np.array([1.0, 10.0])
        ds = d.gen_logistic_dataset(4000, 2, seed=6, feature_scales=scales)
        stds = ds.features.std(axis=0)
        assert stds[1] / stds[0] == pytest.approx(10.0, rel=0.1)

    def test_bad_scales_rejected(self):
        with pytest.raises(ValueError):
            d.gen_logistic_dataset(10, 2, seed=0, feature_scales=np.array([1.0]))


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("generate", [
    lambda seed: d.partition_iid(source_ids(4), 2, seed=seed),
    lambda seed: d.gen_quadratic_clients(2, 2, 1.0, seed=seed),
    lambda seed: d.gen_logistic_dataset(4, 2, seed=seed),
], ids=["partition_iid", "gen_quadratic_clients", "gen_logistic_dataset"])
def test_seed_outside_a_philox_key_word_rejected(generate, seed):
    with pytest.raises(ValueError, match="seed"):
        generate(seed)
