"""Loss, gradient, local SGD, and optimum-solver tests.

Gradient correctness is checked against a central finite-difference oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedquant import models as m
from fedquant.streams import k_subset

import reference as ref


QUADRATIC = m.LossModel(m.LossKind.QUADRATIC)
LOGISTIC = m.LossModel(m.LossKind.LOGISTIC, 0.05)


def fd_gradient(model, w, features, labels=None, eps=1e-5):
    """Central finite differences of the batch-average loss."""
    g = np.zeros_like(w, dtype=np.float64)
    for i in range(w.size):
        hi, lo = w.copy(), w.copy()
        hi[i] += eps
        lo[i] -= eps
        g[i] = (m.loss(model, hi, features, labels)
                - m.loss(model, lo, features, labels)) / (2 * eps)
    return g


class TestLoss:
    def test_quadratic_minimum_is_zero(self):
        z = np.array([[1.0, -2.0], [1.0, -2.0]])
        assert m.loss(QUADRATIC, np.array([1.0, -2.0]), z) == 0.0

    def test_quadratic_one_dim(self):
        assert m.loss(QUADRATIC, np.array([0.0]), np.array([[2.0]])) == 2.0

    def test_logistic_symmetric_logit(self):
        model = m.LossModel(m.LossKind.LOGISTIC)
        x = np.random.default_rng([0]).standard_normal((8, 3))
        y = np.array([0, 1] * 4)
        assert m.loss(model, np.zeros(3), x, y) == pytest.approx(math.log(2))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            m.loss(QUADRATIC, np.zeros(2), np.empty((0, 2)))

    def test_regularization_added(self):
        model = m.LossModel(m.LossKind.LOGISTIC, regularization=0.5)
        x = np.array([[1.0, 0.0]])
        y = np.array([1])
        w = np.array([2.0, 0.0])
        expected = math.log(1 + math.exp(-2.0)) + 0.25 * 4.0
        assert m.loss(model, w, x, y) == pytest.approx(expected)

    def test_quadratic_rejects_regularization(self):
        with pytest.raises(ValueError):
            m.LossModel(m.LossKind.QUADRATIC, regularization=0.1)


class TestGrad:
    def test_quadratic_single_sample(self):
        g = m.grad(QUADRATIC, np.array([0.0]), np.array([[1.0]]))
        assert g.tolist() == [-1.0]

    def test_quadratic_zero_at_batch_mean(self):
        z = np.random.default_rng([1]).standard_normal((6, 4))
        g = m.grad(QUADRATIC, z.mean(axis=0), z)
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_logistic_against_finite_differences(self):
        model = m.LossModel(m.LossKind.LOGISTIC, regularization=0.1)
        rng = np.random.default_rng([2])
        x = rng.standard_normal((12, 5))
        y = (rng.random(12) < 0.5).astype(np.int64)
        w = rng.standard_normal(5)
        analytic = m.grad(model, w, x, y)
        numeric = fd_gradient(model, w, x, y)
        assert np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)) < 1e-5

    @pytest.mark.parametrize("kind, reg", [
        (m.LossKind.QUADRATIC, 0.0),
        (m.LossKind.LOGISTIC, 0.05),
    ])
    def test_gradient_check_random_pairs(self, kind, reg):
        model = m.LossModel(kind, reg)
        rng = np.random.default_rng([3])
        for _ in range(100):
            n, d = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            x = rng.standard_normal((n, d))
            y = (rng.random(n) < 0.5).astype(np.int64) if kind is m.LossKind.LOGISTIC else None
            w = rng.standard_normal(d)
            analytic = m.grad(model, w, x, y)
            numeric = fd_gradient(model, w, x, y)
            denom = np.maximum(np.abs(numeric), 1.0)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            m.grad(QUADRATIC, np.zeros(2), np.empty((0, 2)))


class TestStrongConvexity:
    def test_quadratic_witness(self):
        # F(v) >= F(w) + <v-w, grad F(w)> + (mu/2) ||v-w||^2 with mu = 1
        rng = np.random.default_rng([4])
        z = rng.standard_normal((10, 3))
        for _ in range(50):
            v, w = rng.standard_normal(3), rng.standard_normal(3)
            lhs = m.loss(QUADRATIC, v, z)
            rhs = (m.loss(QUADRATIC, w, z)
                   + (v - w) @ m.grad(QUADRATIC, w, z)
                   + 0.5 * float((v - w) @ (v - w)))
            assert lhs >= rhs - 1e-9


def reference_logistic_grad(w, features, labels, regularization):
    """The one-batch logistic gradient written out directly: the value every
    path through ``grad`` must reproduce bit for bit."""
    z = features @ w
    prob = np.empty_like(z)
    pos = z >= 0
    prob[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    prob[~pos] = ez / (1.0 + ez)
    return features.T @ (prob - labels) / features.shape[0] + regularization * w


batch_shapes = st.tuples(st.integers(1, 6), st.integers(1, 12), st.integers(1, 9))


class TestBatchedGradient:
    @settings(max_examples=60, deadline=None)
    @given(batch_shapes, st.integers(0, 2 ** 32 - 1), st.sampled_from(["quadratic", "logistic"]))
    def test_stacked_equals_each_slice(self, shape, seed, kind):
        k, bs, d = shape
        rng = np.random.default_rng([seed])
        features = rng.standard_normal((k, bs, d)) * 3.0
        labels = rng.integers(0, 2, (k, bs))
        w = rng.standard_normal((k, d))
        model = QUADRATIC if kind == "quadratic" else LOGISTIC
        label_arg = labels if kind == "logistic" else None
        stacked = m.grad(model, w, features, label_arg)
        for i in range(k):
            one = m.grad(model, w[i], features[i], labels[i] if label_arg is not None else None)
            assert np.array_equal(stacked[i], one)
            if kind == "logistic":
                assert np.array_equal(one, reference_logistic_grad(
                    w[i], features[i], labels[i], LOGISTIC.regularization))

    def test_shared_weights_broadcast(self):
        rng = np.random.default_rng([40])
        features = rng.standard_normal((7, 4, 3))
        labels = rng.integers(0, 2, (7, 4))
        w = rng.standard_normal(3)
        stacked = m.grad(LOGISTIC, w, features, labels)
        assert stacked.shape == (7, 3)
        for i in range(7):
            assert np.array_equal(stacked[i], m.grad(LOGISTIC, w, features[i], labels[i]))

    def test_extreme_logits_do_not_overflow(self):
        features = np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.5]])
        labels = np.array([1, 0, 1])
        with np.errstate(over="raise"):
            for scale in (1000.0, -1000.0, 745.0, -745.0):
                g = m.grad(LOGISTIC, np.array([scale, 0.0]), features, labels)
                assert np.all(np.isfinite(g))
                batched = m.grad(LOGISTIC, np.array([scale, 0.0]),
                                 np.stack([features, features]), np.stack([labels, labels]))
                assert np.array_equal(batched[0], g)


class TestReductionsMatchMean:
    """``grad`` and ``loss`` divide a sum by the count; numpy's mean is that
    sum followed by the same division, so each must reproduce the ``np.mean``
    formula it replaced bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 4), max_size=2), st.integers(1, 20),
           st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
    def test_quadratic_grad(self, lead, bs, d, seed):
        rng = np.random.default_rng([seed])
        features = rng.standard_normal((*lead, bs, d)) * 3.0
        w = rng.standard_normal((*lead, d))
        assert np.array_equal(m.grad(QUADRATIC, w, features), w - features.mean(axis=-2))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
    def test_loss(self, n, d, seed):
        rng = np.random.default_rng([seed])
        features = rng.standard_normal((n, d)) * 3.0
        labels = rng.integers(0, 2, n)
        w = rng.standard_normal(d)
        diffs = w[None, :] - features
        assert m.loss(QUADRATIC, w, features) == 0.5 * float(
            np.mean(np.sum(diffs * diffs, axis=1)))
        z = features @ w
        ce = np.logaddexp(0.0, z) - labels * z
        assert m.loss(LOGISTIC, w, features, labels) == (
            float(np.mean(ce)) + 0.5 * LOGISTIC.regularization * float(w @ w))


def make_clients(sizes, dim, seed, labeled):
    rng = np.random.default_rng([seed])
    return [m.ClientDataset(rng.standard_normal((n, dim)),
                            rng.integers(0, 2, n) if labeled else None)
            for n in sizes]


def train_clients(model, datasets, order, w, steps, bs, lr, seed):
    """local_train_clients over ``order``, each client's batches picked from
    keys drawn from its own stream, offset to its rows of the pooled set."""
    pooled = m.pooled_dataset(datasets)
    starts = np.cumsum([0] + [ds.size for ds in datasets])
    rows = np.stack([k_subset(np.random.default_rng([seed, int(k)])
                              .random((steps, datasets[k].size)), bs)
                     + starts[k] for k in order])
    return m.local_train_clients(w, model, m.batch_inputs(model, pooled, rows), lr)


class TestLocalTrainClients:
    @pytest.mark.parametrize("model", [QUADRATIC, LOGISTIC], ids=["quadratic", "logistic"])
    def test_rows_equal_local_train(self, model):
        datasets = make_clients([5, 9, 3, 12, 7], 4, 41, model is LOGISTIC)
        w = np.random.default_rng([42]).standard_normal(4)
        order = [0, 2, 3, 4]
        block = train_clients(model, datasets, order, w, 6, 3, 0.2, 43)
        for row, k in zip(block, order):
            one = ref.local_train(w, model, datasets[k], 6, 3, 0.2, np.random.default_rng([43, k]))
            assert np.array_equal(row, one)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(2, 10), min_size=1, max_size=6), st.integers(1, 5),
           st.booleans(), st.randoms(use_true_random=False))
    def test_permuting_clients_permutes_rows(self, sizes, dim, logistic, shuffler):
        model = LOGISTIC if logistic else QUADRATIC
        datasets = make_clients(sizes, dim, 44, logistic)
        order = list(range(len(sizes)))
        perm = order[:]
        shuffler.shuffle(perm)
        w = np.random.default_rng([45]).standard_normal(dim)
        base = train_clients(model, datasets, order, w, 3, 2, 0.1, 46)
        permuted = train_clients(model, datasets, perm, w, 3, 2, 0.1, 46)
        assert np.array_equal(permuted, base[perm])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 20), st.integers(1, 4),
           st.integers(0, 2 ** 32 - 1))
    def test_quadratic_batch_means_equal_local_train(self, clients, steps, bs, dim, seed):
        # the block's batch means are taken in one reduction; up to 20 rows a
        # batch, a reduction that numpy may split into partial sums, and one
        # coordinate, where the batch axis is the innermost left
        sizes = [bs + extra for extra in range(clients)]
        datasets = make_clients(sizes, dim, seed, False)
        w = np.random.default_rng([seed, 1]).standard_normal(dim)
        block = train_clients(QUADRATIC, datasets, range(clients), w, steps, bs, 0.3, seed)
        for k, row in enumerate(block):
            one = ref.local_train(w, QUADRATIC, datasets[k], steps, bs, 0.3,
                                  np.random.default_rng([seed, k]))
            assert row.tobytes() == one.tobytes()



class TestBatchInputs:
    def test_one_row_block_per_client(self):
        pooled = m.pooled_dataset(make_clients([5, 5], 2, 49, False))
        for rows in (np.zeros((2, 5), dtype=np.int64), np.zeros((2, 0, 3), dtype=np.int64)):
            with pytest.raises(ValueError, match="one non-empty .* block per client"):
                m.batch_inputs(QUADRATIC, pooled, rows)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.integers(1, 20),
           st.integers(1, 4), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_block_equals_each_round(self, count, clients, steps, bs, dim, logistic, seed):
        # a block of rounds, each selecting its own clients of uneven sizes,
        # so every round reads rows at its own offsets into the pooled set
        model = LOGISTIC if logistic else QUADRATIC
        sizes = [bs + extra for extra in range(clients + 2)]
        datasets = make_clients(sizes, dim, seed, logistic)
        pooled = m.pooled_dataset(datasets)
        starts = np.cumsum([0] + sizes)
        rng = np.random.default_rng([seed, 2])
        rows = np.stack([
            np.stack([k_subset(rng.random((steps, sizes[c])), bs) + starts[c]
                      for c in np.sort(rng.permutation(len(sizes))[:clients])])
            for _ in range(count)])
        block = m.batch_inputs(model, pooled, rows)
        assert len(block) == (2 if logistic else 1)
        for i in range(count):
            one = m.batch_inputs(model, pooled, rows[i])
            assert [part[i].tobytes() for part in block] == [part.tobytes() for part in one]


class TestSolveOptimum:
    def test_two_client_closed_form(self):
        datasets = [m.ClientDataset(np.array([[0.0]])),
                    m.ClientDataset(np.array([[2.0]]))]
        opt = m.solve_optimum(QUADRATIC, datasets)
        assert opt.w_star.tolist() == [1.0]
        assert opt.f_star == 0.5

    def test_single_client_global_equals_local(self):
        data = m.ClientDataset(np.random.default_rng([13]).standard_normal((9, 3)))
        opt = m.solve_optimum(QUADRATIC, [data])
        local_w = data.features.mean(axis=0)
        assert np.array_equal(opt.w_star, local_w)
        assert opt.f_star == m.loss(QUADRATIC, local_w, data.features)

    def test_single_sample_clients_interpolate(self):
        datasets = [m.ClientDataset(row[None, :])
                    for row in np.random.default_rng([14]).standard_normal((5, 2))]
        for ds in datasets:
            assert m.solve_optimum(QUADRATIC, [ds]).f_star == 0.0

    def test_gradient_at_optimum_exactly_zero(self):
        datasets = [m.ClientDataset(np.random.default_rng([15]).standard_normal((7, 3)))
                    for _ in range(3)]
        opt = m.solve_optimum(QUADRATIC, datasets)
        pooled = m.pooled_dataset(datasets)
        g = m.grad(QUADRATIC, opt.w_star, pooled.features)
        assert np.array_equal(g, np.zeros(3))

    def test_logistic_reaches_tolerance(self):
        model = m.LossModel(m.LossKind.LOGISTIC, regularization=0.1)
        rng = np.random.default_rng([16])
        x = rng.standard_normal((60, 4))
        y = (rng.random(60) < 0.5).astype(np.int64)
        datasets = [m.ClientDataset(x[:30], y[:30]), m.ClientDataset(x[30:], y[30:])]
        opt = m.solve_optimum(model, datasets)
        pooled = m.pooled_dataset(datasets)
        assert np.linalg.norm(m.grad(model, opt.w_star, pooled.features,
                                     pooled.labels)) <= 1e-9

    def test_solver_failure_raises(self):
        model = m.LossModel(m.LossKind.LOGISTIC, regularization=0.1)
        rng = np.random.default_rng([17])
        data = m.ClientDataset(rng.standard_normal((20, 3)),
                               (rng.random(20) < 0.5).astype(np.int64))
        with pytest.raises(m.SolverError):
            m.solve_optimum(model, [data], max_iters=1)

    def test_logistic_requires_regularization(self):
        model = m.LossModel(m.LossKind.LOGISTIC)
        data = m.ClientDataset(np.array([[1.0]]), np.array([1]))
        with pytest.raises(ValueError):
            m.solve_optimum(model, [data])


class TestEstimateSmoothness:
    def test_quadratic_is_one(self):
        assert m.estimate_smoothness(QUADRATIC, []) == 1.0

    def test_logistic_matches_eigensolver(self):
        model = m.LossModel(m.LossKind.LOGISTIC, regularization=0.2)
        rng = np.random.default_rng([18])
        x = rng.standard_normal((40, 5)) * np.array([1.0, 2.0, 0.5, 1.0, 3.0])
        y = (rng.random(40) < 0.5).astype(np.int64)
        data = m.ClientDataset(x, y)
        gram = x.T @ x / x.shape[0]
        expected = 0.2 + float(np.linalg.eigvalsh(gram)[-1])
        assert m.estimate_smoothness(model, [data]) == pytest.approx(expected, rel=1e-6)

