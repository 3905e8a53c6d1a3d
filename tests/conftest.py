"""Shared fixtures: the desk-scale quadratic testbed and cached baseline runs.

The convergence statements bound expectations over the algorithm's
randomness for a fixed problem, so the testbed builds one dataset and runs
it under ten different run seeds; seed means approximate the expectation.
"""

import numpy as np
import pytest

from fedquant import analysis as an
from fedquant import federation as fed
from fedquant import models as m
from fedquant.data import tight_weight_bound

TESTBED = dict(
    num_clients=20, clients_per_round=5, local_steps=5, rounds=2000,
    batch_size=5, mu=1.0, lipschitz=1.0, dimension=10, spread=1.0,
    samples_per_client=20, noise_std=0.5,
)
RUN_SEEDS = tuple(range(10))
DATA_SEED = 0


def make_testbed_config(**overrides) -> fed.FederationConfig:
    fields = dict(TESTBED)
    fields.setdefault("seed", DATA_SEED)
    fields.update(overrides)
    return fed.FederationConfig(**fields)


class QuadraticTestbed:
    def __init__(self):
        cfg = make_testbed_config()
        self.model, self.datasets = fed.build_problem(cfg)
        self.optimum = m.solve_optimum(self.model, self.datasets)
        self.weight_bound = tight_weight_bound(self.datasets, TESTBED["batch_size"])
        self._gap_cache: dict = {}

    def gaps(self, **overrides) -> np.ndarray:
        """(seeds, rounds) gap trajectories for a mode, cached per mode."""
        key = tuple(sorted((k, str(v)) for k, v in overrides.items()))
        if key not in self._gap_cache:
            rows = []
            for seed in RUN_SEEDS:
                cfg = make_testbed_config(seed=seed, **overrides)
                records = fed.run_federation(cfg, self.model, self.datasets)
                rows.append([r.gap for r in records])
            self._gap_cache[key] = np.array(rows)
        return self._gap_cache[key]

    def bound_params(self) -> an.BoundParams:
        cfg = make_testbed_config(weight_bound=self.weight_bound)
        return an.bound_params(cfg, self.model, self.datasets, self.optimum)


@pytest.fixture(scope="session")
def quadratic_testbed() -> QuadraticTestbed:
    return QuadraticTestbed()
