import os

import numpy as np
import pytest

import shappaths.workers
from shappaths import Dataset, SimulationSpec, SplitSpec, simulate
from shappaths.data import split_indices


@pytest.fixture(scope="session")
def sim_small():
    """600-sample simulated dataset, 6 features: fast but structured."""
    return simulate(SimulationSpec(n_samples=600, n_features=6, seed=11))


@pytest.fixture(scope="session")
def sim_small_split(sim_small):
    train, test = split_indices(sim_small.labels, SplitSpec(train_fraction=0.7, seed=11))
    return sim_small.take(train), sim_small.take(test)


@pytest.fixture(scope="session")
def two_class_ds():
    """Linearly separable two-class data with a margin on feature 0."""
    rng = np.random.default_rng(5)
    X = rng.uniform(-2, 2, size=(120, 3))
    X[:, 0] = np.sign(X[:, 0]) * (0.2 + np.abs(X[:, 0]))
    y = (X[:, 0] > 0).astype(int)
    return Dataset(X, y, ("a", "b", "c"), ("neg", "pos"))


@pytest.fixture()
def workers(monkeypatch):
    """Sets workers.MAX_WORKERS (1 or 2) on a host that reports two CPUs,
    and counts the forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)

    def set_max(count):
        assert count in (1, 2)
        monkeypatch.setattr(shappaths.workers, "MAX_WORKERS", count)
        forks.clear()
        return forks

    return set_max
