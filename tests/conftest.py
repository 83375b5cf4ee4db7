import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from casar import neuralcore
from casar.datamodel import DatasetConfig
from casar.synth import SynthSpec, synth_generate

# property tests run numpy-heavy bodies; wall-clock deadlines just flake on CI
settings.register_profile(
    "casar", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("casar")


@pytest.fixture(scope="session")
def tiny_synth():
    """A small but fully labeled synthetic dataset shared across tests.

    4 classes x 3 clips keeps the slowest consumers (training smoke tests)
    around a second.  Session scope is safe: everything returned is
    immutable by construction.
    """
    spec = SynthSpec(class_count=4, clips_per_class=3, frames_range=(8, 14), seed=3)
    return synth_generate(spec)


@pytest.fixture(scope="session")
def tiny_config():
    """DatasetConfig matching the tiny_synth fixture's label space."""
    return DatasetConfig(action_class_count=4)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def pin_adam_threads(monkeypatch):
    """``pin_adam_threads(k)`` makes ``neuralcore._adam_threads`` return k, whatever the host.

    ``adam_step`` then splits a long vector into at most k ranges, so a
    test starts at most k - 1 threads.
    """
    def pin(k: int) -> None:
        monkeypatch.setattr(neuralcore, "_adam_threads", lambda: k)
    return pin


@pytest.fixture()
def restore_blas_threads():
    """Give numpy's BLAS back, after the test, the thread count it had before."""
    caller = neuralcore.blas_threads()
    yield
    neuralcore.set_blas_threads(caller)
