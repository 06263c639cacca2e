import hypothesis
import numpy as np
import pytest

from adahuber.core import Dataset

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=100
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The matrices passed to np.linalg.eigvalsh while the test runs."""
    real, calls = np.linalg.eigvalsh, []

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.fixture
def ols_solves(monkeypatch):
    """The Datasets that solve for their cached ``ols_beta`` while the test
    runs, one entry per solve."""
    prop = Dataset.__dict__["ols_beta"]
    real, calls = prop.func, []

    def counted(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(prop, "func", counted)
    return calls
