import hypothesis
import numpy as np
import pytest

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
