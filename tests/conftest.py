import os
import threading

import hypothesis
import numpy as np
import pytest

import adahuber
from adahuber import _forkjoin, irls
from adahuber.core import Dataset

# a child run as `python -m adahuber.cli` imports the package these tests
# import, installed or not (pytest's `pythonpath` reaches no child process)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    os.path.dirname(os.path.dirname(adahuber.__file__)),
    os.environ.get("PYTHONPATH"))))

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=100
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def checked_solves(monkeypatch):
    """Counts of the systems np.linalg.solve solves while the test runs:
    ``checked_solves()`` is (the Gram systems of Dataset.ols_beta, the
    systems of irls.solve_spd).  It first checks that the calls to
    np.linalg.eigvalsh and np.linalg.solve alternate, each solve taking the
    matrix whose spectrum was taken just before it: every solve is
    rank-checked, and no spectrum is taken for anything else."""
    calls, spd = [], []

    def recorded(name, real):
        def call(a, *rest):
            calls.append((name, a.tobytes()))
            return real(a, *rest)
        return call

    monkeypatch.setattr(np.linalg, "eigvalsh",
                        recorded("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "solve", recorded("solve", np.linalg.solve))
    real_spd = irls.solve_spd

    def solve_spd(gram, rhs):
        spd.append(gram)
        return real_spd(gram, rhs)

    monkeypatch.setattr(irls, "solve_spd", solve_spd)

    def count():
        assert [name for name, _ in calls] == (
            ["eigvalsh", "solve"] * (len(calls) // 2)), [n for n, _ in calls]
        assert all(calls[i][1] == calls[i + 1][1]
                   for i in range(0, len(calls), 2))
        return len(calls) // 2 - len(spd), len(spd)

    return count


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


@pytest.fixture
def forks(monkeypatch):
    """The number of active threads at each fork made while the test runs."""
    real, counts = os.fork, []

    def counted():
        counts.append(threading.active_count())
        return real()

    monkeypatch.setattr(_forkjoin.os, "fork", counted)
    return counts
