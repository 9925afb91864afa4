"""Fixtures shared by the test modules."""

import pytest

from covclust import _pool


@pytest.fixture
def use_workers(monkeypatch):
    """``use_workers(n)`` lets every pooled pass see ``n`` CPUs.

    A pass then runs ``min(n, items, its cap)`` workers: the fit's
    kernel-moment pass and the cross-validation split loop alike.
    """
    return lambda n: monkeypatch.setattr(_pool, "_available_cores", lambda: n)


@pytest.fixture
def hidden_blas_pin(monkeypatch):
    """numpy's OpenBLAS without its thread-count call, as on a build that lacks it."""
    _pool._openblas_thread_calls.cache_clear()
    monkeypatch.setattr(_pool, "_SET_THREADS", "no_such_symbol")
    yield
    # loaded again, with the real name, on the next call after monkeypatch undoes
    _pool._openblas_thread_calls.cache_clear()
