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
