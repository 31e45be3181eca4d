"""Fixtures shared by the test modules.  R3 and models3 are built once
per module: each module gets a fresh ring, whose memo of powers and
divisors starts cold, so one module's counts do not see another's."""

from collections import Counter

import pytest

from p2models.dvr import make_ring
from p2models.models import enumerate_models


@pytest.fixture(scope="module")
def R3():
    return make_ring(3, 12)


@pytest.fixture(scope="module")
def models3(R3):
    return enumerate_models(R3, 3)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, *names) makes each call of owner.name add one to
    counts[name] and returns counts, one Counter for the test.  With
    key=fn, a call adds one to counts[name, fn(*args)] instead."""
    counts = Counter()

    def wrap(owner, *names, key=None):
        for name in names:
            def counted(*args, fn=getattr(owner, name), name=name):
                counts[name if key is None else (name, key(*args))] += 1
                return fn(*args)
            monkeypatch.setattr(owner, name, counted)
        return counts
    return wrap
