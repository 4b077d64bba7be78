"""Shared test settings and fixtures.

``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` profile: no deadlines, and every
failing example prints its ``@reproduce_failure`` blob, so a failure seen
only in CI can be replayed locally.
"""

import os
import threading

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", print_blob=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


@pytest.fixture
def thread_starts(monkeypatch):
    """The names of the threads started during the test, in start order."""
    started = []
    start = threading.Thread.start

    def counting(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


@pytest.fixture(params=[1, -1], ids=["positive", "negative"])
def long_double_past_float(request):
    """A finite long double beyond the float range, where long double is wider."""
    if np.finfo(np.longdouble).max == np.finfo(np.float64).max:
        pytest.skip("long double is no wider than float here")
    return request.param * np.longdouble("1e400")
