"""The heap event queue seen through ``Environment.peek()``.

The ordering contract itself is in ``tests/des/test_event_queue.py``.
"""

import math

import pytest

from repro.des import Environment


class TestOrderingContract:
    # ``HeapScheduler`` was the heap queue's class before
    # ``Environment`` took the heap over; the id keeps the test's name.
    @pytest.mark.parametrize("make_env", [Environment],
                             ids=["HeapScheduler"])
    def test_peek_time_empty_is_inf(self, make_env):
        env = make_env()
        assert env.peek() == math.inf
        assert env.perf_stats()["pending"] == 0
        env.schedule(env.event(), delay=3.0)
        assert env.peek() == 3.0
        assert env.perf_stats()["pending"] == 1
        env.run()
        assert env.peek() == math.inf
