"""The event queue's ordering contract, tested through ``Environment``.

The queue is a binary heap of ``(time, priority, seq, event)`` entries
with a unique ``seq``, so events run in one total order: by time, then
priority (``URGENT`` before ``NORMAL``), then scheduling order.
"""

import math
import random

from repro.des import NORMAL, URGENT, Environment


def _logging_event(env, log, tag):
    event = env.event()
    event.callbacks.append(lambda _event: log.append(tag))
    return event


class TestQueueOrder:
    def test_run_order_matches_sorted_reference(self):
        rng = random.Random(7)
        env = Environment()
        log, entries = [], []
        for seq in range(500):
            delay = rng.choice([0.0, 1.5, 2.25, 10.0, rng.random() * 50])
            priority = rng.choice([URGENT, NORMAL, 2])
            env.schedule(_logging_event(env, log, seq), delay, priority)
            entries.append((delay, priority, seq))
        env.run()
        assert log == [seq for _, _, seq in sorted(entries)]
        assert env.perf_stats()["pending"] == 0

    def test_events_scheduled_while_running_keep_the_order(self):
        # Callbacks schedule new events at or after the current time,
        # as model code does; the run must still pop the global minimum.
        rng = random.Random(21)
        env = Environment()
        log, expected = [], []

        def spawn(_event):
            for _ in range(rng.randrange(3)):
                if len(expected) >= 400:
                    return
                tag = len(expected)
                delay = rng.choice([0.0, rng.random() * 20])
                event = _logging_event(env, log, tag)
                event.callbacks.append(spawn)
                env.schedule(event, delay)
                expected.append((env.now + delay, tag))

        for _ in range(5):
            seed_event = env.event()
            seed_event.callbacks.append(spawn)
            env.schedule(seed_event, rng.random())
        env.run()
        times = {tag: at for at, tag in expected}
        assert sorted(log) == sorted(times)
        run_times = [times[tag] for tag in log]
        assert run_times == sorted(run_times)

    def test_ties_break_on_priority_then_seq(self):
        env = Environment()
        log = []
        env.schedule(_logging_event(env, log, "late-prio"), 1.0, 2)
        env.schedule(_logging_event(env, log, "normal"), 1.0, NORMAL)
        env.schedule(_logging_event(env, log, "late-prio-2"), 1.0, 2)
        env.schedule(_logging_event(env, log, "urgent"), 1.0, URGENT)
        env.run()
        assert log == ["urgent", "normal", "late-prio", "late-prio-2"]

    def test_horizon_is_closed_and_peek_sees_the_rest(self):
        env = Environment()
        log = []
        after = math.nextafter(5.0, math.inf)
        env.schedule(_logging_event(env, log, "after"), after)
        env.schedule(_logging_event(env, log, "at"), 5.0)
        env.run(until=5.0)
        assert log == ["at"]
        assert env.peek() == after
        assert env.perf_stats()["pending"] == 1
        env.step()
        assert log == ["at", "after"]
        assert env.peek() == math.inf

    def test_peak_heap_depth_is_the_deepest_queue(self):
        env = Environment()
        for delay in (3.0, 1.0, 2.0):
            env.timeout(delay)
        env.run(until=1.5)
        env.timeout(0.25)
        stats = env.perf_stats()
        assert stats["peak_heap_depth"] == 3
        assert stats["pending"] == 3
        assert stats["events_scheduled"] == 4
        assert stats["events_executed"] == 1
