"""DES kernel edge cases: run(until=...) corner semantics, failure
re-raise, and cancellable waiters for interrupted processes."""

import pytest

from repro.des import Environment, Store
from repro.des.environment import EmptySchedule
from repro.des.events import Interrupt
from repro.des.resources import Resource


class TestRunUntilEvent:
    def test_triggered_but_unprocessed_event(self):
        env = Environment()
        event = env.event()
        event.succeed("payload")
        assert event.triggered and not event.processed
        assert env.run(until=event) == "payload"
        assert event.processed

    def test_already_processed_event_returns_immediately(self):
        env = Environment()
        event = env.timeout(1, value="tick")
        env.run()
        assert event.processed
        assert env.run(until=event) == "tick"

    def test_empty_schedule_raised_when_queue_drains(self):
        env = Environment()
        never = env.event()

        def quick(env):
            yield env.timeout(1)

        env.process(quick(env))
        with pytest.raises(EmptySchedule):
            env.run(until=never)
        # The queue really ran dry: the clock advanced to the last event.
        assert env.now == 1.0

    def test_run_until_past_time_rejected(self):
        env = Environment()
        env.process((env.timeout(5) for _ in range(1)))
        env.run(until=5)
        with pytest.raises(ValueError):
            env.run(until=2)


class TestFailurePropagation:
    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-0.5)

    def test_undefused_failure_reraised_from_run(self):
        env = Environment()

        def exploder(env):
            yield env.timeout(1)
            raise RuntimeError("boom")

        env.process(exploder(env))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_defused_failure_swallowed(self):
        env = Environment()

        def exploder(env):
            yield env.timeout(1)
            raise RuntimeError("boom")

        process = env.process(exploder(env))
        process._defused = True
        env.run()  # no raise
        assert env.now == 1.0


class TestCancellableWaiters:
    def test_interrupted_getter_does_not_steal_items(self):
        """An interrupted process abandoning a StoreGet must withdraw
        its waiter, or it silently steals the next item."""
        env = Environment()
        store = Store(env)
        got = []

        def victim(env):
            get_event = store.get()
            try:
                yield get_event
            except Interrupt:
                get_event.cancel()
            yield env.timeout(100)

        def bystander(env):
            item = yield store.get()
            got.append((env.now, item))

        target = env.process(victim(env))
        env.process(bystander(env))

        def script(env):
            yield env.timeout(1)
            target.interrupt("fault")
            yield env.timeout(1)
            yield store.put("item")

        env.process(script(env))
        env.run()
        assert got == [(2.0, "item")]

    def test_interrupted_putter_frees_slot(self):
        env = Environment()
        store = Store(env, capacity=1)
        env.run(until=store.put("occupies"))
        placed = []

        def victim(env):
            put_event = store.put("blocked")
            try:
                yield put_event
            except Interrupt:
                put_event.cancel()
            yield env.timeout(100)

        def bystander(env):
            yield env.timeout(2)
            yield store.put("second")
            placed.append(env.now)

        target = env.process(victim(env))
        env.process(bystander(env))

        def script(env):
            yield env.timeout(1)
            target.interrupt("fault")
            yield env.timeout(2)
            item = yield store.get()
            assert item == "occupies"

        env.process(script(env))
        env.run()
        # The bystander's put went through once a slot freed; the
        # cancelled put never materialized.
        assert placed == [3.0]
        assert store.items == ["second"]

    def test_interrupted_requester_does_not_hold_grant(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        granted = []

        def holder(env):
            request = resource.request()
            yield request
            yield env.timeout(5)
            resource.release(request)

        def victim(env):
            request = resource.request()
            try:
                yield request
            except Interrupt:
                request.cancel()
            yield env.timeout(100)

        def bystander(env):
            request = resource.request()
            yield request
            granted.append(env.now)
            resource.release(request)

        env.process(holder(env))
        target = env.process(victim(env))
        env.process(bystander(env))

        def script(env):
            yield env.timeout(1)
            target.interrupt("fault")

        env.process(script(env))
        env.run()
        # The grant freed at t=5 goes to the bystander, not the ghost.
        assert granted == [5.0]

    def test_cancel_after_trigger_is_noop(self):
        env = Environment()
        store = Store(env)
        env.run(until=store.put("x"))
        get_event = store.get()
        env.run(until=get_event)
        get_event.cancel()  # already granted: must not corrupt state
        assert get_event.value == "x"
