"""``Traversal``: a path of unit-capacity resources held in turn.

The primitive must be indistinguishable from the generator process it
replaces::

    for resource in path:
        with resource.request() as claim:
            yield claim
            yield env.timeout(hold)

same events in the same ``(time, priority, seq)`` order, same resource
metrics, same trace records, same failure semantics.
"""

import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import (
    Environment,
    Interrupt,
    Resource,
    Traversal,
    kernel_counters,
)
from repro.obs import MetricRegistry, Tracer


def reference(env, path, hold, value, log):
    """The generator loop a traversal replaces, named like the NoC's."""

    def transfer():
        for resource in path:
            with resource.request() as claim:
                yield claim
                yield env.timeout(hold)
        log.append((value, env.now))
        return value

    return env.process(transfer())


def traversal(env, path, hold, value, log):
    return env.traverse(path, hold, value=value, name="transfer",
                        done=lambda value, _path: log.append(
                            (value, env.now)))


def simulate(start, plan, pool_size):
    """Run ``plan`` — ``(start_at, resource indices, hold)`` per
    traversal — with ``start`` and return everything observable."""
    registry = MetricRegistry()
    tracer = Tracer()
    env = Environment(metrics=registry, tracer=tracer)
    # Named and anonymous resources: both metric layouts are covered.
    pool = [Resource(env, capacity=1,
                     name=f"link{i}" if i % 2 else None)
            for i in range(pool_size)]
    log = []
    ends = []

    def launcher(value, at, indices, hold):
        def launch(_timeout):
            path = tuple(pool[i] for i in indices)
            ends.append(start(env, path, hold, value, log))
        env.timeout(at).callbacks.append(launch)

    for value, (at, indices, hold) in enumerate(plan):
        launcher(value, at, indices, hold)
    env.run()
    return {
        "log": log,
        "values": [end.value for end in ends],
        "registry": json.dumps(registry.snapshot(), sort_keys=True),
        "perf": env.perf_stats(),
        "trace": [(e.time, e.kind, e.name, e.attrs)
                  for e in tracer.events],
    }


plans = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1.0, 2.5]),           # tied starts
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
        st.sampled_from([0.5, 1.0, 1.5]),
    ),
    min_size=1, max_size=12,
)


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(plan=plans)
    def test_matches_the_generator_loop(self, plan):
        expected = simulate(reference, plan, pool_size=4)
        actual = simulate(traversal, plan, pool_size=4)
        assert actual == expected

    def test_empty_path_ends_at_once(self):
        env = Environment()
        log = []
        walk = traversal(env, (), 1.0, "v", log)
        assert walk.is_alive
        env.run()
        assert log == [("v", 0.0)]
        assert walk.processed and walk.value == "v"

    def test_path_callable_is_called_once_at_the_first_step(self):
        env = Environment()
        link = Resource(env)
        calls = []

        def path():
            calls.append(env.now)
            return (link, link)

        walk = env.traverse(path, 2.0, value="v")
        assert calls == []
        env.run()
        assert calls == [0.0]
        assert env.now == 4.0 and walk.value == "v"

    def test_waiters_resume_with_the_value(self):
        env = Environment()
        link = Resource(env)
        got = []

        def waiter(walk):
            got.append((yield walk))

        walk = env.traverse((link,), 1.0, value="packet")
        env.process(waiter(walk))
        env.run()
        assert got == ["packet"]


def holder_and_waiter(env, link):
    """A traversal holding ``link`` for 10 and one queued behind it."""
    first = env.traverse((link,), 10.0, value="first")
    second = env.traverse((link,), 10.0, value="second")
    return first, second


class TestInterrupt:
    def test_while_waiting_withdraws_the_claim(self):
        env = Environment()
        link = Resource(env)
        first, second = holder_and_waiter(env, link)
        caught = []

        def watcher():
            try:
                yield second
            except Interrupt as interrupt:
                caught.append((env.now, interrupt.cause))

        def interrupter():
            yield env.timeout(3.0)
            second.interrupt("abort")

        env.process(watcher())
        env.process(interrupter())
        env.run()
        assert caught == [(3.0, "abort")]
        assert not second.ok
        assert first.value == "first" and env.now == 10.0
        assert link.users == [] and link.queue == []

    def test_while_holding_releases_to_the_next_waiter(self):
        env = Environment()
        link = Resource(env)
        first, second = holder_and_waiter(env, link)

        def interrupter():
            yield env.timeout(4.0)
            first.interrupt()

        env.process(interrupter())
        with pytest.raises(Interrupt):
            env.run()
        assert env.now == 4.0 and not first.ok
        assert link.users == [second._claim]
        env.run()
        assert second.value == "second" and env.now == 14.0

    def test_interrupt_after_the_end_is_refused(self):
        env = Environment()
        walk = env.traverse((Resource(env),), 1.0)
        env.run()
        with pytest.raises(RuntimeError, match="terminated"):
            walk.interrupt()


class TestFailure:
    def test_error_in_the_path_raises_from_run(self):
        env = Environment()

        def path():
            raise ValueError("no route")

        walk = env.traverse(path, 1.0)
        assert walk.is_alive  # creating it does not raise
        with pytest.raises(ValueError, match="no route"):
            env.run()
        assert env.now == 0.0 and not walk.ok

    def test_invalid_hold_releases_the_claim(self):
        env = Environment()
        link = Resource(env)
        walk = env.traverse((link,), -1.0)
        with pytest.raises(ValueError, match="negative delay"):
            env.run()
        assert not walk.ok
        assert link.users == [] and link.queue == []

    def test_error_in_done_fails_the_traversal(self):
        env = Environment()
        link = Resource(env)

        def done(value, path):
            raise RuntimeError("accounting")

        walk = env.traverse((link,), 1.0, done=done)
        with pytest.raises(RuntimeError, match="accounting"):
            env.run()
        assert env.now == 1.0 and not walk.ok
        assert link.users == []


class TestDroppedSimulation:
    def test_collection_records_no_grants(self):
        gc.collect()
        registry = MetricRegistry()
        env = Environment(metrics=registry)
        link = Resource(env, capacity=1, name="link")
        for _ in range(20):
            env.traverse((link, link), 1.0)
        env.run(until=2.5)  # one holder mid-transfer, the rest queued
        assert link.count == 1 and link.queue
        before = json.dumps(registry.snapshot(), sort_keys=True)
        counters = kernel_counters().snapshot()
        del env, link
        gc.collect()
        assert json.dumps(registry.snapshot(), sort_keys=True) == before
        assert kernel_counters().snapshot() == counters


class TestTracing:
    def test_steps_are_attributed_to_the_name(self):
        tracer = Tracer()
        env = Environment(tracer=tracer)
        link = Resource(env)
        for _ in range(2):
            env.traverse((link, Resource(env)), 1.0, name="transfer")
        env.run()
        steps = [e for e in tracer.events if e.kind == "step"]
        # Two bootstraps, one queued grant, four hold timeouts.
        assert len(steps) == 7
        assert all(e.attrs.get("proc") == "transfer" for e in steps)
        kinds = [(e.kind, e.name) for e in tracer.events
                 if e.kind.startswith("process")]
        assert kinds == [("process-start", "transfer")] * 2 \
            + [("process-end", "transfer")] * 2

    def test_is_a_process(self):
        env = Environment()
        walk = env.traverse((), 1.0, name="hop")
        assert isinstance(walk, Traversal)
        assert walk.name == "hop"
        assert repr(walk) == "<Traversal hop alive>"
