"""Tests for events, processes, interrupts and conditions."""

import pytest

from repro.des import AnyOf, Environment, Interrupt


class TestEventLifecycle:
    def test_fresh_event_is_pending(self):
        env = Environment()
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed
        with pytest.raises(RuntimeError):
            ev.value

    def test_succeed_then_value(self):
        env = Environment()
        ev = env.event()
        ev.succeed(99)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 99

    def test_double_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()
        with pytest.raises(RuntimeError):
            ev.fail(ValueError("x"))

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_timeout_negative_delay(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_carries_value(self):
        env = Environment()
        received = []
        def proc(env):
            value = yield env.timeout(1, value="payload")
            received.append(value)
        env.process(proc(env))
        env.run()
        assert received == ["payload"]


class TestProcess:
    def test_process_waits_for_process(self):
        env = Environment()
        log = []
        def child(env):
            yield env.timeout(4)
            return "child-result"
        def parent(env):
            result = yield env.process(child(env))
            log.append((env.now, result))
        env.process(parent(env))
        env.run()
        assert log == [(4.0, "child-result")]

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(TypeError, match="is not a generator"):
            env.process(lambda: None)
        assert env.perf_stats()["events_scheduled"] == 0

    def test_yield_non_event_raises(self):
        env = Environment()
        def bad(env):
            yield 42
        env.process(bad(env))
        with pytest.raises(TypeError,
                           match="process yielded 42, which is not an "
                                 "Event"):
            env.run()
        assert env.active_process is None

    def test_yield_foreign_event_raises(self):
        env1 = Environment()
        env2 = Environment()
        def bad(env):
            yield env2.timeout(1)
        env1.process(bad(env1))
        with pytest.raises(ValueError,
                           match="process yielded an event from a "
                                 "different environment"):
            env1.run()
        assert env1.active_process is None

    def test_name_is_the_generator_function(self):
        env = Environment()
        def worker(env):
            yield env.timeout(1)
        process = env.process(worker(env))
        assert process.name == "worker"
        assert repr(process) == "<Process worker alive>"
        env.run()
        assert repr(process) == "<Process worker dead>"

    def test_uncaught_process_exception_propagates(self):
        env = Environment()
        def failing(env):
            yield env.timeout(1)
            raise RuntimeError("boom")
        env.process(failing(env))
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_waiting_parent_sees_child_failure(self):
        env = Environment()
        caught = []
        def child(env):
            yield env.timeout(1)
            raise ValueError("child died")
        def parent(env):
            try:
                yield env.process(child(env))
            except ValueError as error:
                caught.append(str(error))
        env.process(parent(env))
        env.run()
        assert caught == ["child died"]

    def test_is_alive(self):
        env = Environment()
        def proc(env):
            yield env.timeout(5)
        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_yield_already_processed_event_continues_immediately(self):
        env = Environment()
        log = []
        ev = env.event()
        ev.succeed("early")
        def proc(env):
            yield env.timeout(3)
            value = yield ev  # processed long ago
            log.append((env.now, value))
        env.process(proc(env))
        env.run()
        assert log == [(3.0, "early")]


class TestInterrupt:
    def test_interrupt_wakes_sleeper(self):
        env = Environment()
        log = []
        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt as interrupt:
                log.append((env.now, interrupt.cause))
        def interrupter(env, victim):
            yield env.timeout(2)
            victim.interrupt(cause="wake-up")
        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        env.run()
        assert log == [(2.0, "wake-up")]

    def test_interrupted_process_can_continue(self):
        env = Environment()
        log = []
        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(1)
            log.append(env.now)
        def interrupter(env, victim):
            yield env.timeout(5)
            victim.interrupt()
        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        env.run()
        assert log == [6.0]

    def test_interrupt_dead_process_raises(self):
        env = Environment()
        def quick(env):
            yield env.timeout(1)
        p = env.process(quick(env))
        env.run()
        with pytest.raises(RuntimeError):
            p.interrupt()

    def test_abandoned_event_does_not_resume(self):
        env = Environment()
        resumptions = []
        def sleeper(env):
            try:
                yield env.timeout(10)
                resumptions.append("timeout")
            except Interrupt:
                resumptions.append("interrupt")
            yield env.timeout(20)  # outlive the abandoned timeout
        def interrupter(env, victim):
            yield env.timeout(1)
            victim.interrupt()
        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        env.run()
        assert resumptions == ["interrupt"]


class TestConditions:
    def test_any_of_fires_on_first(self):
        env = Environment()
        log = []
        def proc(env):
            fast = env.timeout(1, value="fast")
            slow = env.timeout(5, value="slow")
            results = yield env.any_of([fast, slow])
            log.append((env.now, list(results.values())))
        env.process(proc(env))
        env.run()
        assert log[0][0] == 1.0
        assert log[0][1] == ["fast"]

    def test_all_of_waits_for_all(self):
        env = Environment()
        log = []
        def proc(env):
            a = env.timeout(1, value="a")
            b = env.timeout(5, value="b")
            results = yield env.all_of([a, b])
            log.append((env.now, sorted(results.values())))
        env.process(proc(env))
        env.run()
        assert log == [(5.0, ["a", "b"])]

    def test_empty_condition_succeeds_immediately(self):
        env = Environment()
        log = []
        def proc(env):
            result = yield env.all_of([])
            log.append(result)
        env.process(proc(env))
        env.run()
        assert log == [{}]

    def test_any_of_with_already_processed_event(self):
        env = Environment()
        ev = env.event()
        ev.succeed("pre")
        log = []
        def proc(env):
            yield env.timeout(1)
            results = yield env.any_of([ev, env.timeout(10)])
            log.append((env.now, list(results.values())))
        env.process(proc(env))
        env.run(until=20)
        assert log == [(1.0, ["pre"])]

    def test_condition_propagates_failure(self):
        env = Environment()
        caught = []
        def failer(env):
            yield env.timeout(1)
            raise ValueError("inner")
        def waiter(env):
            try:
                yield env.all_of([env.process(failer(env)),
                                  env.timeout(10)])
            except ValueError as error:
                caught.append(str(error))
        env.process(waiter(env))
        env.run()
        assert caught == ["inner"]

    def test_foreign_environment_rejected(self):
        env1 = Environment()
        env2 = Environment()
        with pytest.raises(ValueError):
            AnyOf(env1, [env2.timeout(1)])
