"""Events decided when they are created complete in place.

A grant on a free resource, a get from a non-empty store, a put into a
store with room and the normal end of a process nobody waits on are
created processed: they never enter the event queue, and a process
that yields one carries on within the same step.  Failures, and grants
or items handed to a waiter that is already suspended, stay queued.
"""

import pytest

from repro.des import (
    Environment,
    Interrupt,
    PriorityResource,
    Resource,
    Store,
)


def scheduled(env):
    return env.perf_stats()["events_scheduled"]


class TestCreatedProcessed:
    @pytest.mark.parametrize("resource_cls", [Resource, PriorityResource])
    def test_request_on_free_resource(self, resource_cls):
        env = Environment()
        cpu = resource_cls(env, capacity=1)
        before = scheduled(env)
        granted = cpu.request()
        assert granted.processed and granted.ok and granted.value is None
        assert cpu.users == [granted]
        waiting = cpu.request()
        assert not waiting.triggered
        assert scheduled(env) == before
        # Handing the slot to the suspended waiter is still queued.
        cpu.release(granted)
        assert waiting.triggered and not waiting.processed
        assert scheduled(env) == before + 1

    def test_get_from_non_empty_store(self):
        env = Environment()
        store = Store(env)
        store.items.append("frame")
        before = scheduled(env)
        get = store.get()
        assert get.processed and get.value == "frame"
        assert store.items == []
        assert scheduled(env) == before

    def test_put_into_store_with_room(self):
        env = Environment()
        store = Store(env, capacity=1)
        before = scheduled(env)
        put = store.put("a")
        assert put.processed and store.items == ["a"]
        blocked = store.put("b")
        assert not blocked.triggered
        assert scheduled(env) == before
        # The get completes in place; the room it frees goes to the
        # suspended putter through the queue.
        assert store.get().value == "a"
        assert blocked.triggered and not blocked.processed
        assert scheduled(env) == before + 1

    def test_item_for_a_suspended_getter_is_queued(self):
        env = Environment()
        store = Store(env)
        get = store.get()
        before = scheduled(env)
        put = store.put("x")
        assert put.processed
        assert get.triggered and not get.processed and get.value == "x"
        assert scheduled(env) == before + 1

    def test_cancel_on_in_place_get_is_a_no_op(self):
        env = Environment()
        store = Store(env)
        store.put("frame")
        get = store.get()
        assert get.processed
        get.cancel()
        assert get.value == "frame" and store.items == []
        store.put("next")
        assert store.items == ["next"]

    def test_process_carries_on_within_the_step(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        store = Store(env, capacity=2)
        log = []

        def worker():
            with cpu.request() as claim:
                yield claim
                yield store.put(1)
                item = yield store.get()
                log.append((env.now, item))

        env.process(worker())
        env.step()  # the bootstrap runs the whole body
        assert log == [(0.0, 1)]
        assert env.perf_stats()["pending"] == 0


class TestProcessEnd:
    def test_waiter_less_end_schedules_nothing(self):
        env = Environment()

        def body():
            yield env.timeout(1)
            return "done"

        proc = env.process(body())
        env.run()
        assert proc.processed and proc.value == "done"
        # One bootstrap and one timeout; the end is never queued.
        assert scheduled(env) == 2
        assert env.perf_stats()["events_executed"] == 2

    def test_waited_on_end_is_queued(self):
        env = Environment()
        log = []

        def child():
            yield env.timeout(1)
            return 7

        def parent(proc):
            log.append((yield proc))

        proc = env.process(child())
        env.process(parent(proc))
        env.run()
        assert log == [7]
        # Two bootstraps, one timeout and the end the parent waits on.
        assert scheduled(env) == 4

    def test_waiter_less_failure_still_raises_from_run(self):
        env = Environment()

        def fine():
            yield env.timeout(1)

        def broken():
            yield env.timeout(1)
            raise KeyError("lost")

        env.process(fine())
        proc = env.process(broken())
        with pytest.raises(KeyError, match="lost"):
            env.run()
        assert proc.processed and not proc.ok
        # Two bootstraps and two timeouts; only the failing end queues.
        assert scheduled(env) == 5

    def test_yield_on_ended_process_returns_its_value(self):
        env = Environment()
        log = []

        def child():
            return 7
            yield  # pragma: no cover - makes this a generator

        def reader(proc):
            log.append((yield proc))

        proc = env.process(child())
        env.process(reader(proc))
        env.step()  # child's bootstrap: it ends at once
        assert proc.processed
        env.step()  # reader's bootstrap reads the value in the same step
        assert log == [7]
        assert env.perf_stats()["pending"] == 0

    def test_run_until_ended_process_returns_its_value(self):
        env = Environment()

        def child():
            return 7
            yield  # pragma: no cover - makes this a generator

        def later():
            yield env.timeout(5)

        proc = env.process(child())
        env.process(later())
        env.step()
        executed = env.perf_stats()["events_executed"]
        assert env.run(until=proc) == 7
        assert env.perf_stats()["events_executed"] == executed
        assert env.now == 0.0


class TestGeneratorExitDiscard:
    def test_discard_drops_an_in_place_grant(self):
        env = Environment()
        link = Resource(env, capacity=1)

        def holder():
            with link.request() as claim:
                yield claim
                yield env.timeout(5)

        gen = holder()
        env.process(gen)
        env.step()  # the claim is granted in place; holder suspends
        claim = link.users[0]
        assert claim.processed
        waiter = link.request()
        before = scheduled(env)
        gen.close()  # GeneratorExit runs Request.__exit__
        assert link.users == [] and link.queue == [waiter]
        assert not waiter.triggered
        assert scheduled(env) == before


class TestPriorityResourceWithdrawal:
    def test_cancelled_waiter_is_skipped_without_rebuilding_the_heap(self):
        env = Environment()
        cpu = PriorityResource(env, capacity=1)
        holder = cpu.request(priority=0)
        cancelled = cpu.request(priority=1)
        kept = cpu.request(priority=2)
        heap = cpu._heap
        entries = list(heap)
        cancelled.cancel()
        cancelled.cancel()  # withdrawing twice is a no-op
        assert cpu._heap is heap and heap == entries
        assert cpu.queue == [kept]
        cpu.release(holder)
        assert cpu.users == [kept] and not cancelled.triggered
        assert heap == []
        # The slot goes back to in-place grants once the heap is empty.
        cpu.release(kept)
        assert cpu.request(priority=5).processed

    def test_scripted_grant_order(self):
        env = Environment()
        cpu = PriorityResource(env, capacity=2)
        log = []

        def job(name, at, priority, hold):
            yield env.timeout(at)
            with cpu.request(priority=priority) as req:
                try:
                    yield req
                except Interrupt:
                    log.append((env.now, name, "gave-up"))
                    return
                log.append((env.now, name, "granted"))
                yield env.timeout(hold)

        def canceller(victim, at):
            yield env.timeout(at)
            victim.interrupt()

        script = [("a", 0, 5, 4), ("b", 0, 5, 3), ("c", 1, 3, 2),
                  ("d", 1, 1, 2), ("e", 2, 2, 1), ("f", 2, 1, 1),
                  ("g", 2.5, 0, 1), ("h", 3, 4, 1)]
        procs = {name: env.process(job(name, at, priority, hold))
                 for name, at, priority, hold in script}
        env.process(canceller(procs["f"], 2.5))
        env.process(canceller(procs["c"], 3.5))
        env.run()
        # Recorded on the eager-removal implementation this replaces.
        assert log == [
            (0.0, "a", "granted"), (0.0, "b", "granted"),
            (2.5, "f", "gave-up"), (3.0, "g", "granted"),
            (3.5, "c", "gave-up"), (4.0, "d", "granted"),
            (4.0, "e", "granted"), (5.0, "h", "granted"),
        ]
        assert cpu.queue == [] and cpu.count == 0
