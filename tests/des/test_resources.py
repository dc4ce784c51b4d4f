"""Tests for resources and priority resources."""

import gc
import json

import pytest

from repro.des import (
    Environment,
    Interrupt,
    PriorityResource,
    Resource,
    kernel_counters,
)
from repro.obs import MetricRegistry


def make_job(env, resource, log, name, hold):
    def job():
        with resource.request() as req:
            yield req
            start = env.now
            yield env.timeout(hold)
            log.append((name, start, env.now))
    return env.process(job())


class TestResource:
    def test_capacity_one_serializes(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        log = []
        for name in "abcd":
            make_job(env, cpu, log, name, 2)
        env.run()
        assert log == [("a", 0.0, 2.0), ("b", 2.0, 4.0),
                       ("c", 4.0, 6.0), ("d", 6.0, 8.0)]

    def test_capacity_two_overlaps(self):
        env = Environment()
        cpu = Resource(env, capacity=2)
        log = []
        for name in "abc":
            make_job(env, cpu, log, name, 2)
        env.run()
        # a and b run together; c starts when the first finishes
        assert log[0][:2] == ("a", 0.0)
        assert log[1][:2] == ("b", 0.0)
        assert log[2][1] == 2.0

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_count_reflects_users(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        log = []
        make_job(env, cpu, log, "a", 5)
        env.run(until=1)
        assert cpu.count == 1
        env.run(until=10)
        assert cpu.count == 0

    def test_release_waiting_request_cancels_it(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        holder = cpu.request()
        waiter = cpu.request()
        assert waiter in cpu.queue
        cpu.release(waiter)
        assert waiter not in cpu.queue
        cpu.release(holder)
        assert cpu.count == 0

    def test_double_release_is_noop(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        req = cpu.request()
        cpu.release(req)
        cpu.release(req)  # must not raise
        assert cpu.count == 0

    def test_interrupted_waiter_leaves_cleanly(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        log = []

        def holder(env):
            with cpu.request() as req:
                yield req
                yield env.timeout(10)

        def impatient(env):
            with cpu.request() as req:
                try:
                    yield req
                    log.append("granted")
                except Interrupt:
                    log.append("gave-up")

        def interrupter(env, victim):
            yield env.timeout(1)
            victim.interrupt()

        env.process(holder(env))
        victim = env.process(impatient(env))
        env.process(interrupter(env, victim))
        env.run()
        assert log == ["gave-up"]
        assert len(cpu.queue) == 0

    def test_cancelled_waiter_is_skipped(self):
        env = Environment()
        cpu = Resource(env, capacity=1)
        holder = cpu.request()
        skipped = cpu.request()
        last = cpu.request()
        skipped.cancel()
        assert cpu.queue == [last]
        cpu.release(holder)
        assert cpu.users == [last]
        env.run()
        assert last.processed and not skipped.triggered

    def test_metric_values_are_exact(self):
        registry = MetricRegistry()
        env = Environment(metrics=registry)
        cpu = Resource(env, capacity=1, name="cpu")
        log = []

        def arrive(at, name):
            yield env.timeout(at)
            make_job(env, cpu, log, name, 5)

        for at, name in ((0, "a"), (1, "b"), (2, "c")):
            env.process(arrive(at, name))
        env.run()
        # Grants at 0, 5 and 10 after waits of 0, 4 and 8; the queue
        # holds one request from t=5 to t=10.
        snapshot = registry.snapshot()
        assert snapshot["resource_grants{resource=cpu}"] == {
            "kind": "counter", "value": 3.0}
        wait = snapshot["resource_wait_time{resource=cpu}"]
        assert (wait["count"], wait["total"], wait["mean"]) == (3, 12.0, 4.0)
        assert (wait["min"], wait["max"], wait["std"]) == (0.0, 8.0, 4.0)
        assert registry.get("resource_wait_time",
                            resource="cpu").values == [0.0, 4.0, 8.0]
        assert snapshot["resource_queue_len{resource=cpu}"] == {
            "kind": "gauge", "value": 0.0, "min": 0.0, "max": 1.0,
            "time_mean": 0.5}


    def test_queue_gauge_only_for_named_resources(self):
        # Anonymous resources share one label, so a shared gauge would
        # show whichever queue granted last; they report none, but
        # their waits and grants still aggregate.
        registry = MetricRegistry()
        env = Environment(metrics=registry)
        links = [Resource(env, capacity=1) for _ in range(2)]
        links.append(Resource(env, capacity=1, name="bus"))
        log = []
        for link in links:
            for name in ("a", "b"):
                make_job(env, link, log, name, 1)
        env.run()
        snapshot = registry.snapshot()
        assert "resource_queue_len{resource=resource}" not in snapshot
        assert snapshot["resource_grants{resource=resource}"]["value"] \
            == 4.0
        assert snapshot["resource_wait_time{resource=resource}"][
            "count"] == 4
        assert snapshot["resource_queue_len{resource=bus}"]["kind"] \
            == "gauge"


class TestPriorityResource:
    def test_priority_order(self):
        env = Environment()
        cpu = PriorityResource(env, capacity=1)
        log = []

        def job(env, name, priority):
            yield env.timeout(0.1)  # let the holder grab it first
            with cpu.request(priority=priority) as req:
                yield req
                yield env.timeout(1)
                log.append(name)

        def holder(env):
            with cpu.request(priority=0) as req:
                yield req
                yield env.timeout(2)
                log.append("holder")

        env.process(holder(env))
        env.process(job(env, "low", priority=5))
        env.process(job(env, "high", priority=1))
        env.run()
        assert log == ["holder", "high", "low"]

    def test_fifo_within_priority(self):
        env = Environment()
        cpu = PriorityResource(env, capacity=1)
        log = []

        def job(env, name):
            yield env.timeout(0.1)
            with cpu.request(priority=3) as req:
                yield req
                yield env.timeout(1)
                log.append(name)

        def holder(env):
            with cpu.request() as req:
                yield req
                yield env.timeout(1)

        env.process(holder(env))
        env.process(job(env, "first"))
        env.process(job(env, "second"))
        env.run()
        assert log == ["first", "second"]

    def test_queue_property_sorted(self):
        env = Environment()
        cpu = PriorityResource(env, capacity=1)
        cpu.request(priority=0)      # granted
        late = cpu.request(priority=9)
        early = cpu.request(priority=1)
        assert cpu.queue == [early, late]

    def test_release_waiting_priority_request(self):
        env = Environment()
        cpu = PriorityResource(env, capacity=1)
        holder = cpu.request(priority=0)
        waiter = cpu.request(priority=1)
        cpu.release(waiter)
        assert cpu.queue == []
        cpu.release(holder)
        assert cpu.count == 0


class TestFinishedSimulationCollection:
    """Collecting a finished simulation's suspended processes closes
    their generators, which runs ``Request.__exit__``.  That must not
    grant the resource to the next waiter: the grant would land in the
    live metric registry and the kernel counters."""

    @pytest.mark.parametrize("resource_cls", [Resource, PriorityResource])
    def test_collection_records_no_grants(self, resource_cls):
        gc.collect()
        registry = MetricRegistry()
        env = Environment(metrics=registry)
        link = resource_cls(env, capacity=1, name="link")

        def packet(env, link):
            with link.request() as claim:
                yield claim
                yield env.timeout(1.0)

        for _ in range(20):
            env.process(packet(env, link))
        env.run(until=2.5)  # one holder mid-transfer, 17 waiting
        assert link.count == 1 and len(link.queue) == 17
        before = json.dumps(registry.snapshot(), sort_keys=True)
        counters = kernel_counters().snapshot()
        del env, link
        gc.collect()
        assert json.dumps(registry.snapshot(), sort_keys=True) == before
        assert kernel_counters().snapshot() == counters
