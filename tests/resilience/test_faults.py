"""Fault injectors: the failure law, channel windows, reproducibility."""

import pytest

from repro.des import Environment, FiniteQueue
from repro.des.events import Interrupt
from repro.resilience import (
    FailureModel,
    FaultEvent,
    FaultInjector,
    session_fault_plan,
)
from repro.streams import Channel
from repro.utils.rng import spawn_rng


class TestFailureModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            FailureModel(mtbf=0.0)
        with pytest.raises(ValueError):
            FailureModel(mtbf=1.0, mttr=-1.0)

    def test_crash_is_permanent(self):
        assert FailureModel.exponential(1.0).permanent
        assert not FailureModel.exponential(1.0, mttr=1.0).permanent

    def test_permanent_repair_sampling_rejected(self):
        with pytest.raises(RuntimeError):
            FailureModel.exponential(1.0).sample_ttr(spawn_rng(0, "x"))


class TestFaultInjector:
    def test_windows_alternate_and_close(self):
        env = Environment()
        channel = Channel(bandwidth=1e6)
        injector = FaultInjector(
            env, channel, FailureModel.exponential(mtbf=1.0, mttr=0.5),
            seed=1,
        )
        env.run(until=50.0)
        assert injector.n_failures > 5
        closed = [w for w in injector.windows if w[1] is not None]
        for down_at, up_at in closed:
            assert up_at >= down_at
        for (_, up_at), (next_down, _) in zip(injector.windows,
                                              injector.windows[1:]):
            assert next_down >= up_at
        # Every closed window is one repair the channel counted, and
        # the channel is down exactly while the last window is open.
        assert channel.stats.outages == len(closed)
        assert channel.down == (injector.windows[-1][1] is None)

    def test_permanent_fault_fires_once(self):
        env = Environment()
        tx_buffer = FiniteQueue(env, capacity=4)
        rx_buffer = FiniteQueue(env, capacity=4)
        channel = Channel(bandwidth=1e6)
        channel.start(env, tx_buffer, rx_buffer)
        injector = FaultInjector(env, channel,
                                 FailureModel.exponential(mtbf=2.0),
                                 seed=3)
        # A non-resilient channel lets the fault's Interrupt escape.
        with pytest.raises(Interrupt) as excinfo:
            env.run(until=100.0)
        cause = excinfo.value.cause
        assert isinstance(cause, FaultEvent)
        assert cause.permanent
        assert injector.n_failures == 1
        assert injector.windows == [(cause.time, None)]
        assert channel.down
        assert channel.stats.outages == 0

    def test_reproducible_schedules(self):
        def windows(seed):
            env = Environment()
            injector = FaultInjector(
                env, Channel(bandwidth=1e6),
                FailureModel.exponential(mtbf=2.0, mttr=1.0), seed=seed,
            )
            env.run(until=200.0)
            return injector.windows

        assert windows(7) == windows(7)
        assert windows(7) != windows(8)

    def test_start_delay_defers_first_fault(self):
        env = Environment()
        channel = Channel(bandwidth=1e6)
        injector = FaultInjector(
            env, channel, FailureModel.exponential(mtbf=0.1, mttr=0.1),
            seed=0, start_delay=10.0,
        )
        env.run(until=10.0)
        assert injector.n_failures == 0
        assert not channel.down


class TestSessionFaultPlan:
    def test_plan_alternates_fail_repair(self):
        plan = session_fault_plan(
            5, 500, FailureModel.exponential(mtbf=50.0, mttr=20.0),
            seed=4,
        )
        per_node: dict[int, list[str]] = {}
        for session in sorted(plan):
            for node, action in plan[session]:
                per_node.setdefault(node, []).append(action)
        assert per_node  # something happened in 500 sessions
        for actions in per_node.values():
            # Strictly alternating, starting with a failure.
            assert actions[0] == "fail"
            for a, b in zip(actions, actions[1:]):
                assert a != b

    def test_permanent_plan_fails_each_node_once(self):
        plan = session_fault_plan(
            8, 10_000, FailureModel.exponential(mtbf=100.0), seed=0,
        )
        all_events = [e for events in plan.values() for e in events]
        assert all(action == "fail" for _, action in all_events)
        assert len({node for node, _ in all_events}) == len(all_events)

    def test_reproducible(self):
        model = FailureModel.exponential(mtbf=30.0, mttr=10.0)
        assert session_fault_plan(4, 300, model, seed=1) == \
            session_fault_plan(4, 300, model, seed=1)
