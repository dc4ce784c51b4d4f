"""Non-finite time contract of the kernel (delays and horizons).

``NaN`` slips through naive ``delay < 0`` validation (every
comparison with NaN is False) and then corrupts the clock and the
heap ordering; ``inf`` delays park events that can never run.  The
kernel rejects both at the boundary: ``schedule()``/``timeout()``
require ``0 <= delay < inf`` and ``run(until=...)`` requires a
non-NaN horizon (``until=inf`` is allowed — it means "drain").
"""

import math

import pytest

from repro.des import Environment, Timeout


class TestDelayValidation:
    def test_nan_delay_schedule_raises(self):
        env = Environment()
        event = env.event()
        with pytest.raises(ValueError, match="non-finite delay"):
            env.schedule(event, delay=math.nan)

    def test_inf_delay_schedule_raises(self):
        env = Environment()
        event = env.event()
        with pytest.raises(ValueError, match="non-finite delay"):
            env.schedule(event, delay=math.inf)

    def test_negative_delay_schedule_raises(self):
        env = Environment()
        event = env.event()
        with pytest.raises(ValueError, match="negative delay"):
            env.schedule(event, delay=-1.0)

    def test_nan_timeout_raises(self):
        env = Environment()
        with pytest.raises(ValueError, match="non-finite delay"):
            env.timeout(math.nan)

    def test_inf_timeout_raises(self):
        env = Environment()
        with pytest.raises(ValueError, match="non-finite delay"):
            Timeout(env, math.inf)

    def test_negative_timeout_still_raises(self):
        env = Environment()
        with pytest.raises(ValueError, match="negative delay"):
            env.timeout(-0.5)

    def test_nan_rejection_leaves_kernel_clean(self):
        # The failed schedule must not have touched the queue or the
        # clock: the environment still runs normally afterwards.
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(math.nan)
        log = []

        def proc(env):
            yield env.timeout(1.0)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [1.0]
        assert env.now == 1.0

    def test_zero_delay_is_fine(self):
        env = Environment()
        env.timeout(0.0)
        env.run()
        assert env.now == 0.0


class TestHorizonValidation:
    def test_nan_horizon_raises(self):
        env = Environment()
        env.timeout(1.0)
        with pytest.raises(ValueError, match="NaN"):
            env.run(until=math.nan)

    def test_nan_horizon_rejected_before_any_event_runs(self):
        env = Environment()
        log = []

        def proc(env):
            yield env.timeout(1.0)
            log.append(env.now)

        env.process(proc(env))
        with pytest.raises(ValueError):
            env.run(until=math.nan)
        assert log == []
        assert env.now == 0.0

    def test_inf_horizon_means_drain(self):
        env = Environment()
        log = []

        def proc(env):
            yield env.timeout(3.0)
            log.append(env.now)

        env.process(proc(env))
        env.run(until=math.inf)
        assert log == [3.0]
        # The clock stays at the last event, never jumps to inf.
        assert env.now == 3.0

    def test_backdated_horizon_still_raises(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(ValueError):
            env.run(until=5.0)


class TestRunUntilIdempotencePerBackend:
    @pytest.mark.parametrize("horizon", [3.0, 3.5],
                             ids=["hits-an-event", "halfway-between-events"])
    def test_rerun_to_same_horizon_is_noop(self, horizon):
        env = Environment()
        log = []

        def proc(env):
            for _ in range(5):
                yield env.timeout(1.0)
                log.append(env.now)

        env.process(proc(env))
        env.run(until=horizon)
        snapshot = list(log)
        env.run(until=horizon)
        assert log == snapshot == [1.0, 2.0, 3.0]
        assert env.now == horizon
        env.run(until=5.0)
        assert log == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_nan_guards_apply_on_every_backend_entry_point(self):
        # A NaN must be refused before it reaches the heap or the clock.
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(math.nan)
        with pytest.raises(ValueError):
            env.schedule(env.event(), delay=math.nan)
        with pytest.raises(ValueError):
            env.run(until=math.nan)
        assert env.peek() == math.inf
        assert env.now == 0.0
