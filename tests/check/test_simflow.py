"""The Layer-3 flow analyzer: every SF3xx rule gets a positive
fixture (flagged), a negative fixture (silent), and a seeded-defect
mutation pair (the clean variant stays clean, the mutated variant is
caught) — the analyzer's regression teeth."""

import textwrap

import pytest

from repro.check import Severity, check_repository, check_source


def flow(code, path="fixture.py"):
    return check_source(textwrap.dedent(code), path)


def rules_of(diags):
    return sorted(d.rule for d in diags)


class TestSF301EventOverwritten:
    def test_positive_overwrite_before_yield(self):
        diags = flow("""
            def proc(env):
                ev = env.timeout(1)
                ev = env.timeout(2)
                yield ev
        """)
        assert rules_of(diags) == ["SF301"]
        assert diags[0].line == 4

    def test_negative_yield_between(self):
        assert flow("""
            def proc(env):
                ev = env.timeout(1)
                yield ev
                ev = env.timeout(2)
                yield ev
        """) == []

    def test_positive_on_one_branch_only(self):
        # The overwrite happens on the `if` path; may-analysis
        # still catches it.
        diags = flow("""
            def proc(env, flag):
                ev = env.timeout(1)
                if flag:
                    ev = env.timeout(2)
                yield ev
        """)
        assert rules_of(diags) == ["SF301"]

    def test_negative_collected_into_any_of(self):
        assert flow("""
            def proc(env):
                a = env.timeout(1)
                b = env.timeout(2)
                yield env.any_of([a, b])
        """) == []

    def test_negative_plain_dict_get_untracked(self):
        # `.get(key)` on a dict must not look like a kernel event.
        assert flow("""
            def proc(env, table):
                v = table.get("k")
                v = table.get("j")
                yield env.timeout(v)
        """) == []


class TestSF302YieldNonEvent:
    def test_positive_constant_yield(self):
        diags = flow("""
            def proc(env):
                yield env.timeout(1)
                yield 5
        """)
        assert rules_of(diags) == ["SF302"]

    def test_positive_bare_yield(self):
        diags = flow("""
            def proc(env):
                yield env.timeout(1)
                yield
        """)
        assert rules_of(diags) == ["SF302"]

    def test_negative_data_generator_exempt(self):
        # Yields constants but never kernel events: not a process.
        assert flow("""
            def frame_sizes():
                yield 1500
                yield 512
        """) == []

    def test_negative_event_yields(self):
        assert flow("""
            def proc(env, q):
                yield env.timeout(1)
                item = yield q.get()
        """) == []


class TestSF303ResourceLeak:
    def test_positive_held_across_unprotected_yield(self):
        diags = flow("""
            def proc(env, cpu):
                req = cpu.request()
                yield req
                yield env.timeout(1)
                cpu.release(req)
        """)
        assert rules_of(diags) == ["SF303"]
        assert "held across a yield" in diags[0].message

    def test_negative_try_finally(self):
        assert flow("""
            def proc(env, cpu):
                req = cpu.request()
                yield req
                try:
                    yield env.timeout(1)
                finally:
                    cpu.release(req)
        """) == []

    def test_negative_with_scope(self):
        assert flow("""
            def proc(env, cpu):
                with cpu.request() as req:
                    yield req
                    yield env.timeout(1)
        """) == []

    def test_positive_early_return_leaks(self):
        diags = flow("""
            def proc(env, cpu):
                req = cpu.request()
                yield req
                if env.now > 5:
                    return
                cpu.release(req)
        """)
        assert rules_of(diags) == ["SF303"]
        assert "exit without release" in diags[0].message

    def test_positive_rebind_while_acquired(self):
        diags = flow("""
            def proc(env, cpu):
                req = cpu.request()
                yield req
                req = cpu.request()
                yield req
                cpu.release(req)
        """)
        assert "SF303" in rules_of(diags)

    def test_negative_cancel_releases(self):
        assert flow("""
            def proc(env, cpu):
                req = cpu.request()
                yield req
                req.cancel()
        """) == []


class TestSF304LockOrder:
    def test_positive_conflicting_order_across_functions(self):
        diags = flow("""
            def a(env, bus, mem):
                with bus.request() as r1:
                    yield r1
                    with mem.request() as r2:
                        yield r2
                        yield env.timeout(1)

            def b(env, bus, mem):
                with mem.request() as r1:
                    yield r1
                    with bus.request() as r2:
                        yield r2
                        yield env.timeout(1)
        """)
        assert set(rules_of(diags)) == {"SF304"}
        assert all(d.severity is Severity.WARNING for d in diags)
        # One finding per participating site.
        assert len(diags) == 2

    def test_negative_consistent_order(self):
        assert flow("""
            def a(env, bus, mem):
                with bus.request() as r1:
                    yield r1
                    with mem.request() as r2:
                        yield r2
                        yield env.timeout(1)

            def b(env, bus, mem):
                with bus.request() as r1:
                    yield r1
                    with mem.request() as r2:
                        yield r2
                        yield env.timeout(1)
        """) == []

    def test_negative_single_resource(self):
        assert flow("""
            def a(env, bus):
                with bus.request() as r1:
                    yield r1
                    yield env.timeout(1)
        """) == []


class TestSF306Starvation:
    def test_positive_while_true_without_yield(self):
        diags = flow("""
            def proc(env):
                yield env.timeout(1)
                while True:
                    spin = 1 + 1
        """)
        assert rules_of(diags) == ["SF306"]

    def test_positive_simulated_time_condition(self):
        diags = flow("""
            def proc(env):
                yield env.timeout(1)
                while env.now < 10.0:
                    spin = 1 + 1
        """)
        assert rules_of(diags) == ["SF306"]

    def test_negative_yield_in_body(self):
        assert flow("""
            def proc(env):
                while True:
                    yield env.timeout(1)
        """) == []

    def test_negative_break_in_body(self):
        assert flow("""
            def proc(env):
                yield env.timeout(1)
                while True:
                    if done():
                        break
        """) == []

    def test_negative_bounded_loop(self):
        assert flow("""
            def proc(env):
                yield env.timeout(1)
                for i in range(10):
                    spin = i
        """) == []


class TestSF307DeterminismTaint:
    def test_positive_wall_clock_to_timeout(self):
        diags = flow("""
            import time

            def proc(env):
                delay = time.time() % 1.0
                yield env.timeout(delay)
        """)
        # SL202 flags the call site, SF307 the flow into the delay.
        assert rules_of(diags) == ["SF307", "SL202"]

    def test_positive_hash_to_seed(self):
        diags = flow("""
            def run(name, stream_over):
                stream_over(seed=hash(name) % 100)
        """)
        assert rules_of(diags) == ["SF307"]

    def test_positive_global_rng_to_timeout(self):
        diags = flow("""
            import random

            def proc(env):
                d = random.random()
                yield env.timeout(d)
        """)
        # SL201 (the statement-local rule) is simlint's; simflow adds
        # the flow fact that it reaches the schedule.
        assert "SF307" in rules_of(diags)

    def test_positive_interprocedural_through_helper(self):
        diags = flow("""
            import time

            def jitter():
                return time.perf_counter() % 0.1

            def proc(env):
                d = jitter()
                yield env.timeout(d)
        """)
        assert rules_of(diags) == ["SF307"]

    def test_positive_set_iteration_order(self):
        diags = flow("""
            def proc(env, names):
                pending = set(names)
                for name in pending:
                    yield env.timeout(len(name))
        """)
        assert "SF307" in rules_of(diags)

    def test_negative_seeded_stream(self):
        assert flow("""
            def proc(env, rng):
                d = rng.expovariate(1.0)
                yield env.timeout(d)
        """) == []

    def test_negative_perf_counter_for_measurement(self):
        # Measuring wall time is fine as long as it never reaches a
        # scheduling sink.
        assert flow("""
            import time

            def proc(env):
                t0 = time.perf_counter()
                yield env.timeout(1.0)
                elapsed = time.perf_counter() - t0
        """) == []

    def test_negative_sorted_set_is_clean(self):
        assert flow("""
            def proc(env, names):
                for name in sorted(set(names)):
                    yield env.timeout(len(name))
        """) == []


CLEAN_PROCESS = """
    def transfer(env, bus, packets):
        for size in packets:
            with bus.request() as grant:
                yield grant
                yield env.timeout(size / 1e6)
"""

#: (mutation name, seeded-defect variant, rule that must catch it).
MUTATIONS = [
    ("drop yield", """
        def transfer(env, bus, packets):
            for size in packets:
                with bus.request() as grant:
                    yield grant
                    ev = env.timeout(size / 1e6)
                    ev = env.timeout(0.0)
                    yield ev
    """, "SF301"),
    ("yield constant", """
        def transfer(env, bus, packets):
            for size in packets:
                with bus.request() as grant:
                    yield grant
                    yield 0
    """, "SF302"),
    ("unscoped request", """
        def transfer(env, bus, packets):
            for size in packets:
                grant = bus.request()
                yield grant
                yield env.timeout(size / 1e6)
                bus.release(grant)
    """, "SF303"),
    ("busy wait", """
        def transfer(env, bus, packets):
            for size in packets:
                with bus.request() as grant:
                    yield grant
                    while env.now < 1.0:
                        size += 0
    """, "SF306"),
    ("wall-clock delay", """
        import time

        def transfer(env, bus, packets):
            for size in packets:
                with bus.request() as grant:
                    yield grant
                    yield env.timeout(time.time() % 1.0)
    """, "SF307"),
]


class TestSeededDefectMutations:
    """Each mutation of one clean process is caught by its rule."""

    def test_clean_variant_is_clean(self):
        assert flow(CLEAN_PROCESS) == []

    @pytest.mark.parametrize(
        "name,mutant,rule",
        MUTATIONS, ids=[m[0] for m in MUTATIONS])
    def test_mutation_is_caught(self, name, mutant, rule):
        assert rule in rules_of(flow(mutant))


class TestProjectWideAnalysis:
    def test_analyze_paths_spans_files(self, tmp_path):
        # The lock-order graph crosses file boundaries.
        (tmp_path / "a.py").write_text(textwrap.dedent("""
            def a(env, bus, mem):
                with bus.request() as r1:
                    yield r1
                    with mem.request() as r2:
                        yield r2
                        yield env.timeout(1)
        """))
        (tmp_path / "b.py").write_text(textwrap.dedent("""
            def b(env, bus, mem):
                with mem.request() as r1:
                    yield r1
                    with bus.request() as r2:
                        yield r2
                        yield env.timeout(1)
        """))
        diags = check_repository(tmp_path, models=False,
                                 paths=[tmp_path])
        assert set(rules_of(diags)) == {"SF304"}
        assert sorted({d.subject for d in diags}) == ["a.py", "b.py"]

    def test_syntax_error_is_left_to_simlint(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        diags = check_repository(tmp_path, models=False,
                                 paths=[bad])
        assert [d.rule for d in diags] == ["SL200"]


class TestRepositoryGate:
    def test_repo_flow_layer_is_clean(self, repository_scan):
        # The acceptance criterion: the Layer-3 pass over the repo's
        # own sources (src/, benchmarks/, examples/) finds nothing
        # unsuppressed.
        diags = [d for d in repository_scan.diagnostics
                 if d.rule.startswith("SF3")]
        assert diags == [], "\n".join(str(d) for d in diags)

