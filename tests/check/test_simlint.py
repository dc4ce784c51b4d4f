"""Layer-2 simlint rules through the source pass: one positive and one
negative fixture per rule, plus the suppression-pragma contract."""

import textwrap

from repro.check import check_repository, check_source


def lint(code):
    return check_source(textwrap.dedent(code), "fixture.py")


def rules_of(diags):
    return {d.rule for d in diags}


class TestSL200Parse:
    def test_syntax_error_reports_sl200(self):
        diags = lint("def broken(:\n")
        assert rules_of(diags) == {"SL200"}
        assert diags[0].line == 1

    def test_valid_file_is_clean(self):
        assert lint("x = 1\n") == []


class TestSL201Rng:
    def test_global_random_module(self):
        diags = lint("""
            import random
            x = random.random()
        """)
        assert "SL201" in rules_of(diags)

    def test_random_from_import(self):
        diags = lint("""
            from random import gauss
            x = gauss(0, 1)
        """)
        assert "SL201" in rules_of(diags)

    def test_numpy_legacy_global(self):
        diags = lint("""
            import numpy as np
            x = np.random.rand(4)
        """)
        assert "SL201" in rules_of(diags)

    def test_unseeded_default_rng(self):
        diags = lint("""
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert "SL201" in rules_of(diags)

    def test_seeded_default_rng_is_clean(self):
        diags = lint("""
            import numpy as np
            rng = np.random.default_rng(42)
        """)
        assert diags == []

    def test_seeded_random_instance_is_clean(self):
        diags = lint("""
            import random
            rng = random.Random(7)
        """)
        assert diags == []

    def test_spawn_rng_is_clean(self):
        diags = lint("""
            from repro.utils.rng import spawn_rng
            rng = spawn_rng(0, "traffic")
            x = rng.normal()
        """)
        assert diags == []


class TestSL202WallClock:
    def test_time_time(self):
        diags = lint("""
            import time
            t = time.time()
        """)
        assert "SL202" in rules_of(diags)

    def test_time_sleep(self):
        diags = lint("""
            import time
            time.sleep(1)
        """)
        assert "SL202" in rules_of(diags)

    def test_datetime_now(self):
        diags = lint("""
            from datetime import datetime
            t = datetime.now()
        """)
        assert "SL202" in rules_of(diags)

    def test_perf_counter_is_allowed(self):
        diags = lint("""
            import time
            t0 = time.perf_counter()
        """)
        assert diags == []


class TestSL203BareEvents:
    def test_bare_timeout_in_generator(self):
        diags = lint("""
            def proc(env):
                env.timeout(5)
                yield env.timeout(1)
        """)
        assert "SL203" in rules_of(diags)
        assert [d.line for d in diags] == [3]

    def test_yielded_events_are_clean(self):
        diags = lint("""
            def proc(env, queue):
                yield env.timeout(1)
                token = yield queue.get()
                yield queue.put(token)
        """)
        assert diags == []

    def test_bare_event_factories_in_generator(self):
        diags = lint("""
            def proc(env, a, b):
                env.event()
                env.all_of([a, b])
                env.any_of([a, b])
                yield env.timeout(1)
        """)
        assert [(d.rule, d.line) for d in diags] == [
            ("SL203", 3), ("SL203", 4), ("SL203", 5)]

    def test_bare_dict_get_in_generator_is_clean(self):
        # dict.get(key) takes an argument; a kernel get() does not.
        diags = lint("""
            def proc(env, cache, key):
                cache.get(key)
                yield env.timeout(1)
        """)
        assert diags == []

    def test_bare_call_outside_generator_is_clean(self):
        # Not a process: nothing to yield to.
        diags = lint("""
            def setup(env):
                env.timeout(5)
        """)
        assert diags == []

    def test_nested_helper_resets_generator_context(self):
        diags = lint("""
            def proc(env):
                def helper():
                    env.timeout(5)
                yield env.timeout(1)
        """)
        assert diags == []


class TestSL204MutableDefaults:
    def test_list_default(self):
        diags = lint("""
            def build(streams=[]):
                return streams
        """)
        assert "SL204" in rules_of(diags)

    def test_dict_call_default(self):
        diags = lint("""
            def build(opts=dict()):
                return opts
        """)
        assert "SL204" in rules_of(diags)

    def test_none_default_is_clean(self):
        diags = lint("""
            def build(streams=None):
                return streams or []
        """)
        assert diags == []


class TestSL205TimeEquality:
    def test_eq_against_env_now(self):
        diags = lint("""
            def check(env, t):
                return t == env.now
        """)
        assert "SL205" in rules_of(diags)

    def test_ordered_comparison_is_clean(self):
        diags = lint("""
            def check(env, t):
                return t <= env.now
        """)
        assert diags == []


class TestSL206BareMultiprocessing:
    def test_import_multiprocessing(self):
        diags = lint("""
            import multiprocessing
            pool = multiprocessing.Pool(4)
        """)
        assert "SL206" in rules_of(diags)

    def test_from_import(self):
        diags = lint("""
            from multiprocessing import Pool
        """)
        assert "SL206" in rules_of(diags)

    def test_concurrent_futures(self):
        diags = lint("""
            from concurrent.futures import ProcessPoolExecutor
        """)
        assert "SL206" in rules_of(diags)

    def test_repro_parallel_is_exempt(self):
        source = textwrap.dedent("""
            import multiprocessing
        """)
        diags = check_source(source, "src/repro/parallel/engine.py")
        assert diags == []

    def test_repro_parallel_helper_is_clean(self):
        diags = lint("""
            from repro.parallel import run_replicated
            out = run_replicated("e14", replicas=2, workers=2)
        """)
        assert diags == []

    def test_pragma_suppresses(self):
        diags = lint("""
            import multiprocessing  # simlint: ignore[SL206]
        """)
        assert diags == []


class TestSL207SwallowedException:
    def test_broad_except_pass(self):
        diags = lint("""
            try:
                risky()
            except Exception:
                pass
        """)
        assert "SL207" in rules_of(diags)

    def test_bare_except_pass(self):
        diags = lint("""
            try:
                risky()
            except:
                pass
        """)
        assert "SL207" in rules_of(diags)

    def test_base_exception_ellipsis(self):
        diags = lint("""
            try:
                risky()
            except BaseException:
                ...
        """)
        assert "SL207" in rules_of(diags)

    def test_broad_except_continue_in_loop(self):
        diags = lint("""
            for item in items:
                try:
                    risky(item)
                except Exception:
                    continue
        """)
        assert "SL207" in rules_of(diags)

    def test_swallowed_dotted_broad_exception_in_tuple(self):
        diags = lint("""
            import builtins
            try:
                risky()
            except (KeyError, builtins.Exception):
                pass
        """)
        assert "SL207" in rules_of(diags)

    def test_narrow_exception_pass_is_clean(self):
        diags = lint("""
            try:
                waiters.remove(w)
            except ValueError:
                pass
        """)
        assert diags == []

    def test_broad_except_with_handling_is_clean(self):
        diags = lint("""
            try:
                risky()
            except Exception:
                failures += 1
                raise
        """)
        assert diags == []

    def test_pragma_suppresses(self):
        diags = lint("""
            try:
                risky()
            except Exception:  # simlint: ignore[SL207]
                pass
        """)
        assert diags == []


class TestPragmas:
    def test_ignore_specific_rule_on_line(self):
        diags = lint("""
            import time
            t = time.time()  # simlint: ignore[SL202]
        """)
        assert diags == []

    def test_ignore_on_line_above(self):
        diags = lint("""
            import time
            # simlint: ignore[SL202]
            t = time.time()
        """)
        assert diags == []

    def test_bare_ignore_suppresses_everything(self):
        diags = lint("""
            import time
            t = time.time()  # simlint: ignore
        """)
        assert diags == []

    def test_wrong_rule_id_does_not_suppress(self):
        diags = lint("""
            import time
            t = time.time()  # simlint: ignore[SL201]
        """)
        assert "SL202" in rules_of(diags)

    def test_skip_file(self):
        diags = lint("""
            # simlint: skip-file
            import time
            t = time.time()
        """)
        assert diags == []


class TestLintPaths:
    def test_directory_recursion_and_relative_subjects(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(
            "import time\nt = time.time()\n", encoding="utf-8")
        (pkg / "good.py").write_text("x = 1\n", encoding="utf-8")
        diags = check_repository(tmp_path, models=False,
                                 paths=[tmp_path])
        assert [d.subject for d in diags] == ["pkg/bad.py"]
        assert rules_of(diags) == {"SL202"}
