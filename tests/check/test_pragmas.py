"""The suppression-pragma grammar of the source pass (SL and SF
rules)."""

import textwrap

from repro.check import check_source, make_diagnostic
from repro.check.pragmas import collect_pragmas, filter_suppressed


def pragmas_of(code):
    return collect_pragmas(textwrap.dedent(code))


class TestGrammar:
    def test_single_rule(self):
        p = pragmas_of("x = 1  # simlint: ignore[SL202]\n")
        assert p.suppresses("SL202", 1)
        assert not p.suppresses("SL201", 1)

    def test_multi_rule_list(self):
        p = pragmas_of("x = 1  # simlint: ignore[SL201, SF301]\n")
        assert p.suppresses("SL201", 1)
        assert p.suppresses("SF301", 1)
        assert not p.suppresses("SL202", 1)

    def test_bare_ignore_suppresses_everything(self):
        p = pragmas_of("x = 1  # simlint: ignore\n")
        assert p.suppresses("SL202", 1)
        assert p.suppresses("SF307", 1)

    def test_line_above_is_honored(self):
        p = pragmas_of("""
            # simlint: ignore[SL202]
            x = now()
        """)
        assert p.suppresses("SL202", 3)

    def test_two_lines_above_is_not(self):
        p = pragmas_of("""
            # simlint: ignore[SL202]
            y = 0
            x = now()
        """)
        assert not p.suppresses("SL202", 4)

    def test_skip_file(self):
        p = pragmas_of("""
            # simlint: skip-file
            x = 1
        """)
        assert p.skip_file

    def test_is_suppressed_matches_diagnostic(self):
        p = pragmas_of("x = 1  # simlint: ignore[SL204]\n")
        hit = make_diagnostic("SL204", "m", "a.py", line=1)
        miss = make_diagnostic("SL204", "m", "a.py", line=9)
        assert filter_suppressed([hit, miss], p) == [miss]


class TestSharedAcrossLayers:
    """One grammar for the Layer-2 and Layer-3 rules."""

    def test_simlint_honors_multi_rule_pragma(self):
        code = textwrap.dedent("""
            import time

            def f():
                t = time.time()  # simlint: ignore[SL202, SL205]
                return t
        """)
        assert check_source(code, "a.py") == []

    def test_simflow_honors_simlint_tag(self):
        code = textwrap.dedent("""
            def proc(env):
                yield 0  # simlint: ignore[SF302]
                yield env.timeout(1)
        """)
        assert check_source(code, "a.py") == []

    def test_skip_file_silences_both_layers(self):
        code = textwrap.dedent("""
            # simlint: skip-file
            import time

            def proc(env):
                t = time.time()
                yield 0
                yield env.timeout(t)
        """)
        assert check_source(code, "a.py") == []

    def test_unrelated_rule_still_fires(self):
        code = textwrap.dedent("""
            def proc(env):
                yield 0  # simlint: ignore[SF301]
                yield env.timeout(1)
        """)
        rules = [d.rule for d in check_source(code, "a.py")]
        assert rules == ["SF302"]
