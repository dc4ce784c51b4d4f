"""One parse per file for the lint and flow passes, and the
repository-check time budget."""

import ast

from repro.check import check_repository


def write_tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


class TestSharedParse:
    def test_lint_and_flow_parse_each_file_once(self, tmp_path,
                                                monkeypatch):
        write_tree(tmp_path, {
            "src/a.py": "x = 1\n",
            "src/pkg/b.py": "def proc(env):\n    yield env.timeout(1)\n",
            "examples/c.py": "import a\n",
        })
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            parsed.append(kwargs.get("filename"))
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        assert check_repository(tmp_path, models=False) == []
        assert len(parsed) == 3

    def test_syntax_error_is_one_sl200_and_no_flow_crash(self,
                                                         tmp_path):
        write_tree(tmp_path, {
            "src/bad.py": "def broken(:\n",
            "src/ok.py": "def proc(env):\n    yield env.timeout(1)\n",
        })
        diags = check_repository(tmp_path, models=False)
        assert [(d.rule, d.subject) for d in diags] \
            == [("SL200", "src/bad.py")]


class TestRepoCheckBudget:
    def test_wall_time_budget(self, repository_scan):
        # Generous CI budget: the session's one three-layer pass over
        # src/, benchmarks/ and examples/ in under 60 s (typically a
        # few seconds); a superlinear regression in the CFG or taint
        # fixpoint blows this up.
        assert repository_scan.wall_s < 60.0
