"""Tests for the command-line experiment runner."""

import json

import pytest

from repro import experiments
from repro.cli import main


class TestCli:
    def test_list_shows_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in experiments.ids():
            assert exp_id in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["run", "zz"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_fast_experiment(self, capsys):
        assert main(["run", "e6"]) == 0
        out = capsys.readouterr().out
        assert "E6" in out
        assert "reduction" in out
        assert "run report: e6" in out

    def test_run_multiple(self, capsys):
        assert main(["run", "e2", "e14"]) == 0
        out = capsys.readouterr().out
        assert "E2" in out and "E14" in out

    def test_registry_covers_every_benchmark_experiment(self):
        # one CLI entry per experiment id of DESIGN.md, plus r1
        expected = {"f1", "f2", "r1"} | {f"e{i}" for i in range(1, 18)}
        assert set(experiments.ids()) == expected

    def test_registry_entries_carry_claim_and_runner(self):
        experiment = experiments.get("e6")
        assert "adaptation" in experiment.claim
        assert callable(experiment.runner)

    def test_ids_are_case_insensitive(self, capsys):
        assert main(["run", "E6"]) == 0
        assert "E6" in capsys.readouterr().out

    def test_run_json_is_machine_readable(self, capsys):
        assert main(["run", "e6", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["id"] == "e6"
        assert document["metrics"]["energy_reduction"] > 0
        assert document["report"]["seed"] == 0
        titles = [t["title"] for t in document["tables"]]
        assert any("transceiver" in t for t in titles)

    def test_run_json_multiple_keyed_by_id(self, capsys):
        assert main(["run", "e6", "e14", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {"e6", "e14"}
        assert document["e14"]["metrics"]["oracle_saving"] > 0.3

    def test_run_seed_changes_report(self, capsys):
        assert main(["run", "e14", "--seed", "3", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["report"]["seed"] == 3

    def test_run_out_writes_json_files(self, tmp_path, capsys):
        out = tmp_path / "reports"
        assert main(["run", "e6", "--out", str(out), "--json"]) == 0
        document = json.loads((out / "e6.json").read_text())
        assert document["id"] == "e6"

    def test_trace_writes_jsonl(self, tmp_path, capsys):
        trace_path = tmp_path / "f1.trace.jsonl"
        assert main(["trace", "f1", "--out", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        lines = trace_path.read_text().strip().splitlines()
        assert lines
        event = json.loads(lines[0])
        assert {"t", "kind", "name"} <= set(event)

    def test_report_subcommand(self, capsys):
        assert main(["report", "e6"]) == 0
        out = capsys.readouterr().out
        assert "run report: e6" in out
        assert "energy_reduction" in out

    @pytest.mark.parametrize("exp_id", ["f2", "e5", "e13"])
    def test_selected_runners_produce_tables(self, exp_id, capsys):
        assert main(["run", exp_id]) == 0
        assert "===" in capsys.readouterr().out

    def test_run_json_surfaces_kernel_counters(self, capsys):
        assert main(["run", "f1", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        kernel = document["kernel"]
        assert kernel["events_executed"] > 0
        assert kernel["events_scheduled"] >= kernel["events_executed"]
        assert kernel["environments"] >= 1
        assert kernel["peak_heap_depth"] >= 1
        # events_per_sec is wall-clock derived and rides beside the
        # deterministic payload, never inside it.
        assert "kernel" not in document["report"]
        assert "events_per_sec" in kernel

    def test_run_probe_records_timeseries(self, capsys):
        assert main(["run", "r1", "--probe", "0.5", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        stats = document["report"]["stats"]
        series = [key for key, entry in stats.items()
                  if entry.get("kind") == "timeseries"]
        assert any(key.startswith("probe_kernel_") for key in series)
        assert any(key.startswith("r1_qos") for key in series)

    def test_run_slo_verdict_in_report(self, capsys):
        assert main(["run", "f1", "--slo",
                     "probe_kernel_events_executed{env=0}:max <= 1e12",
                     "--probe", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        slo = document["report"]["slo"]
        assert slo["ok"] is True
        assert slo["breaches"] == []
        assert len(slo["specs"]) == 1

    def test_run_slo_strict_breach_exits_3(self, capsys):
        assert main(["run", "f1", "--probe", "--slo",
                     "probe_kernel_events_executed{env=0}:max <= 0",
                     "--slo-strict"]) == 3
        captured = capsys.readouterr()
        assert "SLO breached" in captured.err

    def test_run_invalid_slo_is_usage_error(self, capsys):
        assert main(["run", "e14", "--slo", "no operator"]) == 2
        assert "operator" in capsys.readouterr().err

    def test_run_live_requires_replicas(self, capsys):
        assert main(["run", "e14", "--live"]) == 2
        assert "--replicas" in capsys.readouterr().err


class TestReportRendering:
    def test_report_html_from_experiment(self, tmp_path, capsys):
        out = tmp_path / "dash.html"
        assert main(["report", "e14", "--probe",
                     "--html", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        page = out.read_text(encoding="utf-8")
        assert page.startswith("<!DOCTYPE html>")
        assert "<svg" in page
        assert "e14" in page

    def test_report_html_from_json_file(self, tmp_path, capsys):
        source = tmp_path / "run.json"
        assert main(["run", "r1", "--probe", "--out",
                     str(tmp_path), "--json"]) == 0
        capsys.readouterr()
        source = tmp_path / "r1.json"
        out = tmp_path / "dash.html"
        assert main(["report", str(source), "--html", str(out)]) == 0
        capsys.readouterr()
        assert "repro run: r1" in out.read_text(encoding="utf-8")

    def test_report_html_needs_exactly_one_input(self, tmp_path,
                                                 capsys):
        out = tmp_path / "dash.html"
        assert main(["report", "e6", "e14", "--html", str(out)]) == 2
        assert "exactly one" in capsys.readouterr().err


#: ``check_repository`` arguments of a ``repro check`` without
#: options: the model verifier plus the source pass over the tree.
ALL_LAYERS = {"models": True, "paths": None}


class TestCheckCommand:
    def test_check_repo_is_clean_strict(self, shared_check_repository,
                                        capsys):
        assert main(["check", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out
        assert shared_check_repository == [ALL_LAYERS]

    def test_check_json_document_shape(self, shared_check_repository,
                                       capsys):
        assert main(["check", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert set(document["counts"]) == {"error", "warning", "info"}
        assert document["diagnostics"] == []
        assert shared_check_repository == [ALL_LAYERS]

    def test_check_lint_flags_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "SL202" in out

    def test_check_strict_fails_on_warnings(self, tmp_path, capsys):
        warn_only = tmp_path / "warn.py"
        warn_only.write_text("def f(x=[]):\n    return x\n")
        assert main(["check", str(warn_only)]) == 0
        assert main(["check", "--strict", str(warn_only)]) == 1
        capsys.readouterr()

    def test_check_out_writes_diagnostics_file(
            self, tmp_path, shared_check_repository, capsys):
        out_file = tmp_path / "reports" / "check.json"
        assert main(["check", "--out", str(out_file)]) == 0
        capsys.readouterr()
        document = json.loads(out_file.read_text())
        assert document["version"] == 1
        assert shared_check_repository == [ALL_LAYERS]

    def test_check_paths_and_models_select_the_passes(
            self, tmp_path, monkeypatch, capsys):
        import repro.check

        calls = []
        monkeypatch.setattr(
            repro.check, "check_repository",
            lambda **kwargs: calls.append(kwargs) or [])
        source = tmp_path / "a.py"
        source.write_text("x = 1\n")
        assert main(["check", str(source)]) == 0
        assert main(["check", "--models"]) == 0
        assert main(["check", "--models", str(source)]) == 0
        capsys.readouterr()
        assert calls == [
            {"models": False, "paths": [source]},
            {"paths": []},
            {"models": True, "paths": [source]},
        ]

    def test_check_missing_path_is_usage_error(self, capsys):
        assert main(["check", "does/not/exist.py"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_check_flow_flags_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def proc(env):\n"
            "    ev = env.timeout(1)\n"
            "    ev = env.timeout(2)\n"
            "    yield ev\n")
        assert main(["check", str(bad)]) == 1
        assert "SF301" in capsys.readouterr().out


class TestRunProfile:
    def test_profile_writes_collapsed_stacks(self, tmp_path, capsys):
        assert main(["run", "e16", "--profile",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "hotspots [sample]" in out
        collapsed = tmp_path / "e16.collapsed.txt"
        assert collapsed.is_file()
        for line in collapsed.read_text(
                encoding="utf-8").strip().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) > 0 and stack

    def test_profile_cprofile_mode_reports_calls(self, tmp_path,
                                                 capsys):
        assert main(["run", "e16", "--profile", "cprofile",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[cprofile]" in out
        assert "wall time by simulated process" in out

    def test_profile_defaults_to_the_current_directory(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "e16", "--profile"]) == 0
        assert (tmp_path / "e16.collapsed.txt").is_file()

    def test_profile_keeps_json_stdout_clean(self, tmp_path, capsys):
        assert main(["run", "e16", "--json", "--profile",
                     "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["id"] == "e16"
        assert "hotspots [sample]" in captured.err

    def test_profile_with_replicas_is_usage_error(self, capsys):
        assert main(["run", "e16", "--replicas", "2",
                     "--profile"]) == 2
        assert "--profile" in capsys.readouterr().err

    def test_profile_with_trace_is_usage_error(self, capsys):
        assert main(["run", "e16", "--trace", "--profile"]) == 2
        assert "--trace" in capsys.readouterr().err

    def test_profile_leaves_the_payload_unchanged(self, tmp_path,
                                                  monkeypatch,
                                                  capsys):
        from repro import experiments

        results = []
        run = experiments.run

        def recording_run(*args, **kwargs):
            results.append(run(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(experiments, "run", recording_run)
        plain_dir, profiled_dir = tmp_path / "plain", tmp_path / "prof"
        assert main(["run", "e16", "--out", str(plain_dir)]) == 0
        assert main(["run", "e16", "--profile",
                     "--out", str(profiled_dir)]) == 0
        plain, profiled = (json.dumps(r.strip_timings(), sort_keys=True)
                           for r in results)
        assert plain == profiled
        documents = []
        for directory in (plain_dir, profiled_dir):
            document = json.loads((directory / "e16.json").read_text())
            del document["report"]["wall_seconds"]
            documents.append(document)
        assert documents[0] == documents[1]
