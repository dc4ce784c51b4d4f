"""The repository-level checks and the experiment pre-flight hook.

These are the teeth of the subsystem: the repo's own models and
simulation sources must stay clean (the CI gate runs exactly this),
and a broken model must stop an experiment before it simulates.
"""

import pytest

from repro import experiments
from repro.check import (
    ModelVerificationError,
    Severity,
    builtin_model_checks,
    check_models,
    default_lint_paths,
    repository_root,
)
from repro.experiments.registry import _REGISTRY, Experiment
from repro.noc import mms_apcg
from repro.scenario import Scenario


class TestRepositoryClean:
    def test_repository_root_is_the_repo(self):
        root = repository_root()
        assert (root / "pyproject.toml").exists()
        assert (root / "src" / "repro").is_dir()

    def test_default_lint_paths_exist(self):
        for path in default_lint_paths(repository_root()):
            assert path.is_dir()

    def test_repository_is_clean_under_strict(self, repository_scan):
        # The acceptance criterion: `repro check --strict` exits 0.
        offenders = [d for d in repository_scan.diagnostics
                     if d.severity >= Severity.WARNING]
        assert offenders == [], "\n".join(str(d) for d in offenders)

    def test_builtin_model_checks_cover_noc_benchmarks(self):
        names = [name for name, _model in builtin_model_checks()]
        assert "noc:video-surveillance" in names
        assert "noc:mms" in names
        assert "core:reference-design" in names

    def test_check_models_covers_every_experiment(self):
        # Must not raise for any registered experiment, and the
        # repo's own models must verify clean.
        assert check_models() == []


class TestPreflightHook:
    def test_experiments_with_models_verify_clean(self):
        assert experiments.preflight("e3") == []
        assert experiments.preflight("e4") == []

    def test_experiments_without_models_verify_vacuously(self):
        assert experiments.preflight("e1") == []

    def test_preflight_prefixes_subjects(self, monkeypatch):
        def bad_models():
            tg = mms_apcg()
            # Regress the model: re-introduce a zero-volume edge.
            tg.dependencies[0].bits = 0.0
            return [tg]

        self._with_fake_experiment(monkeypatch, bad_models)
        diags = experiments.preflight("zz-test")
        assert diags, "expected RC107 on the regressed model"
        assert all(d.subject.startswith("experiment:zz-test/")
                   for d in diags)

    def test_run_raises_on_error_models(self, monkeypatch):
        def broken_models():
            tg = mms_apcg()
            tg.task("demux").cycles = 1e12
            tg.add_task_deadline = None
            tg.task("demux").deadline = 1e-9
            from repro.core.architecture import (
                Platform,
                ProcessingElement,
            )
            platform = Platform("p")
            platform.add_pe(ProcessingElement("cpu0",
                                              frequency=400e6))
            return [{"task_graph": tg, "platform": platform}]

        self._with_fake_experiment(monkeypatch, broken_models)
        with pytest.raises(ModelVerificationError) as excinfo:
            experiments.run("zz-test")
        assert "RC121" in str(excinfo.value)

    def test_run_verify_false_skips_preflight(self, monkeypatch):
        def broken_models():
            raise AssertionError("models hook must not be called")

        self._with_fake_experiment(monkeypatch, broken_models)
        result = experiments.run("zz-test", verify=False)
        assert result.raw == "ran"

    @staticmethod
    def _with_fake_experiment(monkeypatch, models):
        """Register ``zz-test`` whose scenario hook wraps each model
        (a task graph, or a ``verify_design`` keyword bundle) as a
        :class:`Scenario`; the hook stays lazy, so ``models`` runs
        only when pre-flight asks for the documents."""
        def scenario():
            bundles = [m if isinstance(m, dict) else {"task_graph": m}
                       for m in models()]
            return [Scenario(name=b["task_graph"].name, **b)
                    for b in bundles]

        exp = Experiment(id="zz-test", claim="fixture",
                         runner=lambda ctx: "ran", scenario=scenario)
        monkeypatch.setitem(_REGISTRY, "zz-test", exp)


class TestMmsRegression:
    """PR regression: mms_apcg() once carried a zero-bit mux->demux
    edge that silently serialized the decode pipeline (the cycle-
    dropping guard never fired because the edge creates no cycle)."""

    def test_no_zero_volume_dependencies(self):
        tg = mms_apcg()
        zero = [(d.src, d.dst) for d in tg.dependencies
                if d.bits == 0]
        assert zero == []

    def test_mux_demux_carries_the_muxed_stream(self):
        tg = mms_apcg()
        dep = {(d.src, d.dst): d for d in tg.dependencies}[
            ("mux", "demux")]
        volumes = {(d.src, d.dst): d.bits for d in tg.dependencies}
        expected = (volumes[("audio_enc", "mux")]
                    + volumes[("video_enc", "mux")])
        assert dep.bits == pytest.approx(expected)

    def test_graph_stays_connected_and_acyclic(self):
        tg = mms_apcg()
        assert tg.fragment_count() == 1
        assert sorted(tg.topological_order()) == sorted(
            t.name for t in tg.tasks)  # raises if cyclic
