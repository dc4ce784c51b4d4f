"""Generator properties: determinism across runs and sampling order,
oracle cleanliness of the corpus, and counterexample minimization."""

from pathlib import Path

from repro.scenario import (
    ScenarioGenerator,
    dumps,
    generate_corpus,
    load,
    minimize,
    verify,
)


def _corpus_bytes(root: Path) -> dict:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*.json"))
    }


class TestDeterminism:
    def test_sample_depends_only_on_seed_and_index(self):
        first = ScenarioGenerator(seed=7).sample(3).scenario
        second = ScenarioGenerator(seed=7).sample(3).scenario
        assert dumps(first) == dumps(second)
        other = ScenarioGenerator(seed=8).sample(3).scenario
        assert dumps(other) != dumps(first)

    def test_samples_are_order_independent(self):
        generator = ScenarioGenerator(seed=9)
        forward = [dumps(generator.sample(i).scenario)
                   for i in range(4)]
        backward = [dumps(ScenarioGenerator(seed=9).sample(i).scenario)
                    for i in reversed(range(4))]
        assert forward == list(reversed(backward))

    def test_regenerating_is_byte_identical(self, tmp_path):
        generate_corpus(tmp_path / "a", count=6, seed=13)
        generate_corpus(tmp_path / "b", count=6, seed=13)
        assert _corpus_bytes(tmp_path / "a") == _corpus_bytes(
            tmp_path / "b")


class TestOracle:
    def test_clean_fraction_meets_acceptance_bar(self):
        """`generate --count 100 --seed 7` must be >= 95% RC1xx-clean;
        sampling is valid-by-construction so expect 100%."""
        samples = ScenarioGenerator(seed=7).generate(100)
        clean = sum(bool(sample.clean) for sample in samples)
        assert clean / len(samples) >= 0.95

    def test_sample_stamps_provenance(self):
        scenario = ScenarioGenerator(seed=7).sample(5).scenario
        assert scenario.meta["seed"] == 7
        assert scenario.meta["index"] == 5

    def test_mutated_samples_fail_the_oracle(self):
        samples = ScenarioGenerator(seed=7, mutate=1.0).generate(8)
        assert all(not sample.clean for sample in samples)
        assert all(sample.diagnostics for sample in samples)


class TestMinimization:
    def _dirty(self):
        for index in range(12):
            sample = ScenarioGenerator(seed=2, mutate=1.0).sample(index)
            if not sample.clean:
                return sample
        raise AssertionError("mutate=1.0 produced no counterexample")

    def test_minimize_preserves_failing_rules(self):
        sample = self._dirty()
        original_rules = {d.rule for d in sample.diagnostics}
        shrunk = minimize(sample.scenario)
        shrunk_rules = {d.rule for d in verify(shrunk)}
        assert original_rules <= shrunk_rules

    def test_minimize_never_grows(self):
        sample = self._dirty()
        shrunk = minimize(sample.scenario)

        def size(scenario):
            graph = scenario.graph
            nodes = (graph.processes if hasattr(graph, "processes")
                     else graph.tasks) if graph is not None else []
            return len(nodes)

        assert size(shrunk) <= size(sample.scenario)
        assert shrunk.meta.get("minimized_from")

    def test_counterexamples_land_in_subdir(self, tmp_path):
        report = generate_corpus(tmp_path, count=6, seed=2,
                                 mutate=1.0)
        assert not report.clean_paths
        assert report.clean_fraction == 0.0
        for path in report.counterexample_paths:
            assert path.parent.name == "counterexamples"
            assert load(path).meta.get("rules")
