"""The diagnostic vocabulary: severities, the rule catalog, and the
stable JSON serialization (golden test)."""

import json

import pytest

from repro.check import (
    RULES,
    Diagnostic,
    ModelVerificationError,
    Severity,
    diagnostics_to_dict,
    diagnostics_to_json,
    format_diagnostic,
    has_errors,
    make_diagnostic,
    max_severity,
    rule,
)


class TestSeverity:
    def test_ordering_supports_thresholds(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR

    def test_str_is_lowercase_label(self):
        assert str(Severity.ERROR) == "error"

    def test_parse_round_trips(self):
        for sev in Severity:
            assert Severity.parse(str(sev)) is sev

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            Severity.parse("fatal")


class TestCatalog:
    def test_minimum_rule_count(self):
        # ISSUE acceptance: at least 12 distinct rules.
        assert len(RULES) >= 12

    def test_id_namespaces(self):
        for rule_id in RULES:
            assert rule_id.startswith(("RC1", "SL2", "SF3")), rule_id

    def test_flow_rule_family_present(self):
        # ISSUE acceptance: at least 6 SF3xx flow rules.
        flow_rules = [r for r in RULES if r.startswith("SF3")]
        assert len(flow_rules) >= 6

    def test_every_rule_fully_documented(self):
        for entry in RULES.values():
            assert entry.title
            assert entry.rationale
            assert entry.fix_hint

    def test_docs_catalog_in_sync(self):
        from repro.check import repository_root

        doc = (repository_root() / "docs"
               / "static_analysis.md").read_text(encoding="utf-8")
        undocumented = [r for r in RULES if r not in doc]
        assert undocumented == []

    def test_docs_cross_references_all_three_layers(self):
        from repro.check import repository_root

        root = repository_root()
        analysis = (root / "docs" / "static_analysis.md").read_text(
            encoding="utf-8")
        # The architecture section names each layer's module.
        for module in ("repro.check.model", "repro.check.simlint",
                       "repro.check.simflow", "repro.check.cfg",
                       "repro.check.taint", "repro.check.pragmas",
                       "repro.check.parse", "repro.check.repo"):
            assert module in analysis, module
        # The source pass and its one pragma tag are documented, and
        # the retired rule keeps its row.
        for feature in ("check_source", "check_repository",
                        "# simlint: ignore", "SF305"):
            assert feature in analysis, feature
        # README and the modeling guide point at the catalog and
        # mention the flow layer.
        readme = (root / "README.md").read_text(encoding="utf-8")
        guide = (root / "docs" / "modeling_guide.md").read_text(
            encoding="utf-8")
        for doc_text in (readme, guide):
            assert "static_analysis.md" in doc_text
            assert "flow" in doc_text

    def test_lookup_unknown_rule(self):
        with pytest.raises(KeyError):
            rule("RC999")

    def test_make_diagnostic_defaults_from_catalog(self):
        diag = make_diagnostic("RC103", "boom", "app:x")
        assert diag.severity is Severity.ERROR
        assert diag.fix_hint == RULES["RC103"].fix_hint

    def test_make_diagnostic_severity_override(self):
        diag = make_diagnostic("RC103", "boom", "app:x",
                               severity=Severity.INFO)
        assert diag.severity is Severity.INFO


class TestAggregation:
    def test_max_severity_empty_is_none(self):
        assert max_severity([]) is None

    def test_has_errors(self):
        warn = make_diagnostic("RC102", "w", "app:x")
        err = make_diagnostic("RC101", "e", "app:x")
        assert not has_errors([warn])
        assert has_errors([warn, err])

    def test_format_diagnostic_includes_line(self):
        diag = make_diagnostic("SL202", "wall clock", "src/a.py",
                               line=7)
        assert format_diagnostic(diag) == (
            "src/a.py:7: error SL202: wall clock")

    def test_verification_error_message_counts_errors(self):
        diags = [make_diagnostic("RC101", f"e{i}", "app:x")
                 for i in range(7)]
        exc = ModelVerificationError(diags)
        assert "7 error(s)" in str(exc)
        assert "and 2 more" in str(exc)
        assert exc.diagnostics == diags


class TestGoldenJson:
    """`repro check --json` output must be byte-stable."""

    GOLDEN = json.dumps(
        {
            "counts": {"error": 1, "info": 0, "warning": 1},
            "diagnostics": [
                {
                    "fix_hint": (
                        "Use env.now for simulated time and "
                        "env.timeout for delays; use "
                        "time.perf_counter for wall-time measurement."
                    ),
                    "line": 12,
                    "message": "wall clock",
                    "rule": "SL202",
                    "severity": "error",
                    "subject": "src/repro/des/environment.py",
                },
                {
                    "fix_hint": (
                        "Give the edge its real control-message "
                        "volume, or delete it if no ordering is "
                        "intended."
                    ),
                    "line": None,
                    "message": "zero-bit edge",
                    "rule": "RC107",
                    "severity": "warning",
                    "subject": "taskgraph:t/dep:a->b",
                },
            ],
            "version": 1,
        },
        indent=2,
        sort_keys=True,
    )

    def fixture_diags(self):
        return [
            make_diagnostic("SL202", "wall clock",
                            "src/repro/des/environment.py", line=12),
            make_diagnostic("RC107", "zero-bit edge",
                            "taskgraph:t/dep:a->b"),
        ]

    def test_golden_document(self):
        assert diagnostics_to_json(self.fixture_diags()) == self.GOLDEN

    def test_order_independence(self):
        diags = self.fixture_diags()
        assert (diagnostics_to_json(diags)
                == diagnostics_to_json(list(reversed(diags))))

    def test_counts_by_severity(self):
        doc = diagnostics_to_dict(self.fixture_diags())
        assert doc["counts"] == {"error": 1, "warning": 1, "info": 0}

    def test_to_dict_round_trips_through_json(self):
        doc = diagnostics_to_dict(self.fixture_diags())
        assert json.loads(json.dumps(doc)) == doc


class TestDiagnosticLocation:
    def test_location_without_line(self):
        diag = Diagnostic("RC101", Severity.ERROR, "m", "app:x")
        assert diag.location == "app:x"

    def test_location_with_line(self):
        diag = Diagnostic("SL201", Severity.ERROR, "m", "a.py",
                          line=3)
        assert diag.location == "a.py:3"
