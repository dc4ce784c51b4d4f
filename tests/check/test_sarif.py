"""SARIF 2.1.0 export: structure, determinism, and schema validity."""

import json

import pytest

from repro.check import make_diagnostic, to_sarif, to_sarif_json
from repro.check.sarif import FINGERPRINT_KEY, SARIF_VERSION
from repro.cli import main


def fixture_diags():
    return [
        make_diagnostic("SF303", "leak", "src/a.py", line=10),
        make_diagnostic("SL202", "wall clock", "src/b.py", line=3),
        make_diagnostic("RC107", "zero-bit edge",
                        "taskgraph:t/dep:a->b"),
    ]


#: The SARIF 2.1.0 structural core, hand-derived from the OASIS
#: schema (networkless subset): everything `to_sarif` emits must
#: satisfy it, and the required properties mirror the standard.
SARIF_CORE_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "level": {
                                    "enum": ["none", "note",
                                             "warning", "error"],
                                },
                                "ruleIndex": {
                                    "type": "integer",
                                    "minimum": 0,
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestDocumentShape:
    def test_version_and_schema_uri(self):
        doc = to_sarif(fixture_diags())
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]

    def test_validates_against_core_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(to_sarif(fixture_diags()),
                            SARIF_CORE_SCHEMA)

    def test_only_fired_rules_are_listed(self):
        doc = to_sarif(fixture_diags())
        ids = [r["id"] for r in doc["runs"][0]["tool"]["driver"]
               ["rules"]]
        assert ids == ["RC107", "SF303", "SL202"]

    def test_rule_index_points_into_rules(self):
        doc = to_sarif(fixture_diags())
        run = doc["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert (rules[result["ruleIndex"]]["id"]
                    == result["ruleId"])

    def test_severity_level_mapping(self):
        doc = to_sarif(fixture_diags())
        levels = {r["ruleId"]: r["level"]
                  for r in doc["runs"][0]["results"]}
        assert levels["SF303"] == "error"
        assert levels["RC107"] == "warning"

    def test_location_carries_line_when_known(self):
        doc = to_sarif(fixture_diags())
        by_rule = {r["ruleId"]: r for r in doc["runs"][0]["results"]}
        region = (by_rule["SF303"]["locations"][0]
                  ["physicalLocation"].get("region"))
        assert region == {"startLine": 10}
        # Model findings have no line, hence no region.
        assert "region" not in (by_rule["RC107"]["locations"][0]
                                ["physicalLocation"])

    def test_partial_fingerprints_match_diagnostics(self):
        diags = fixture_diags()
        doc = to_sarif(diags)
        published = {r["partialFingerprints"][FINGERPRINT_KEY]
                     for r in doc["runs"][0]["results"]}
        assert published == {d.fingerprint for d in diags}


class TestDeterminism:
    def test_order_independent_serialization(self):
        diags = fixture_diags()
        assert (to_sarif_json(diags)
                == to_sarif_json(list(reversed(diags))))

    def test_empty_findings_still_valid(self):
        jsonschema = pytest.importorskip("jsonschema")
        doc = to_sarif([])
        jsonschema.validate(doc, SARIF_CORE_SCHEMA)
        assert doc["runs"][0]["results"] == []

    def test_round_trips_through_json(self):
        doc = to_sarif(fixture_diags())
        assert json.loads(to_sarif_json(fixture_diags())) == doc


class TestCliSarif:
    def test_check_writes_sarif_file(self, tmp_path,
                                     shared_check_repository, capsys):
        out = tmp_path / "check.sarif"
        assert main(["check", "--flow", "--sarif", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["tool"]["driver"]["name"] \
            == "repro-check"
        assert shared_check_repository == [
            {"models": False, "lint": False, "flow": True}]

    def test_sarif_captures_findings(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def proc(env):\n    yield env.timeout(-1)\n")
        out = tmp_path / "check.sarif"
        assert main(["check", "--flow", str(bad),
                     "--sarif", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert [r["ruleId"] for r in doc["runs"][0]["results"]] \
            == ["SF305"]
