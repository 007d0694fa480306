"""Verifier tests: golden artifacts pass, hand-corrupted copies fail
with the precise rule that names the corruption."""

import dataclasses
import json

import pytest

from repro.analysis.verifiers import (
    verify_artifact_file,
    verify_catalogs,
    verify_device_spec,
    verify_fault_scenario_data,
    verify_network_graph,
    verify_plan_artifact_data,
)
from repro.compile import payload_checksum
from repro.errors import ReproError
from repro.hardware.specs import JETSON_AGX_XAVIER
from repro.nn.models import build


def reseal(data):
    """Recompute the content checksum after a hand edit, so tests hit the
    semantic check they target instead of REPRO302."""
    data["checksum"] = payload_checksum(data)
    return data


def rules_of(findings):
    return {f.rule for f in findings}


class TestPlanArtifact:
    def test_golden_is_clean(self, golden_plan):
        assert verify_plan_artifact_data(golden_plan) == []

    def test_checksum_flip(self, golden_plan):
        golden_plan["checksum"] = "0" * 64
        assert rules_of(verify_plan_artifact_data(golden_plan)) == {"REPRO302"}

    def test_wrong_schema(self, golden_plan):
        golden_plan["schema"] = "bogus"
        assert rules_of(verify_plan_artifact_data(golden_plan)) == {"REPRO301"}

    def test_wrong_version(self, golden_plan):
        golden_plan["version"] = 999
        reseal(golden_plan)
        assert "REPRO301" in rules_of(verify_plan_artifact_data(golden_plan))

    def test_fraction_out_of_range(self, golden_plan):
        golden_plan["plan"]["layers"][0]["cpu_fraction"] = 1.5
        reseal(golden_plan)
        assert rules_of(verify_plan_artifact_data(golden_plan)) == {"REPRO303"}

    def test_fraction_contradicts_assignment(self, golden_plan):
        record = golden_plan["plan"]["layers"][0]
        assert record["assignment"] == "gpu"
        record["cpu_fraction"] = 0.5
        reseal(golden_plan)
        assert rules_of(verify_plan_artifact_data(golden_plan)) == {"REPRO303"}

    def test_managed_alloc_on_discrete_device(self, golden_plan):
        golden_plan["key"]["device"] = "rtx-2080ti-host"
        reseal(golden_plan)
        assert "REPRO305" in rules_of(verify_plan_artifact_data(golden_plan))

    def test_missing_allocation(self, golden_plan):
        removed = next(iter(golden_plan["plan"]["alloc"]))
        del golden_plan["plan"]["alloc"][removed]
        reseal(golden_plan)
        findings = verify_plan_artifact_data(golden_plan)
        assert rules_of(findings) == {"REPRO304"}
        assert removed in findings[0].message

    def test_unknown_buffer_in_alloc(self, golden_plan):
        golden_plan["plan"]["alloc"]["ghost.out"] = "managed"
        reseal(golden_plan)
        assert "REPRO304" in rules_of(verify_plan_artifact_data(golden_plan))

    def test_unknown_device_is_a_warning_not_error(self, golden_plan):
        golden_plan["key"]["device"] = "imaginary-soc"
        reseal(golden_plan)
        findings = verify_plan_artifact_data(golden_plan)
        assert all(f.severity == "warning" for f in findings)


class TestFaultScenario:
    def test_golden_is_clean(self, golden_scenario):
        assert verify_fault_scenario_data(golden_scenario) == []

    def test_probability_out_of_range(self, golden_scenario):
        golden_scenario["kernel_failure_p"] = 1.5
        findings = verify_fault_scenario_data(golden_scenario)
        assert rules_of(findings) == {"REPRO307"}

    def test_non_numeric_probability(self, golden_scenario):
        golden_scenario["payload_corrupt_p"] = "often"
        assert rules_of(
            verify_fault_scenario_data(golden_scenario)
        ) == {"REPRO307"}

    def test_overlapping_thermal_windows(self, golden_scenario):
        first = dict(golden_scenario["thermal"][0])
        second = dict(first)
        second["start_s"] = first["start_s"] + first["duration_s"] / 2
        golden_scenario["thermal"] = [first, second]
        findings = verify_fault_scenario_data(golden_scenario)
        assert rules_of(findings) == {"REPRO306"}

    def test_wrong_schema(self, golden_scenario):
        golden_scenario["schema"] = "bogus"
        assert rules_of(
            verify_fault_scenario_data(golden_scenario)
        ) == {"REPRO301"}


class TestFileDispatch:
    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        findings = verify_artifact_file(path)
        assert rules_of(findings) == {"REPRO301"}

    def test_unknown_schema(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        findings = verify_artifact_file(path)
        assert rules_of(findings) == {"REPRO301"}

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            verify_artifact_file(tmp_path / "nope.json")

    def test_dispatches_to_scenario(self, tmp_path, golden_scenario):
        golden_scenario["artifact_corrupt_p"] = -0.5
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(golden_scenario))
        assert rules_of(verify_artifact_file(path)) == {"REPRO307"}


class TestShippedCatalogs:
    def test_catalogs_are_clean(self):
        assert verify_catalogs() == []

    def test_device_spec_positive(self):
        assert verify_device_spec(JETSON_AGX_XAVIER) == []

    def test_network_graph_positive(self):
        assert verify_network_graph(build("lenet")) == []

    def test_network_graph_detects_corruption(self):
        net = build("lenet")
        node = net.node(net.topo_order()[1])
        object.__setattr__(node, "out_shape", (1, 2, 3))
        findings = verify_network_graph(net)
        assert findings
        assert rules_of(findings) == {"REPRO309"}

    @pytest.mark.parametrize("field,stored", [
        ("work", lambda node: dataclasses.replace(
            node.work, flops=node.work.flops * 2)),
        ("param_bytes", lambda node: node.param_bytes + 4),
    ])
    def test_network_graph_detects_stale_cost_terms(self, field, stored):
        net = build("lenet")
        node = net.node("conv1")
        setattr(node, field, stored(node))
        findings = verify_network_graph(net)
        assert rules_of(findings) == {"REPRO309"}
        assert len(findings) == 1
        assert "'conv1' stores" in findings[0].message
