"""CSV/JSON export of experiment results."""

import csv
import io
import json

import pytest

from repro.errors import ReproError
from repro.eval import experiments as ex
from repro.eval.export import result_rows, to_csv, to_json


@pytest.fixture(scope="module")
def fig06():
    return ex.fig06_edge_cpu_speedups(("lenet",))


class TestResultRows:
    def test_rows_from_figure_result(self, fig06):
        rows = result_rows(fig06)
        assert len(rows) == 1
        assert rows[0]["network"] == "lenet"
        assert "jetson_cpu_speedup" in rows[0]

    def test_rows_from_table_result(self):
        result = ex.table1_layer_improvements(("lenet",))
        rows = result_rows(result)
        assert {r["kernel_class"] for r in rows} <= {"conv", "dense"}

    def test_computed_properties_included(self):
        result = ex.fig12_cloud_comparison(("lenet",))
        rows = result_rows(result)
        assert "improvement_pct" in rows[0]
        assert "edgenn_wins" in rows[0]

    def test_rejects_unknown_shapes(self):
        with pytest.raises(ReproError):
            result_rows(object())


class TestCsv:
    def test_parses_back(self, fig06):
        text = to_csv(fig06)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert parsed[0]["network"] == "lenet"
        assert float(parsed[0]["edgenn_ms"]) > 0

    def test_header_matches_fields(self, fig06):
        header = to_csv(fig06).splitlines()[0].split(",")
        assert "network" in header


class TestJson:
    def test_parses_back(self, fig06):
        doc = json.loads(to_json(fig06))
        assert doc["rows"][0]["network"] == "lenet"

    def test_includes_aggregates(self, fig06):
        doc = json.loads(to_json(fig06))
        assert "mean_jetson_cpu" in doc
        assert doc["mean_jetson_cpu"] > 0

    def test_fig09_max_included(self):
        doc = json.loads(to_json(ex.fig09_memcpy_share(("lenet",))))
        assert "max_discrete" in doc


def _parity(csv_text, json_rows):
    """Assert CSV rows and JSON rows carry identical data field by field
    (CSV stringifies everything, so compare through float where possible)."""
    csv_rows = list(csv.DictReader(io.StringIO(csv_text)))
    assert len(csv_rows) == len(json_rows)
    for crow, jrow in zip(csv_rows, json_rows):
        assert set(crow) == set(jrow)
        for key, jval in jrow.items():
            cval = crow[key]
            if isinstance(jval, bool):
                assert cval == str(jval)
            elif isinstance(jval, (int, float)):
                assert float(cval) == pytest.approx(jval), key
            else:
                assert cval == str(jval), key


class TestCsvJsonRoundTripParity:
    def test_figure_result_parity(self, fig06):
        _parity(to_csv(fig06), json.loads(to_json(fig06))["rows"])

    def test_table_result_parity(self):
        result = ex.table1_layer_improvements(("lenet",))
        _parity(to_csv(result), json.loads(to_json(result))["rows"])

    def test_computed_properties_survive_both_paths(self):
        result = ex.fig12_cloud_comparison(("lenet",))
        _parity(to_csv(result), json.loads(to_json(result))["rows"])
