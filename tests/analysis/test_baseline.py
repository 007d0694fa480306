"""Baseline-suppression machinery: fingerprints, round-trip, staleness."""

import json

import pytest

from repro.analysis.baseline import Baseline, find_default_baseline
from repro.analysis.findings import Finding
from repro.errors import ReproError


def make_finding(line=10, message="wall-clock call time.monotonic()"):
    return Finding(
        rule="REPRO101",
        path="src/repro/tuning/fleet.py",
        line=line,
        symbol="TuneFleet.run",
        message=message,
    )


class TestFingerprint:
    def test_line_number_does_not_change_fingerprint(self):
        assert make_finding(line=10).fingerprint() == \
            make_finding(line=99).fingerprint()

    def test_message_change_invalidates_fingerprint(self):
        assert make_finding().fingerprint() != \
            make_finding(message="something else").fingerprint()


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        baseline = Baseline.from_findings(
            [make_finding()], justification="paces lease expiry only"
        )
        path = baseline.save(tmp_path / "baseline.json")
        loaded = Baseline.load(path)
        assert len(loaded.entries) == 1
        entry = loaded.entries[0]
        assert entry.fingerprint == make_finding().fingerprint()
        assert entry.justification == "paces lease expiry only"

    def test_from_findings_dedupes_same_fingerprint(self):
        baseline = Baseline.from_findings([
            make_finding(line=10), make_finding(line=12),
        ])
        assert len(baseline.entries) == 1

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "nope", "version": 1}))
        with pytest.raises(ReproError, match="not an analysis baseline"):
            Baseline.load(path)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{")
        with pytest.raises(ReproError, match="not valid JSON"):
            Baseline.load(path)


class TestSplit:
    def test_partitions_new_baselined_stale(self):
        known = make_finding()
        other = Finding(
            rule="REPRO101", path="src/repro/sim/x.py", line=3,
            symbol="f", message="wall clock",
        )
        baseline = Baseline.from_findings([known, other])
        fresh = Finding(
            rule="REPRO106", path="src/repro/hw/y.py", line=8,
            symbol="g", message="bare magnitude",
        )
        new, baselined, stale = baseline.split([known, fresh])
        assert [f.fingerprint() for f in new] == [fresh.fingerprint()]
        assert [f.fingerprint() for f in baselined] == [known.fingerprint()]
        assert [e.fingerprint for e in stale] == [other.fingerprint()]

    def test_empty_baseline_marks_everything_new(self):
        new, baselined, stale = Baseline.empty().split([make_finding()])
        assert len(new) == 1 and not baselined and not stale


class TestDiscovery:
    def test_walks_up_to_find_baseline(self, tmp_path):
        (tmp_path / "analysis-baseline.json").write_text("{}")
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        found = find_default_baseline(nested)
        assert found == tmp_path / "analysis-baseline.json"

    def test_none_when_absent(self, tmp_path):
        assert find_default_baseline(tmp_path / "only" ) is None
