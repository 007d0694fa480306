"""Baseline suppression: existing findings are explicit, new ones fail.

A freshly adopted analyzer always finds *something* in a living
codebase.  Instead of turning rules off, every intentional finding is
recorded in a committed baseline file with a one-line justification:

.. code-block:: json

    {
      "schema": "repro.analysis-baseline",
      "version": 1,
      "entries": [
        {
          "fingerprint": "0123abcd0123abcd",
          "rule": "REPRO101",
          "path": "src/repro/tuning/fleet.py",
          "symbol": "TuneFleet.run",
          "justification": "monotonic reads only pace lease expiry"
        }
      ]
    }

The fingerprint (see :meth:`repro.analysis.findings.Finding.fingerprint`)
is line-number free, so unrelated edits don't invalidate the baseline;
changing the offending code *does*, which forces a fresh decision.
Entries that no longer match anything are reported as *stale* so the
file never accumulates dead weight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from ..errors import ReproError
from ..fsutil import atomic_write_text
from .findings import Finding

BASELINE_SCHEMA = "repro.analysis-baseline"
BASELINE_VERSION = 1
#: Conventional committed location (repo root).
DEFAULT_BASELINE_NAME = "analysis-baseline.json"


@dataclass(frozen=True)
class BaselineEntry:
    """One accepted finding and why it is acceptable."""

    fingerprint: str
    rule: str
    path: str
    symbol: str = ""
    justification: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "rule": self.rule,
            "path": self.path,
            "symbol": self.symbol,
            "justification": self.justification,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BaselineEntry":
        try:
            return cls(
                fingerprint=str(data["fingerprint"]),
                rule=str(data["rule"]),
                path=str(data["path"]),
                symbol=str(data.get("symbol", "")),
                justification=str(data.get("justification", "")),
            )
        except KeyError as exc:
            raise ReproError(
                f"baseline entry missing field {exc}: {data!r}"
            ) from exc


@dataclass
class Baseline:
    """The committed set of accepted findings."""

    entries: List[BaselineEntry]

    @classmethod
    def empty(cls) -> "Baseline":
        return cls(entries=[])

    @classmethod
    def from_findings(
        cls, findings: Sequence[Finding], justification: str = "TODO: justify"
    ) -> "Baseline":
        entries: Dict[str, BaselineEntry] = {}
        for f in findings:
            fp = f.fingerprint()
            entries.setdefault(fp, BaselineEntry(
                fingerprint=fp,
                rule=f.rule,
                path=f.path,
                symbol=f.symbol,
                justification=justification,
            ))
        return cls(entries=list(entries.values()))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Baseline":
        file_path = Path(path)
        try:
            data = json.loads(file_path.read_text())
        except OSError as exc:
            raise ReproError(f"cannot read baseline {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ReproError(f"baseline {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict) or data.get("schema") != BASELINE_SCHEMA:
            raise ReproError(
                f"{path} is not an analysis baseline "
                f"(schema={data.get('schema') if isinstance(data, dict) else None!r})"
            )
        if data.get("version") != BASELINE_VERSION:
            raise ReproError(
                f"unsupported baseline version {data.get('version')!r}"
            )
        raw_entries = data.get("entries", [])
        if not isinstance(raw_entries, list):
            raise ReproError(f"baseline {path} entries must be a list")
        return cls(entries=[BaselineEntry.from_dict(e) for e in raw_entries])

    def save(self, path: Union[str, Path]) -> Path:
        file_path = Path(path)
        payload = {
            "schema": BASELINE_SCHEMA,
            "version": BASELINE_VERSION,
            "entries": [e.to_dict() for e in sorted(
                self.entries, key=lambda e: (e.path, e.rule, e.symbol)
            )],
        }
        # The committed baseline is a durable artifact: a crash mid-save
        # must not leave a torn file that fails every later run (REPRO230).
        atomic_write_text(file_path, json.dumps(payload, indent=1) + "\n")
        return file_path

    def fingerprints(self) -> Dict[str, BaselineEntry]:
        return {e.fingerprint: e for e in self.entries}

    def split(
        self, findings: Sequence[Finding]
    ) -> Tuple[List[Finding], List[Finding], List[BaselineEntry]]:
        """Partition findings into (new, baselined) + stale entries."""
        known = self.fingerprints()
        new: List[Finding] = []
        baselined: List[Finding] = []
        matched: set = set()
        for finding in findings:
            fp = finding.fingerprint()
            if fp in known:
                baselined.append(finding)
                matched.add(fp)
            else:
                new.append(finding)
        stale = [e for e in self.entries if e.fingerprint not in matched]
        return new, baselined, stale


def find_default_baseline(start: Union[str, Path]) -> Union[Path, None]:
    """Walk up from ``start`` looking for the conventional baseline file."""
    current = Path(start).resolve()
    if current.is_file():
        current = current.parent
    for directory in (current, *current.parents):
        candidate = directory / DEFAULT_BASELINE_NAME
        if candidate.is_file():
            return candidate
    return None


__all__ = [
    "BASELINE_SCHEMA",
    "BASELINE_VERSION",
    "Baseline",
    "BaselineEntry",
    "DEFAULT_BASELINE_NAME",
    "find_default_baseline",
]
