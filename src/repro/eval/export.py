"""Export experiment results as CSV / JSON for plotting.

Every experiment result object from :mod:`repro.eval.experiments` is a
dataclass (or holds tuples of dataclasses); these helpers flatten them into
row dictionaries so downstream notebooks can regenerate the paper's plots
with any plotting stack.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from typing import Any, Dict, List

from ..errors import ReproError


def result_rows(result: Any) -> List[Dict[str, Any]]:
    """Flatten one experiment result into a list of row dicts.

    Works for any result object exposing ``rows`` or ``cells`` of
    dataclass records (the convention of ``repro.eval.experiments``).
    """
    records = getattr(result, "rows", None)
    if records is None:
        records = getattr(result, "cells", None)
    if records is None:
        raise ReproError(
            f"{type(result).__name__} has neither .rows nor .cells"
        )
    rows = []
    for record in records:
        if not dataclasses.is_dataclass(record):
            raise ReproError(f"row {record!r} is not a dataclass record")
        row = dataclasses.asdict(record)
        # Include computed properties the figures rely on.
        for name in ("improvement_pct", "edgenn_wins"):
            if hasattr(record, name) and name not in row:
                row[name] = getattr(record, name)
        rows.append(row)
    return rows


def to_csv(result: Any) -> str:
    """Render one experiment result as CSV text."""
    rows = result_rows(result)
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def to_json(result: Any, *, indent: int = 2) -> str:
    """Render one experiment result as JSON text (rows plus any aggregate
    properties such as means/geomeans)."""
    document: Dict[str, Any] = {"rows": result_rows(result)}
    for name in dir(result):
        if name.startswith(("mean", "geomean", "max_")):
            value = getattr(result, name)
            if isinstance(value, (int, float)):
                document[name] = value
    return json.dumps(document, indent=indent)


def write_all(directory) -> List[str]:
    """Run every experiment and write ``<id>.csv``/``<id>.json`` pairs into
    ``directory``; returns the artifact ids written."""
    import pathlib

    from . import experiments

    out = pathlib.Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for artifact_id, result in experiments.run_all().items():
        (out / f"{artifact_id}.csv").write_text(to_csv(result))
        (out / f"{artifact_id}.json").write_text(to_json(result))
        written.append(artifact_id)
    return written
