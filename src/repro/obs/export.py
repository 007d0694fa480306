"""Exporters: Prometheus text, metrics JSON, and merged Chrome traces.

The Chrome-trace builder is the piece that makes the observability layer
*unified*: it merges the kernel-level timeline of
:class:`repro.sim.trace.Trace` (CPU/GPU/copy rows, and the serving
``device`` row) with request-lifecycle events read from a serving run's
:class:`~repro.sim.engine.RequestTable` — one async track per request
(enqueue → complete) plus paired flow events (``ph: "s"`` at enqueue,
``ph: "f"`` at dispatch) — so a single ``trace.json`` loaded into
Perfetto (https://ui.perfetto.dev) shows the whole stack: which kernel
ran while which request waited in which queue.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any, Dict, List, Optional, Sequence

from .. import units
from ..sim.engine import SHED
from .metrics import Gauge, Histogram

#: pid of the simulator (kernel / resource) rows in merged traces.
SIM_PID = 1
#: pid of the request-lifecycle rows in merged traces.
REQUEST_PID = 2

# -- Prometheus text format -----------------------------------------------------


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")
    )


def _label_str(names: Sequence[str], values: Sequence[str],
               extra: Optional[Dict[str, str]] = None) -> str:
    pairs = [f'{n}="{_escape_label(v)}"' for n, v in zip(names, values)]
    for k, v in (extra or {}).items():
        pairs.append(f'{k}="{_escape_label(v)}"')
    if not pairs:
        return ""
    return "{" + ",".join(pairs) + "}"


def _format_value(v: float) -> str:
    if v == float("inf"):
        return "+Inf"
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def prometheus_text(registry) -> str:
    """Render every metric family in the Prometheus exposition format."""
    lines: List[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for label_values, instrument in family.children():
            labels = _label_str(family.label_names, label_values)
            if isinstance(instrument, Histogram):
                for bound, cumulative in instrument.cumulative_buckets():
                    blabels = _label_str(
                        family.label_names, label_values,
                        {"le": _format_value(bound)},
                    )
                    lines.append(
                        f"{family.name}_bucket{blabels} {cumulative}"
                    )
                lines.append(
                    f"{family.name}_sum{labels} "
                    f"{_format_value(instrument.sum)}"
                )
                lines.append(f"{family.name}_count{labels} {instrument.count}")
            else:
                lines.append(
                    f"{family.name}{labels} "
                    f"{_format_value(instrument.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def metrics_to_dict(registry) -> Dict[str, Any]:
    """JSON-friendly dump of every family (the machine-readable export)."""
    out: Dict[str, Any] = {}
    for family in registry.families():
        series = []
        for label_values, instrument in family.children():
            labels = dict(zip(family.label_names, label_values))
            if isinstance(instrument, Histogram):
                series.append({
                    "labels": labels,
                    "sum": instrument.sum,
                    "count": instrument.count,
                    "mean": instrument.mean(),
                    "buckets": [
                        {"le": b if b != float("inf") else "+Inf",
                         "cumulative": c}
                        for b, c in instrument.cumulative_buckets()
                    ],
                })
            elif isinstance(instrument, Gauge):
                series.append({
                    "labels": labels,
                    "value": instrument.value,
                    "max": instrument.max_value,
                })
            else:
                series.append({"labels": labels, "value": instrument.value})
        out[family.name] = {
            "kind": family.kind, "help": family.help, "series": series,
        }
    return out


def metrics_json(registry, *, indent: int = 2) -> str:
    return json.dumps(metrics_to_dict(registry), indent=indent)


# -- merged Chrome trace --------------------------------------------------------


def _kernel_records(trace) -> List[Dict[str, Any]]:
    """Slices + thread metadata for the simulator timeline (pid 1)."""
    tid_for: Dict[str, int] = {}
    records: List[Dict[str, Any]] = []
    for event in trace:
        tid = tid_for.setdefault(event.resource, len(tid_for) + 1)
        records.append({
            "name": event.label,
            "cat": event.category,
            "ph": "X",
            "ts": units.to_microseconds(event.start_s),
            "dur": units.to_microseconds(event.duration_s),
            "pid": SIM_PID,
            "tid": tid,
        })
    if not records:
        # An empty (but non-None) trace contributes nothing — emitting
        # the process meta alone would render a ghost "simulator" track.
        return []
    meta: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": SIM_PID,
        "args": {"name": "simulator"},
    }]
    for resource, tid in tid_for.items():
        meta.append({
            "name": "thread_name", "ph": "M", "pid": SIM_PID, "tid": tid,
            "args": {"name": resource},
        })
        meta.append({
            "name": "thread_sort_index", "ph": "M", "pid": SIM_PID,
            "tid": tid, "args": {"sort_index": tid},
        })
    return meta + records


def _request_records(table, tenants: Sequence[str]) -> List[Dict[str, Any]]:
    """Request-lifecycle events (pid 2): async tracks + paired flows.

    One request per row of ``table``, its id the row index and its
    tenant named by ``tenants[table.tenant[row]]``.  Per served request:

    * async begin/end (``ph: "b"``/``"e"``) spanning arrival → completion,
      one overlappable track per request id;
    * a zero-duration ``enqueue`` slice at arrival carrying the flow
      *start* (``ph: "s"``) and a ``dispatch`` slice at batch dispatch
      carrying the flow *finish* (``ph: "f"``) — the arrow Perfetto draws
      is the request's queueing delay.

    Shed requests become instant events instead.
    """
    n = len(table) if table is not None else 0
    if not n:
        return []
    records: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": REQUEST_PID,
         "args": {"name": "requests"}},
        {"name": "thread_name", "ph": "M", "pid": REQUEST_PID, "tid": 1,
         "args": {"name": "lifecycle"}},
    ]
    rows = zip(
        table.arrival_s[:n].tolist(), table.finish_s[:n].tolist(),
        table.dispatch_s[:n].tolist(), (table.status[:n] == SHED).tolist(),
        table.tenant[:n].tolist(), table.batch_size[:n].tolist(),
    )
    for request_id, (arrival, finish, dispatch, shed, owner, size) in (
        enumerate(rows)
    ):
        rid = str(request_id)
        tenant = tenants[owner]
        arrival_us = units.to_microseconds(arrival)
        if shed:
            records.append({
                "name": f"shed:req{rid}", "cat": "request", "ph": "i",
                "ts": arrival_us, "pid": REQUEST_PID, "tid": 1, "s": "t",
                "args": {"tenant": tenant},
            })
            continue
        args = {"tenant": tenant, "batch_size": size}
        records.append({
            "name": f"req:{tenant}", "cat": "request", "ph": "b",
            "id": rid, "ts": arrival_us, "pid": REQUEST_PID, "tid": 1,
            "args": args,
        })
        if not math.isnan(finish):
            records.append({
                "name": f"req:{tenant}", "cat": "request", "ph": "e",
                "id": rid, "ts": units.to_microseconds(finish),
                "pid": REQUEST_PID, "tid": 1,
            })
        if math.isnan(dispatch):
            continue
        dispatch_us = units.to_microseconds(dispatch)
        # Anchor slices for the flow arrow (zero duration is legal).
        records.append({
            "name": f"enqueue:req{rid}", "cat": "request", "ph": "X",
            "ts": arrival_us, "dur": 0, "pid": REQUEST_PID, "tid": 1,
            "args": args,
        })
        records.append({
            "name": f"dispatch:req{rid}", "cat": "request", "ph": "X",
            "ts": dispatch_us, "dur": 0, "pid": REQUEST_PID, "tid": 1,
            "args": args,
        })
        records.append({
            "name": "queue", "cat": "request_flow", "ph": "s", "id": rid,
            "ts": arrival_us, "pid": REQUEST_PID, "tid": 1,
        })
        records.append({
            "name": "queue", "cat": "request_flow", "ph": "f", "bp": "e",
            "id": rid, "ts": dispatch_us, "pid": REQUEST_PID, "tid": 1,
        })
    return records


def chrome_trace(
    kernel_trace=None,
    table=None,
    tenants: Sequence[str] = (),
    *,
    indent: Optional[int] = None,
) -> str:
    """Serialize a merged Chrome trace (kernel timeline + request events).

    ``table`` is a serving run's request table and ``tenants`` the
    names its tenant column indexes.  Either side may be empty: with
    only ``kernel_trace`` this degrades to the classic kernel trace,
    with only ``table`` to a pure request-lifecycle trace.
    """
    records: List[Dict[str, Any]] = []
    if kernel_trace is not None:
        records.extend(_kernel_records(kernel_trace))
    records.extend(_request_records(table, tenants))
    meta = [r for r in records if r.get("ph") == "M"]
    rest = sorted(
        (r for r in records if r.get("ph") != "M"),
        key=lambda r: (r["ts"], r["pid"], r["tid"]),
    )
    return json.dumps(
        {"traceEvents": meta + rest, "displayTimeUnit": "ms"}, indent=indent
    )


# -- artifact bundle ------------------------------------------------------------


def write_obs_artifacts(
    directory,
    obs,
    *,
    kernel_trace=None,
    table=None,
    tenants: Sequence[str] = (),
) -> List[str]:
    """Write the standard observability bundle into ``directory``.

    Emits ``trace.json`` (the merged Chrome trace of ``kernel_trace``
    and the request ``table``, see :func:`chrome_trace`),
    ``metrics.prom`` (Prometheus text), ``metrics.json``,
    ``provenance.json``, and ``spans.json``; returns the file names
    written.
    """
    out = pathlib.Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written: List[str] = []

    def _write(name: str, text: str) -> None:
        (out / name).write_text(text)
        written.append(name)

    _write("trace.json", chrome_trace(kernel_trace, table, tenants))
    _write("metrics.prom", prometheus_text(obs.metrics))
    _write("metrics.json", metrics_json(obs.metrics))
    _write("provenance.json", obs.provenance.to_json())
    _write("spans.json", obs.tracer.to_json())
    return written
