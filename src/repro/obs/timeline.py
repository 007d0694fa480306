"""Windowed time-series telemetry on the shared virtual clock.

End-of-run aggregates (ServingReport / ClusterReport) cannot tell a run
that degrades steadily from one that loses a whole thermal window — the
numbers are identical.  This module makes the *time axis* a first-class
observability surface:

* :class:`TimelineRecorder` — one vectorized pass, after the run, over
  the per-request rows (:class:`~repro.sim.engine.RequestRows`) and the
  batch log (:class:`BatchSpans`) both simulators keep anyway.  The
  event loops make no telemetry calls at all; even the queue-depth
  curve is *derived*, from each request's arrival and the instant it
  left its queue.
* a deterministic fixed-bucket latency sketch per window (bisect into a
  shared bound ladder + overflow count and exact max), from which the
  per-window p50/p95/p99 series and SLO exceedance fractions derive.
* :class:`TimelineArtifact` — the versioned, sha256-digested JSON
  serialization, with the same cross-process bit-identity contract as
  :class:`~repro.cluster.report.ClusterReport`: same run config, same
  digest, in any process.
* :class:`SloMonitor` — declarative objectives (``goodput_ratio >=
  0.99``, ``p99_ms <= 250``) evaluated with SRE-style multi-window
  burn-rate rules; firings/resolutions become provenance
  :class:`~repro.obs.provenance.AlertRecord` s and can drive the
  serving layer's :class:`~repro.faults.DegradationManager`.
* :func:`diff_timelines` — direction-aware behavioral comparison of two
  artifacts (the ``repro timeline diff`` regression gate).

Everything here consumes the *virtual* clock only — lint rule REPRO110
bans wall-clock reads in this file.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError
from ..sim.engine.table import (
    FAILED,
    REJECTED,
    SERVED,
    SHED,
    TIMED_OUT,
    RequestRows,
)
from ..units import MEGA
from .provenance import AlertRecord

#: Artifact schema identity (bump on shape changes).
TIMELINE_SCHEMA = "repro.obs.timeline"
TIMELINE_SCHEMA_VERSION = 1

#: Latency sketch bound ladder, in seconds (500 µs .. 60 s, log-ish).
#: Matches :data:`repro.obs.metrics.DEFAULT_BUCKETS` plus a tail for
#: overload runs; observations past the last bound land in the overflow
#: bucket, whose quantile is reported as the window's exact maximum.
SKETCH_BOUNDS_S: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def _bucket_quantile(
    bounds: Sequence[float],
    counts: Sequence[int],
    overflow: int,
    max_value: float,
    q: float,
) -> float:
    """Deterministic nearest-rank quantile over one window's sketch.

    Returns the upper bound of the bucket holding the q-th observation;
    overflow observations report the window's exact maximum (so the
    sketch never understates the tail past its last bound).
    """
    total = int(sum(counts)) + overflow
    if total == 0:
        return 0.0
    # nearest-rank with integer math: ceil(q * total) without float
    # fuzz, at a fixed micro resolution (quantiles are micro-exact).
    micro = int(MEGA)
    rank = max(1, -(-int(q * total * micro) // micro))
    rank = min(rank, total)
    running = 0
    for bound, n in zip(bounds, counts):
        running += int(n)
        if running >= rank:
            return min(bound, max_value) if max_value > 0 else bound
    return max_value


def _widx(times: np.ndarray, window_s: float, n: int) -> np.ndarray:
    """Window index per timestamp — ``floor(t / w)``, so an event
    exactly on an edge opens the next window; clamped into [0, n)."""
    # int64 truncation == floor for t >= 0 (callers validate that),
    # and is ~10x faster than np.floor_divide's C fmod loop.
    idx = (times / window_s).astype(np.int64)
    return np.minimum(idx, n - 1)


@dataclass(frozen=True)
class BatchSpans:
    """Dispatched batches in dispatch order, one entry per batch: the
    per-batch input of :meth:`TimelineRecorder.finish`."""

    start_s: np.ndarray
    end_s: np.ndarray
    size: np.ndarray
    energy_j: np.ndarray
    #: device class -> busy seconds of each batch on that class
    busy_s: Mapping[str, np.ndarray] = field(default_factory=dict)


class TimelineRecorder:
    """One vectorized windowing pass over a finished run.

    Nothing is recorded while a simulator runs.  :meth:`finish` derives
    every series after the run from the per-request rows and the batch
    log: outcomes bin at each request's finish instant, and the
    queue-depth curve steps +1 at each arrival and -1 where the request
    left its queue (its dispatch, or its finish if it was never
    dispatched).  It keeps the name ``TimelineRecorder`` because the
    end-to-end benchmark's tracer times :meth:`finish` by that name.
    """

    __slots__ = ("window_s", "source", "meta")

    def __init__(
        self,
        window_s: float = 1.0,
        *,
        source: str = "",
        meta: Optional[Mapping[str, str]] = None,
    ) -> None:
        if window_s <= 0.0:
            raise ReproError(
                f"timeline window width must be > 0, got {window_s}"
            )
        self.window_s = float(window_s)
        self.source = source
        self.meta: Dict[str, str] = dict(meta or {})

    def _spread(
        self,
        lane: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        values: np.ndarray,
        n: int,
    ) -> None:
        """Add ``values`` into ``lane`` spread over [start, end)
        proportionally to window overlap.  Spans inside one window (the
        overwhelmingly common case) go through one bincount; straddlers
        take a Python loop."""
        w = self.window_s
        sw = _widx(starts, w, n)
        ew = (ends / w).astype(np.int64)
        on_edge = ends == ew * w
        ew = np.clip(np.where(on_edge, ew - 1, ew), 0, n - 1)
        single = ew <= sw
        if np.any(single):
            lane += np.bincount(
                sw[single], weights=values[single], minlength=n
            )
        for i in np.nonzero(~single)[0]:
            start, end, value = starts[i], ends[i], values[i]
            duration = end - start
            for idx in range(int(sw[i]), int(ew[i]) + 1):
                lo, hi = idx * w, (idx + 1) * w
                overlap = min(end, hi) - max(start, lo)
                if overlap <= 0.0:
                    continue
                frac = overlap / duration if duration > 0.0 else 1.0
                lane[idx] += value * frac

    def finish(
        self,
        rows: RequestRows,
        batches: BatchSpans,
        *,
        horizon_s: float,
        makespan_s: float,
        capacity: Optional[Mapping[str, float]] = None,
    ) -> "TimelineArtifact":
        """Bin a finished run's rows and batches into the dense artifact.

        ``capacity`` maps device classes to concurrent-unit counts (one
        integrated device: ``{"cpu": 1, "gpu": 1}``; a fleet: replicas
        per base device) and normalizes busy seconds into utilization.
        Reads its inputs without changing them, so it can be called
        (and timed) repeatedly.
        """
        w = self.window_s
        nb = len(SKETCH_BOUNDS_S)
        arrival = rows.arrival_s
        ended = rows.status >= SERVED
        finish = rows.finish_s[ended]
        code = rows.status[ended].astype(np.int64)
        b_st = batches.start_s
        b_sz = np.asarray(batches.size, dtype=np.float64)

        t_max = 0.0
        present = [t for t in (arrival, finish, b_st) if t.size]
        if present:
            lo = min(float(t.min()) for t in present)
            if lo < 0.0:
                raise ReproError(
                    f"timeline event at t={lo} precedes the virtual "
                    f"clock origin; timestamps must be >= 0"
                )
            t_max = max(float(t.max()) for t in present)

        span = max(makespan_s, horizon_s)
        n = max(
            int(span / w) + (1 if span % w else 0),
            int(t_max / w) + 1,
            1,
        )

        # Every outcome bins at the instant the request finished; late
        # responses are the timed-out rows that were dispatched.
        f_widx = _widx(finish, w, n)
        by_code = np.bincount(
            code * n + f_widx, minlength=(REJECTED + 1) * n
        ).reshape(REJECTED + 1, n)
        served = by_code[SERVED]
        late_rows = (code == TIMED_OUT) & ~np.isnan(rows.dispatch_s[ended])
        late = np.bincount(f_widx[late_rows], minlength=n)
        b_widx = _widx(b_st, w, n)
        batch_n = np.bincount(b_widx, minlength=n)

        series: Dict[str, List[float]] = {}
        series["offered"] = np.bincount(
            _widx(arrival, w, n), minlength=n
        ).tolist()
        series["served"] = served.tolist()
        series["shed"] = by_code[SHED].tolist()
        series["timed_out"] = by_code[TIMED_OUT].tolist()
        series["late"] = late.tolist()
        series["failed"] = by_code[FAILED].tolist()
        series["rejected"] = by_code[REJECTED].tolist()

        # Batch series, binned at dispatch time.
        series["batches"] = batch_n.tolist()
        size_sum = np.zeros(n)
        size_max = np.zeros(n)
        if b_st.size:
            size_sum = np.bincount(b_widx, weights=b_sz, minlength=n)
            np.maximum.at(size_max, b_widx, b_sz)
        series["batch_size_mean"] = [
            float(s / c) if c else 0.0
            for s, c in zip(size_sum, batch_n)
        ]
        series["batch_size_max"] = np.rint(size_max).astype(
            np.int64
        ).tolist()

        # Queue depth: +1 at each arrival, -1 where the request left
        # its queue — at dispatch, or at finish if never dispatched.
        left = np.where(
            np.isnan(rows.dispatch_s), rows.finish_s, rows.dispatch_s
        )
        left = left[~np.isnan(left)]
        delta_t = np.concatenate([arrival, left])
        delta_v = np.concatenate(
            [np.ones(arrival.size), np.full(left.size, -1.0)]
        )
        depth_mean = np.zeros(n)
        depth_max = np.zeros(n)
        if delta_t.size:
            uniq, inv = np.unique(delta_t, return_inverse=True)
            net = np.bincount(inv, weights=delta_v)
            # Clamp: rows that leave before they arrive (hand-built
            # test inputs) must not push the derived curve negative.
            depth_lvl = np.maximum(np.cumsum(net), 0.0)
            knots = np.append(uniq, max(float(span), float(uniq[-1])))
            integral = np.concatenate(
                [[0.0], np.cumsum(depth_lvl * np.diff(knots))]
            )
            edges = np.arange(n + 1, dtype=np.float64) * w
            at_edges = np.interp(edges, knots, integral)
            depth_mean = np.diff(at_edges) / w
            np.maximum.at(depth_max, _widx(knots[:-1], w, n), depth_lvl)
            ew = (knots[1:] / w).astype(np.int64)
            on_edge = knots[1:] == ew * w
            ew = np.clip(np.where(on_edge, ew - 1, ew), 0, n - 1)
            sw = _widx(knots[:-1], w, n)
            for i in np.nonzero(ew > sw)[0]:
                seg = depth_max[sw[i]:ew[i] + 1]
                np.maximum(seg, depth_lvl[i], out=seg)
        series["queue_depth_mean"] = depth_mean.tolist()
        series["queue_depth_max"] = np.rint(depth_max).astype(
            np.int64
        ).tolist()

        # Latency sketch: one flat histogram over (window, bucket).  The
        # sums add in completion order.
        s_finish = rows.finish_s[rows.served]
        lat = s_finish - arrival[rows.served]
        lat_counts_2d = np.zeros((n, nb + 1), dtype=np.int64)
        lat_sum = np.zeros(n)
        lat_max = np.zeros(n)
        if lat.size:
            lw = _widx(s_finish, w, n)
            bidx = np.searchsorted(
                np.asarray(SKETCH_BOUNDS_S), lat, side="left"
            )
            bidx = np.minimum(bidx, nb)
            lat_counts_2d = np.bincount(
                lw * (nb + 1) + bidx, minlength=n * (nb + 1)
            ).reshape(n, nb + 1)
            lat_sum = np.bincount(lw, weights=lat, minlength=n)
            np.maximum.at(lat_max, lw, lat)
        series["latency_mean_ms"] = [
            float(s / c * 1e3) if c else 0.0
            for s, c in zip(lat_sum, served)
        ]
        series["latency_max_ms"] = [
            float(v * 1e3) if c else 0.0
            for v, c in zip(lat_max, served)
        ]
        for key, q in (
            ("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99),
        ):
            series[key] = [
                float(_bucket_quantile(
                    SKETCH_BOUNDS_S, lat_counts_2d[i, :nb],
                    int(lat_counts_2d[i, nb]), float(lat_max[i]), q,
                ) * 1e3) if served[i] else 0.0
                for i in range(n)
            ]

        # Energy and per-class busy seconds, spread over span overlap.
        energy = np.zeros(n)
        caps = dict(capacity or {})
        lanes: Dict[str, np.ndarray] = {
            name: np.zeros(n) for name in caps
        }
        if b_st.size:
            b_en = batches.end_s
            self._spread(energy, b_st, b_en, batches.energy_j, n)
            for name in sorted(batches.busy_s):
                lane = lanes.get(name)
                if lane is None:
                    lane = lanes[name] = np.zeros(n)
                self._spread(lane, b_st, b_en, batches.busy_s[name], n)
        series["energy_j"] = energy.tolist()
        utilization: Dict[str, List[float]] = {}
        for name in sorted(lanes):
            cap = max(caps.get(name, 1.0), 1e-12)
            utilization[name] = [
                float(min(1.0, v / (w * cap))) for v in lanes[name]
            ]

        series["goodput_rps"] = [float(v / w) for v in served]
        series["throughput_rps"] = [
            float((s + lt) / w) for s, lt in zip(served, late)
        ]
        return TimelineArtifact(
            source=self.source,
            window_s=w,
            windows=n,
            horizon_s=horizon_s,
            makespan_s=makespan_s,
            meta=dict(self.meta),
            capacity={k: float(v) for k, v in sorted(caps.items())},
            series=series,
            utilization=utilization,
            latency_bounds_ms=[b * 1e3 for b in SKETCH_BOUNDS_S],
            latency_counts=lat_counts_2d.tolist(),
        )


# -- the serialized artifact --------------------------------------------------


@dataclass
class TimelineArtifact:
    """Versioned, digest-stable windowed telemetry of one run."""

    source: str
    window_s: float
    windows: int
    horizon_s: float
    makespan_s: float
    meta: Dict[str, str] = field(default_factory=dict)
    capacity: Dict[str, float] = field(default_factory=dict)
    series: Dict[str, List[float]] = field(default_factory=dict)
    utilization: Dict[str, List[float]] = field(default_factory=dict)
    latency_bounds_ms: List[float] = field(default_factory=list)
    latency_counts: List[List[int]] = field(default_factory=list)
    schema: str = TIMELINE_SCHEMA
    version: int = TIMELINE_SCHEMA_VERSION

    # -- derived metrics --------------------------------------------------

    def times_s(self) -> List[float]:
        """Window start instants."""
        return [i * self.window_s for i in range(self.windows)]

    def outcomes(self) -> List[int]:
        """Terminal outcomes per window (the goodput_ratio denominator)."""
        keys = ("served", "shed", "timed_out", "failed", "rejected")
        rows = [self.series[k] for k in keys]
        return [int(sum(vals)) for vals in zip(*rows)]

    def metric(self, name: str) -> List[float]:
        """One per-window metric series by name (stored or derived).

        Derived names: ``goodput_ratio``, ``shed_rate``, ``miss_rate``,
        ``error_rate`` (over terminal outcomes; traffic-free windows
        report the healthy value), and ``util:<device-class>``.
        """
        if name in self.series:
            return list(self.series[name])
        if name.startswith("util:"):
            lane = self.utilization.get(name[len("util:"):])
            if lane is None:
                raise ReproError(
                    f"unknown utilization class {name!r}; have "
                    f"{sorted('util:' + k for k in self.utilization)}"
                )
            return list(lane)
        outcomes = self.outcomes()
        if name == "goodput_ratio":
            served = self.series["served"]
            return [
                s / o if o else 1.0 for s, o in zip(served, outcomes)
            ]
        rates = {
            "shed_rate": "shed",
            "miss_rate": "timed_out",
        }
        if name in rates:
            top = self.series[rates[name]]
            return [v / o if o else 0.0 for v, o in zip(top, outcomes)]
        if name == "error_rate":
            failed = self.series["failed"]
            rejected = self.series["rejected"]
            return [
                (f + r) / o if o else 0.0
                for f, r, o in zip(failed, rejected, outcomes)
            ]
        known = sorted(
            list(self.series)
            + ["goodput_ratio", "shed_rate", "miss_rate", "error_rate"]
            + ["util:" + k for k in self.utilization]
        )
        raise ReproError(f"unknown timeline metric {name!r}; have {known}")

    def total(self, key: str) -> float:
        return float(sum(self.series[key]))

    def exceedance(self, threshold_ms: float) -> List[float]:
        """Per-window fraction of served requests slower than the
        threshold (from the sketch; the burn substrate for p* SLOs)."""
        bounds = self.latency_bounds_ms
        cut = bisect_left(bounds, threshold_ms)
        out: List[float] = []
        for row in self.latency_counts:
            total = sum(row)
            if not total:
                out.append(0.0)
                continue
            # buckets with upper bound <= threshold hold fast requests;
            # the boundary bucket counts as fast iff its bound matches.
            if cut < len(bounds) and bounds[cut] == threshold_ms:
                fast = sum(row[: cut + 1])
            else:
                fast = sum(row[:cut])
            out.append((total - fast) / total)
        return out

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "version": self.version,
            "source": self.source,
            "window_s": self.window_s,
            "windows": self.windows,
            "horizon_s": self.horizon_s,
            "makespan_s": self.makespan_s,
            "meta": dict(sorted(self.meta.items())),
            "capacity": dict(sorted(self.capacity.items())),
            "series": {k: list(v) for k, v in sorted(self.series.items())},
            "utilization": {
                k: list(v) for k, v in sorted(self.utilization.items())
            },
            "latency_bounds_ms": list(self.latency_bounds_ms),
            "latency_counts": [list(r) for r in self.latency_counts],
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def digest(self) -> str:
        """sha256 over the sorted-keys JSON — bit-identical across
        processes for the same run configuration."""
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def save(self, path) -> pathlib.Path:
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json(indent=1) + "\n")
        return target

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "TimelineArtifact":
        schema = doc.get("schema")
        if schema != TIMELINE_SCHEMA:
            raise ReproError(
                f"not a timeline artifact: schema {schema!r} "
                f"(expected {TIMELINE_SCHEMA!r})"
            )
        version = doc.get("version")
        if version != TIMELINE_SCHEMA_VERSION:
            raise ReproError(
                f"unsupported timeline artifact version {version!r} "
                f"(this build reads version {TIMELINE_SCHEMA_VERSION})"
            )
        try:
            return cls(
                source=str(doc["source"]),
                window_s=float(doc["window_s"]),          # type: ignore[arg-type]
                windows=int(doc["windows"]),              # type: ignore[arg-type]
                horizon_s=float(doc["horizon_s"]),        # type: ignore[arg-type]
                makespan_s=float(doc["makespan_s"]),      # type: ignore[arg-type]
                meta=dict(doc.get("meta", {})),           # type: ignore[arg-type]
                capacity=dict(doc.get("capacity", {})),   # type: ignore[arg-type]
                series=dict(doc["series"]),               # type: ignore[arg-type]
                utilization=dict(doc.get("utilization", {})),  # type: ignore[arg-type]
                latency_bounds_ms=list(doc["latency_bounds_ms"]),  # type: ignore[arg-type]
                latency_counts=[list(r) for r in doc["latency_counts"]],  # type: ignore[union-attr]
            )
        except KeyError as exc:
            raise ReproError(
                f"timeline artifact is missing field {exc}"
            ) from exc

    @classmethod
    def load(cls, path) -> "TimelineArtifact":
        source = pathlib.Path(path)
        try:
            doc = json.loads(source.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(
                f"cannot read timeline artifact {source}: {exc}"
            ) from exc
        if not isinstance(doc, dict):
            raise ReproError(
                f"timeline artifact {source} is not a JSON object"
            )
        return cls.from_dict(doc)

    # -- rendering --------------------------------------------------------

    def describe(
        self,
        metrics: Optional[Sequence[str]] = None,
        *,
        width: int = 64,
    ) -> str:
        """ASCII sparkline dashboard of the run."""
        names = list(metrics) if metrics else [
            "goodput_rps", "throughput_rps", "shed_rate", "miss_rate",
            "queue_depth_mean", "batch_size_mean", "p99_ms", "energy_j",
        ] + [f"util:{k}" for k in sorted(self.utilization)]
        served = self.total("served")
        offered = self.total("offered")
        lines = [
            f"timeline: {self.source or 'run'} — {self.windows} windows × "
            f"{self.window_s:g} s (makespan {self.makespan_s:.2f} s)",
            f"  offered {offered:.0f}, served {served:.0f}, shed "
            f"{self.total('shed'):.0f}, timed out "
            f"{self.total('timed_out'):.0f}, failed "
            f"{self.total('failed'):.0f}, rejected "
            f"{self.total('rejected'):.0f}",
        ]
        label_w = max((len(n) for n in names), default=0)
        for name in names:
            values = self.metric(name)
            lines.append(
                f"  {name:<{label_w}} {sparkline(values, width=width)} "
                f"min {min(values):g}  max {max(values):g}  "
                f"last {values[-1]:g}"
            )
        return "\n".join(lines)


def sparkline(values: Sequence[float], *, width: int = 64) -> str:
    """Render a series as unicode block characters (▁..█).

    Series longer than ``width`` are downsampled by window-mean so the
    shape survives; a flat series renders as a flat mid-level bar.
    """
    if not values:
        return ""
    vals = list(values)
    if len(vals) > width:
        step = len(vals) / width
        vals = [
            sum(vals[int(i * step):max(int((i + 1) * step), int(i * step) + 1)])
            / max(int((i + 1) * step) - int(i * step), 1)
            for i in range(width)
        ]
    lo, hi = min(vals), max(vals)
    # Treat float-noise-level spreads as flat so a constant series does
    # not render as full-scale variation.
    if hi - lo <= 1e-9 * max(abs(hi), abs(lo)):
        return _SPARK_CHARS[3] * len(vals)
    scale = (len(_SPARK_CHARS) - 1) / (hi - lo)
    return "".join(
        _SPARK_CHARS[int((v - lo) * scale + 0.5)] for v in vals
    )


# -- behavioral diff / regression gate ----------------------------------------


@dataclass(frozen=True)
class DiffTolerances:
    """Direction-aware regression thresholds for :func:`diff_timelines`."""

    #: relative drop in total served requests that counts as regression.
    max_goodput_drop: float = 0.05
    #: relative overall-p99 increase that counts as regression (with an
    #: absolute floor so microsecond noise never gates).
    max_p99_increase: float = 0.10
    p99_floor_ms: float = 1.0
    #: absolute increase in overall shed / deadline-miss rate.
    max_rate_increase: float = 0.02


@dataclass
class TimelineDiff:
    """Outcome of comparing a current timeline against a baseline."""

    regressions: List[str] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def regressed(self) -> bool:
        return bool(self.regressions)

    def render(self) -> str:
        lines: List[str] = []
        for text in self.regressions:
            lines.append(f"REGRESSION: {text}")
        for text in self.improvements:
            lines.append(f"improved: {text}")
        for text in self.notes:
            lines.append(f"note: {text}")
        lines.append(
            "verdict: regression" if self.regressed else "verdict: OK"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "regressed": self.regressed,
            "regressions": list(self.regressions),
            "improvements": list(self.improvements),
            "notes": list(self.notes),
        }


def _overall_quantile_ms(artifact: TimelineArtifact, q: float) -> float:
    """Run-wide latency quantile from the merged window sketches."""
    merged = [0] * (len(artifact.latency_bounds_ms) + 1)
    for row in artifact.latency_counts:
        for i, c in enumerate(row):
            merged[i] += c
    max_ms = max(artifact.series["latency_max_ms"], default=0.0)
    return _bucket_quantile(
        artifact.latency_bounds_ms, merged[:-1], merged[-1], max_ms, q
    )


def _overall_rate(artifact: TimelineArtifact, key: str) -> float:
    outcomes = sum(artifact.outcomes())
    return artifact.total(key) / outcomes if outcomes else 0.0


def diff_timelines(
    baseline: TimelineArtifact,
    current: TimelineArtifact,
    tolerances: Optional[DiffTolerances] = None,
) -> TimelineDiff:
    """Compare ``current`` against a committed ``baseline`` timeline.

    Directions matter: goodput down, tail latency up, and shed/miss
    rates up are regressions; movements the other way are reported as
    improvements and never gate.
    """
    tol = tolerances or DiffTolerances()
    diff = TimelineDiff()
    if baseline.window_s != current.window_s:
        diff.regressions.append(
            f"window width changed: baseline {baseline.window_s:g} s vs "
            f"current {current.window_s:g} s (timelines not comparable)"
        )
        return diff
    if baseline.source != current.source:
        diff.notes.append(
            f"source changed: {baseline.source!r} -> {current.source!r}"
        )

    base_served = baseline.total("served")
    cur_served = current.total("served")
    if base_served > 0:
        change = (cur_served - base_served) / base_served
        if change < -tol.max_goodput_drop:
            diff.regressions.append(
                f"total served dropped {-change:.1%} "
                f"({base_served:.0f} -> {cur_served:.0f}; tolerance "
                f"{tol.max_goodput_drop:.0%})"
            )
        elif change > tol.max_goodput_drop:
            diff.improvements.append(
                f"total served up {change:.1%} "
                f"({base_served:.0f} -> {cur_served:.0f})"
            )

    base_p99 = _overall_quantile_ms(baseline, 0.99)
    cur_p99 = _overall_quantile_ms(current, 0.99)
    if base_p99 > 0:
        increase = (cur_p99 - base_p99) / base_p99
        if (
            increase > tol.max_p99_increase
            and cur_p99 - base_p99 > tol.p99_floor_ms
        ):
            diff.regressions.append(
                f"overall p99 up {increase:.1%} ({base_p99:.2f} ms -> "
                f"{cur_p99:.2f} ms; tolerance {tol.max_p99_increase:.0%})"
            )
        elif increase < -tol.max_p99_increase:
            diff.improvements.append(
                f"overall p99 down {-increase:.1%} "
                f"({base_p99:.2f} ms -> {cur_p99:.2f} ms)"
            )

    for key, label in (("shed", "shed rate"), ("timed_out", "miss rate")):
        base_rate = _overall_rate(baseline, key)
        cur_rate = _overall_rate(current, key)
        delta = cur_rate - base_rate
        if delta > tol.max_rate_increase:
            diff.regressions.append(
                f"{label} up {delta:+.2%} absolute ({base_rate:.2%} -> "
                f"{cur_rate:.2%}; tolerance {tol.max_rate_increase:.0%})"
            )
        elif delta < -tol.max_rate_increase:
            diff.improvements.append(
                f"{label} down {delta:+.2%} absolute ({base_rate:.2%} -> "
                f"{cur_rate:.2%})"
            )

    if baseline.windows != current.windows:
        diff.notes.append(
            f"window count changed: {baseline.windows} -> "
            f"{current.windows}"
        )
    return diff


# -- SLO objectives and burn-rate alerting ------------------------------------

#: Implied per-window error budget of quantile objectives: ``p99_ms <=
#: X`` tolerates 1% of requests past X, so burn = exceedance / 1%.
_QUANTILE_BUDGETS = {"p50_ms": 0.50, "p95_ms": 0.05, "p99_ms": 0.01}

#: Metrics where the objective constrains a good-fraction from below.
_GOOD_RATIO_METRICS = {"goodput_ratio"}
#: Metrics where the objective bounds a bad-fraction from above.
_BAD_RATE_METRICS = {"shed_rate", "miss_rate", "error_rate"}


@dataclass(frozen=True)
class SloObjective:
    """One declarative objective, e.g. ``goodput_ratio >= 0.99``."""

    metric: str
    op: str                     # ">=" or "<="
    threshold: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.op not in (">=", "<="):
            raise ReproError(
                f"SLO operator must be >= or <=, got {self.op!r}"
            )
        if not self.name:
            object.__setattr__(
                self, "name", f"{self.metric}{self.op}{self.threshold:g}"
            )

    @classmethod
    def parse(cls, text: str) -> "SloObjective":
        """Parse ``"metric>=value"`` / ``"metric<=value"`` (CLI form)."""
        for op in (">=", "<="):
            if op in text:
                metric, _, value = text.partition(op)
                metric = metric.strip()
                try:
                    threshold = float(value)
                except ValueError:
                    raise ReproError(
                        f"SLO threshold must be numeric, got {text!r}"
                    ) from None
                if not metric:
                    raise ReproError(f"SLO is missing a metric: {text!r}")
                return cls(metric=metric, op=op, threshold=threshold)
        raise ReproError(
            f"cannot parse SLO {text!r}; expected METRIC>=VALUE or "
            f"METRIC<=VALUE (e.g. 'goodput_ratio>=0.99', 'p99_ms<=250')"
        )

    def bad_fractions(self, artifact: TimelineArtifact) -> List[float]:
        """Per-window bad fraction in [0, 1] this objective burns on."""
        if self.metric in _QUANTILE_BUDGETS:
            return artifact.exceedance(self.threshold)
        values = artifact.metric(self.metric)
        if self.metric in _GOOD_RATIO_METRICS:
            return [max(0.0, min(1.0, 1.0 - v)) for v in values]
        if self.metric in _BAD_RATE_METRICS:
            return [max(0.0, min(1.0, v)) for v in values]
        # Threshold metric (queue depth, batch size, utilization...):
        # a window is simply in or out of compliance.
        if self.op == "<=":
            return [1.0 if v > self.threshold else 0.0 for v in values]
        return [1.0 if v < self.threshold else 0.0 for v in values]

    def budget(self) -> float:
        """Per-window error budget the burn rate is measured against."""
        if self.metric in _QUANTILE_BUDGETS:
            return _QUANTILE_BUDGETS[self.metric]
        if self.metric in _GOOD_RATIO_METRICS:
            return max(1.0 - self.threshold, 1e-9)
        if self.metric in _BAD_RATE_METRICS:
            return max(self.threshold, 1e-9)
        return 1.0


@dataclass(frozen=True)
class BurnRateRule:
    """Multi-window burn-rate alerting (the SRE workbook shape).

    An alert fires when the error-budget burn rate exceeds ``factor``
    over *both* the short and the long trailing window — the short
    window makes alerts reset quickly, the long one keeps one bad
    window from paging.
    """

    short_windows: int = 1
    long_windows: int = 5
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.short_windows < 1 or self.long_windows < self.short_windows:
            raise ReproError(
                f"burn-rate windows must satisfy 1 <= short <= long, got "
                f"short={self.short_windows} long={self.long_windows}"
            )
        if self.factor <= 0.0:
            raise ReproError(
                f"burn-rate factor must be > 0, got {self.factor}"
            )


@dataclass(frozen=True)
class SloAlert:
    """One alert firing (and optional resolution) for one objective."""

    objective: str
    metric: str
    fired_at_s: float
    resolved_at_s: Optional[float]
    peak_burn: float
    windows: int                 # windows spent in the firing state

    @property
    def resolved(self) -> bool:
        return self.resolved_at_s is not None


@dataclass
class SloReport:
    """All objectives evaluated against one timeline."""

    source: str
    objectives: Tuple[SloObjective, ...]
    rule: BurnRateRule
    alerts: List[SloAlert] = field(default_factory=list)
    #: peak observed burn per objective name (alerting or not).
    peak_burn: Dict[str, float] = field(default_factory=dict)

    @property
    def firing(self) -> bool:
        return bool(self.alerts)

    def render(self) -> str:
        lines = [
            f"SLO evaluation ({self.source or 'run'}): "
            f"{len(self.objectives)} objective(s), rule "
            f"{self.rule.short_windows}w/{self.rule.long_windows}w × "
            f"{self.rule.factor:g}"
        ]
        for objective in self.objectives:
            peak = self.peak_burn.get(objective.name, 0.0)
            fired = [
                a for a in self.alerts if a.objective == objective.name
            ]
            status = (
                f"FIRED {len(fired)}x" if fired else "ok"
            )
            lines.append(
                f"  {objective.name:<28} peak burn {peak:7.2f}x  {status}"
            )
        for alert in self.alerts:
            until = (
                f"resolved at t={alert.resolved_at_s:.1f} s"
                if alert.resolved
                else "unresolved at end of run"
            )
            lines.append(
                f"  alert {alert.objective}: fired at "
                f"t={alert.fired_at_s:.1f} s ({alert.windows} windows, "
                f"peak burn {alert.peak_burn:.2f}x), {until}"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "source": self.source,
            "firing": self.firing,
            "objectives": [o.name for o in self.objectives],
            "peak_burn": dict(sorted(self.peak_burn.items())),
            "alerts": [
                {
                    "objective": a.objective,
                    "metric": a.metric,
                    "fired_at_s": a.fired_at_s,
                    "resolved_at_s": a.resolved_at_s,
                    "peak_burn": a.peak_burn,
                    "windows": a.windows,
                }
                for a in self.alerts
            ],
        }


class SloMonitor:
    """Evaluates declarative objectives over a finished timeline.

    Post-run evaluation keeps the simulators' hot loops untouched: the
    finished artifact holds everything the burn computation needs, so
    alerting adds zero per-event cost.
    """

    def __init__(
        self,
        objectives: Sequence[SloObjective],
        rule: Optional[BurnRateRule] = None,
    ) -> None:
        if not objectives:
            raise ReproError("SloMonitor needs at least one objective")
        self.objectives = tuple(objectives)
        self.rule = rule or BurnRateRule()

    def evaluate(self, artifact: TimelineArtifact) -> SloReport:
        rule = self.rule
        report = SloReport(
            source=artifact.source, objectives=self.objectives, rule=rule
        )
        outcomes = artifact.outcomes()
        w = artifact.window_s
        for objective in self.objectives:
            bad = objective.bad_fractions(artifact)
            budget = objective.budget()
            weights = [float(o) if o else 0.0 for o in outcomes]
            burns: List[float] = []
            firing_since: Optional[int] = None
            peak_overall = 0.0
            peak_alert = 0.0
            for i, fraction in enumerate(bad):
                burns.append(fraction / budget)
                short = _trailing_mean(
                    burns, weights, i, rule.short_windows
                )
                long = _trailing_mean(burns, weights, i, rule.long_windows)
                burn = min(short, long)
                peak_overall = max(peak_overall, burn)
                if short >= rule.factor and long >= rule.factor:
                    if firing_since is None:
                        firing_since = i
                        peak_alert = burn
                    else:
                        peak_alert = max(peak_alert, burn)
                elif firing_since is not None:
                    report.alerts.append(SloAlert(
                        objective=objective.name,
                        metric=objective.metric,
                        fired_at_s=firing_since * w,
                        resolved_at_s=i * w,
                        peak_burn=peak_alert,
                        windows=i - firing_since,
                    ))
                    firing_since = None
            if firing_since is not None:
                report.alerts.append(SloAlert(
                    objective=objective.name,
                    metric=objective.metric,
                    fired_at_s=firing_since * w,
                    resolved_at_s=None,
                    peak_burn=peak_alert,
                    windows=len(bad) - firing_since,
                ))
            report.peak_burn[objective.name] = peak_overall
        return report

    def record(self, report: SloReport, obs) -> None:
        """Mirror alert firings/resolutions into the provenance log and
        metrics registry (no-op with observability disabled)."""
        if not obs.enabled:
            return
        counter = obs.metrics.counter(
            "repro_slo_alerts_total",
            "SLO burn-rate alert transitions",
            labels=("objective", "event"),
        )
        for alert in report.alerts:
            obs.provenance.record_alert(AlertRecord(
                objective=alert.objective,
                metric=alert.metric,
                t_s=alert.fired_at_s,
                event="fired",
                burn=alert.peak_burn,
                source=report.source,
                reason=(
                    f"burn {alert.peak_burn:.2f}x over budget for "
                    f"{alert.windows} window(s)"
                ),
            ))
            counter.labels(objective=alert.objective, event="fired").inc()
            if alert.resolved:
                obs.provenance.record_alert(AlertRecord(
                    objective=alert.objective,
                    metric=alert.metric,
                    t_s=float(alert.resolved_at_s or 0.0),
                    event="resolved",
                    burn=0.0,
                    source=report.source,
                    reason="burn rate back under the alert factor",
                ))
                counter.labels(
                    objective=alert.objective, event="resolved"
                ).inc()

    def apply(self, report: SloReport, degradation, network: str) -> int:
        """Drive :class:`~repro.faults.DegradationManager` hooks from
        alert firings; returns the number of hooks invoked."""
        if degradation is None:
            return 0
        for alert in report.alerts:
            degradation.note_slo_alert(
                tenant="",
                network=network,
                objective=alert.objective,
                now=alert.fired_at_s,
                burn=alert.peak_burn,
            )
        return len(report.alerts)


def _trailing_mean(
    burns: List[float],
    weights: List[float],
    end: int,
    span: int,
) -> float:
    """Traffic-weighted mean burn over ``burns[end-span+1 .. end]``.

    Windows with no traffic carry no weight; an all-idle span burns 0.
    """
    start = max(0, end - span + 1)
    weight = 0.0
    total = 0.0
    for i in range(start, end + 1):
        weight += weights[i]
        total += burns[i] * weights[i]
    return total / weight if weight > 0.0 else 0.0


__all__ = [
    "BatchSpans",
    "BurnRateRule",
    "DiffTolerances",
    "SKETCH_BOUNDS_S",
    "SloAlert",
    "SloMonitor",
    "SloObjective",
    "SloReport",
    "TIMELINE_SCHEMA",
    "TIMELINE_SCHEMA_VERSION",
    "TimelineArtifact",
    "TimelineDiff",
    "TimelineRecorder",
    "diff_timelines",
    "sparkline",
]
