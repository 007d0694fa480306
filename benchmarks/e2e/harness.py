"""Run one workload in this process: set up, time, check.

``run.py`` starts this file once per workload run, in a fresh process
whose environment pins BLAS to one thread and fixes the hash seed::

    python3 benchmarks/e2e/harness.py --workload NAME --seed S \\
        --seconds T --trace 0|1 --result PATH [--setup-only]

The result (metrics, checks, facts) is written as JSON to ``PATH``.
The smoke test calls :func:`run_workload` directly, at reduced scale.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy
from trace import (
    SETUP,
    Tracer,
    instrument,
    layer_metrics,
    self_time_table,
    setup_metrics,
)
from workloads import NETWORKS, WORKLOADS

from repro.core.plan_cache import default_plan_cache

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
EXPECTED = HERE / "expected.json"

#: a timed phase holds at least this many rounds of operations
MIN_ROUNDS = 2


@dataclass
class Op:
    kind: str
    items: int
    seconds: float
    ok: bool


def measure(workload, seconds: float, tracer=None) -> List[Op]:
    """Run operations until ``seconds`` have passed and the current
    round is complete; time each one."""
    ops: List[Op] = []
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if (
            index >= MIN_ROUNDS * workload.round_size
            and elapsed >= seconds
            and index % workload.round_size == 0
        ):
            return ops
        t0 = time.perf_counter()
        if tracer is None:
            kind, items, output = workload.op(index)
        else:
            with tracer.root(index):
                kind, items, output = workload.op(index)
        dt = time.perf_counter() - t0
        ops.append(Op(kind, items, dt, workload.verify(output)))
        index += 1


def by_kind(ops: List[Op]) -> Dict[str, List[Op]]:
    groups: Dict[str, List[Op]] = defaultdict(list)
    for op in ops:
        groups[op.kind].append(op)
    return groups


def seconds_by_kind(ops: List[Op], estimator) -> Dict[str, float]:
    return {
        kind: estimator([op.seconds for op in group])
        for kind, group in by_kind(ops).items()
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any finished child."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def end_to_end(ops: List[Op]) -> Dict[str, float]:
    """Every end-to-end metric except ``setup_s`` (which ``run.py``
    takes over several processes).

    ``work_per_s`` is the work of one operation of each kind over the
    fastest operation of that kind, summed over kinds.  Every operation
    of a kind repeats the same work on the same inputs, so their spread
    is interference from the rest of the host, and the fastest one
    estimates the cost of the work itself.
    """
    groups = by_kind(ops)
    items = sum(statistics.median(op.items for op in g) for g in groups.values())
    return {
        "work_per_s": items / sum(seconds_by_kind(ops, min).values()),
        "peak_rss_mb": peak_rss_mb(),
    }


def load_expected(name: str, scale: float) -> Optional[dict]:
    if scale != 1.0:
        return None
    return json.loads(EXPECTED.read_text())["workloads"].get(name)


def run_workload(
    name: str,
    *,
    seed: int = 7,
    seconds: float = 10.0,
    trace: bool = False,
    scale: float = 1.0,
    expected: Optional[dict] = None,
    setup_only: bool = False,
) -> dict:
    """Set up ``name``, measure it for ``seconds`` and check its outputs.

    ``expected`` defaults to the workload's entry of ``expected.json``
    (at full scale).  With ``trace``, set-up is traced, half of
    ``seconds`` runs untraced and half traced, and the result carries
    every per-layer metric.
    """
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{name}-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[name](seed, scale, workdir)
        setup_tracer = None
        if trace:
            setup_tracer = Tracer(workdir / "setup-workers")
            with instrument(setup_tracer), setup_tracer.root(None, SETUP):
                workload.setup()
        else:
            workload.setup()
        result = {
            "workload": name,
            "seed": seed,
            "scale": scale,
            "item": workload.item,
            "numpy": numpy.__version__,
            "setup_end": time.monotonic(),
        }
        if setup_only:
            return result
        if trace:
            ops = _traced(workload, setup_tracer, seconds, workdir, result)
        else:
            ops = measure(workload, seconds)
            result["metrics"] = end_to_end(ops)
        if expected is None:
            expected = load_expected(name, scale)
        errors, facts = workload.check(expected)
        result.update(
            attempted=len(ops),
            failed=sum(not op.ok for op in ops),
            errors=errors,
            facts=facts,
            op_ms_by_kind={
                kind: {
                    "fastest": min(op.seconds for op in group) * 1e3,
                    "median": statistics.median(op.seconds for op in group) * 1e3,
                }
                for kind, group in by_kind(ops).items()
            },
            ops=[[op.kind, op.items, op.seconds] for op in ops],
        )
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(
    workload, setup_tracer: Tracer, seconds: float, workdir: Path, result: dict
) -> List[Op]:
    """Untraced then traced halves of the timed phase; records the
    per-layer metrics, the self-time tables and the Chrome trace."""
    plain = measure(workload, seconds / 2)
    tracer = Tracer(workdir / "timed-workers")
    cache_before = default_plan_cache().stats()
    with instrument(tracer):
        traced = measure(workload, seconds / 2, tracer)
    cache_delta = default_plan_cache().stats().delta(cache_before)
    for each in (setup_tracer, tracer):
        each.merge_workers()
    plain_s = sum(seconds_by_kind(plain, min).values())
    traced_s = sum(seconds_by_kind(traced, min).values())
    metrics = layer_metrics(
        tracer,
        list(NETWORKS),
        {
            kind: [op.seconds * 1e3 for op in group]
            for kind, group in by_kind(traced).items()
        },
        traced_s / plain_s - 1.0,
        cache_delta,
    )
    metrics.update(setup_metrics(setup_tracer))
    result["per_layer"] = metrics
    table = (
        f"set-up:\n{self_time_table(setup_tracer, SETUP)}\n"
        f"timed phase (traced half):\n{self_time_table(tracer)}"
    )
    result["self_time_table"] = table
    events = setup_tracer.chrome_events() + tracer.chrome_events()
    origin = min((event["ts"] for event in events), default=0.0)
    for event in events:
        event["ts"] -= origin
    name = workload.name
    trace_path = OUT_DIR / f"trace-{name}.json"
    trace_path.write_text(json.dumps({
        "traceEvents": events,
        "otherData": {"dropped_spans": setup_tracer.dropped + tracer.dropped},
    }))
    (OUT_DIR / f"trace-{name}.txt").write_text(table + "\n")
    result["trace_file"] = str(trace_path)
    return plain + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # One CPU per workload process (pool workers inherit it), the last
    # one: CPU 0 takes the device interrupts.  On the 2-vCPU host this
    # benchmark was built on, the host slowed one vCPU at a time;
    # compile-catalog's coordinator and pool, spread over both, followed
    # the slower one, and its ten-seed spread of work_per_s fell from
    # 0.15-0.18 to 0.10 when pinned.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # Quarantine and retry warnings are the expected weather of the
    # flaky-fleet workload; the result file carries the tallies.
    logging.disable(logging.WARNING)
    result = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        setup_only=args.setup_only,
    )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
