"""End-to-end benchmark: serving, cluster, tune-fleet and NumPy inference.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds T]
                                  [--trace 0|1] [--repeat N]

Runs each workload (all five by default) in fresh processes, prints
every metric by name and unit, writes ``benchmarks/e2e/out/results.json``
and exits non-zero if any output check fails.  ``setup_s`` is the median
over three processes of the time from process start to the end of
set-up; the other end-to-end metrics come from the last of them, which
goes on to the timed phase.  ``--trace 1`` instead runs one traced
process and reports the per-layer metrics.  ``--repeat N`` repeats the
suite N times, alternating the workload order, and prints each metric's
median, quartiles and spread against its bound in ``BENCHMARK.json``.

When one workload is run, the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: processes whose set-up time ``setup_s`` takes the median of
SETUP_RUNS = 3
#: one run of one workload, all its processes included, ends within this
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> Dict[str, str]:
    """Hermetic workload processes: one BLAS thread, fixed hash seed,
    ``repro`` imported from this checkout's ``src``."""
    env = dict(os.environ)
    pythonpath = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        pythonpath.append(env["PYTHONPATH"])
    env.update(
        PYTHONPATH=os.pathsep.join(pythonpath),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(args: List[str], deadline: float) -> dict:
    """Run ``harness.py`` in its own process group and return its result.

    ``setup_s`` is measured from just before the process starts to the
    end of its set-up (both on the system-wide monotonic clock)."""
    result_path = OUT_DIR / f"result-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "harness.py"), *args,
         "--result", str(result_path)],
        env=child_env(),
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process timed out: {' '.join(args)}") from None
    finally:
        # Also reaps pool workers a crashed process may have left behind.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if code != 0 or not result_path.exists():
        raise BenchError(f"workload process exited with code {code}: {' '.join(args)}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    result["setup_s"] = result["setup_end"] - started
    return result


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload (``SETUP_RUNS`` processes, or one traced)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        result = run_child([*common, "--trace", "1"], deadline)
        result["metrics"] = result.pop("per_layer")
        return result
    setups = [
        run_child([*common, "--setup-only"], deadline)["setup_s"]
        for _ in range(SETUP_RUNS - 1)
    ]
    result = run_child(common, deadline)
    setups.append(result["setup_s"])
    result["setup_samples_s"] = setups
    result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def git_head() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(runs: List[dict]) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": runs[0]["numpy"],
        "git_head": git_head(),
        "platform": platform.platform(),
    }


def is_correct(result: dict) -> bool:
    return not result["errors"] and not result["failed"]


def render(result: dict, specs: Dict[str, dict]) -> str:
    name = result["workload"]
    lines = [
        f"== {name} (seed {result['seed']}, {result['attempted']} timed "
        f"operations; work item: {result['item']}) =="
    ]
    bypassed = 0
    for metric, spec in specs.items():
        value = result["metrics"][metric]
        if value == 0 and "bound" not in spec:
            bypassed += 1
            continue
        lines.append(f"  {metric:<36} {value:>16.6g} {spec['unit']}")
    if bypassed:
        lines.append(f"  ({bypassed} per-layer metrics are 0: layers this workload bypasses)")
    if "setup_samples_s" in result:
        samples = ", ".join(f"{s:.3f}" for s in result["setup_samples_s"])
        lines.append(f"  setup_s samples (s): {samples}")
    lines.append("  ms per operation (fastest / median):")
    for kind, ms in sorted(result["op_ms_by_kind"].items()):
        lines.append(f"    {kind:<14} {ms['fastest']:10.3f} {ms['median']:10.3f}")
    for key, value in result["facts"].items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        lines.append(f"  {key}: {shown}")
    if "self_time_table" in result:
        lines.append("  self time per span:")
        lines.extend("    " + row for row in result["self_time_table"].splitlines())
        lines.append(f"  trace: {result['trace_file']}")
    if is_correct(result):
        lines.append("  checks: ok")
    else:
        for error in result["errors"]:
            lines.append(f"  CHECK FAILED: {error}")
        if result["failed"]:
            lines.append(
                f"  CHECK FAILED: {result['failed']} of {result['attempted']} "
                f"operations produced a wrong output"
            )
    return "\n".join(lines)


def spread_table(runs: List[dict], specs: Dict[str, dict]) -> str:
    """Median, quartiles and relative spread (q3 - q1) / median of each
    metric over repeated runs, against the metric's bound."""
    lines = [
        f"{'workload':<16} {'metric':<32} {'median':>12} {'q1':>12} "
        f"{'q3':>12} {'spread':>7} {'bound':>6}"
    ]
    for name in dict.fromkeys(r["workload"] for r in runs):
        for metric, spec in specs.items():
            values = [r["metrics"][metric] for r in runs if r["workload"] == name]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else 0.0
            bound = spec.get("bound")
            flag = ""
            if bound is not None:
                flag = f"{bound:>6.2f}" + (" OVER" if spread > bound else "")
            lines.append(
                f"{name:<16} {metric:<32} {median:>12.6g} {q1:>12.6g} "
                f"{q3:>12.6g} {spread:>7.3f} {flag}"
            )
    return "\n".join(lines)


def summary_line(runs: List[dict], specs: Dict[str, dict]) -> str:
    """The one-line JSON result of a single-workload invocation."""
    return json.dumps({
        "correct": all(is_correct(r) for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            metric: {
                "value": statistics.median(r["metrics"][metric] for r in runs),
                "unit": spec["unit"],
            }
            for metric, spec in specs.items()
        },
    })


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=names, help="default: all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat and --seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    specs = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}
    selected = [args.workload] if args.workload else names
    OUT_DIR.mkdir(exist_ok=True)
    runs: List[dict] = []
    try:
        for repetition in range(args.repeat):
            order = selected if repetition % 2 == 0 else selected[::-1]
            for name in order:
                result = run_one(name, args.seed, args.seconds, bool(args.trace))
                runs.append(result)
                print(render(result, specs), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (OUT_DIR / "results.json").write_text(json.dumps({
        "environment": environment(runs),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": runs,
    }, indent=2) + "\n")
    if args.repeat > 1:
        print(spread_table(runs, specs))
    if args.workload:
        print(summary_line(runs, specs))
    return 0 if all(is_correct(r) for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
