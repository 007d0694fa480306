"""Public API surface: everything documented must import and resolve."""

import importlib

import pytest

import repro


PUBLIC_MODULES = [
    "repro",
    "repro.baselines",
    "repro.cli",
    "repro.core",
    "repro.core.engine",
    "repro.core.executor",
    "repro.core.memory_manager",
    "repro.core.multitenant",
    "repro.core.partition",
    "repro.core.plan",
    "repro.core.plan_cache",
    "repro.core.profiler",
    "repro.core.report",
    "repro.core.scheduler",
    "repro.core.semantics",
    "repro.core.service",
    "repro.core.tuner",
    "repro.errors",
    "repro.eval",
    "repro.eval.breakdown",
    "repro.eval.experiments",
    "repro.eval.export",
    "repro.eval.formatting",
    "repro.eval.metrics",
    "repro.eval.sensitivity",
    "repro.hardware",
    "repro.hardware.advisor",
    "repro.hardware.calibration",
    "repro.hardware.contention",
    "repro.hardware.copy_engine",
    "repro.hardware.device",
    "repro.hardware.memory",
    "repro.hardware.power",
    "repro.hardware.roofline",
    "repro.hardware.specs",
    "repro.hardware.variants",
    "repro.nn",
    "repro.nn.graph",
    "repro.nn.layer",
    "repro.nn.layers",
    "repro.nn.models",
    "repro.nn.spec",
    "repro.nn.tensor",
    "repro.nn.weights",
    "repro.serving",
    "repro.serving.batcher",
    "repro.serving.report",
    "repro.serving.scheduler",
    "repro.serving.simulator",
    "repro.sim",
    "repro.sim.stats",
    "repro.sim.timeline",
    "repro.sim.trace",
    "repro.units",
    "repro.workloads",
    "repro.workloads.arrivals",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize(
    "module_name",
    [m for m in PUBLIC_MODULES if m.count(".") <= 1],
)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_version_string():
    assert repro.__version__ == "1.0.0"


def test_readme_quickstart_snippet_runs():
    """The README's quickstart must keep working verbatim."""
    from repro import EdgeNN
    from repro.baselines import run_gpu_only
    from repro.hardware import JETSON_AGX_XAVIER
    from repro.workloads import input_for

    baseline = run_gpu_only("lenet", JETSON_AGX_XAVIER)
    engine = EdgeNN("lenet")
    report = engine.run()
    assert report.total_s <= baseline.total_s
    probs = engine.infer(input_for("lenet"))
    assert probs.shape == (10,)


def test_top_level_convenience_names():
    for name in ("EdgeNN", "EdgeNNConfig", "Device", "NetworkGraph",
                 "JETSON_AGX_XAVIER", "build", "benchmark_names"):
        assert hasattr(repro, name)
