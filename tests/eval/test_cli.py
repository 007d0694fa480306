"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "lenet"])
        assert args.network == "lenet"
        assert not args.no_memory and not args.no_hybrid
        assert args.objective == "latency"

    def test_unknown_network_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "transformer"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.network == "alexnet"
        assert args.arrival_rate == 10.0
        assert args.max_batch == 8
        assert args.tenant == []


class TestCommands:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "jetson-agx-xavier" in out
        assert "amd-ryzen-apu" in out

    def test_networks(self, capsys):
        assert main(["networks"]) == 0
        out = capsys.readouterr().out
        for name in ("fcnn", "vgg16", "resnet18"):
            assert name in out

    def test_run(self, capsys):
        assert main(["run", "lenet"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out and "plan" in out

    def test_run_with_ablation_flags(self, capsys):
        assert main(["run", "lenet", "--no-hybrid"]) == 0
        assert "split=0" in capsys.readouterr().out

    def test_run_with_energy_objective(self, capsys):
        assert main(["run", "lenet", "--objective", "energy"]) == 0

    def test_run_with_precision_and_batch(self, capsys):
        assert main(["run", "lenet", "--precision", "int8",
                     "--batch", "8"]) == 0

    def test_run_extension_network(self, capsys):
        assert main(["run", "mobilenet-v1"]) == 0
        assert "mobilenet-v1" in capsys.readouterr().out

    def test_networks_lists_extensions(self, capsys):
        assert main(["networks"]) == 0
        out = capsys.readouterr().out
        assert "mobilenet-v1" in out and "extension" in out

    def test_run_on_variant_device(self, capsys):
        assert main(["run", "lenet", "--device", "apple-m1-style"]) == 0
        assert "apple-m1-style" in capsys.readouterr().out

    def test_run_unknown_device_errors(self, capsys):
        assert main(["run", "lenet", "--device", "tpu"]) == 2
        assert "unknown device" in capsys.readouterr().err

    def test_run_writes_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main(["run", "lenet", "--trace", str(trace)]) == 0
        assert trace.exists() and trace.read_text().startswith("{")

    def test_compare(self, capsys):
        assert main(["compare", "lenet"]) == 0
        out = capsys.readouterr().out
        assert "cloud" in out and "rpi4" in out and "vs edgenn" in out

    def test_breakdown(self, capsys):
        assert main(["breakdown", "alexnet"]) == 0
        out = capsys.readouterr().out
        assert "Roofline breakdown" in out
        assert "split candidates" in out

    def test_breakdown_on_variant_device(self, capsys):
        assert main(["breakdown", "lenet", "--device", "amd-ryzen-apu"]) == 0

    def test_advise_feasible(self, capsys):
        assert main(["advise", "lenet", "--slo-ms", "1000"]) == 0
        out = capsys.readouterr().out
        assert "chosen" in out and "10W" in out

    def test_advise_infeasible_exit_code(self, capsys):
        assert main(["advise", "lenet", "--slo-ms", "0.0001"]) == 1
        assert "no mode meets" in capsys.readouterr().out

    def test_experiments_subset(self, capsys):
        assert main(["experiments", "sec5b2"]) == 0
        assert "V-B2" in capsys.readouterr().out

    def test_experiments_unknown_id(self, capsys):
        assert main(["experiments", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_serve_single_tenant(self, capsys):
        assert main(["serve", "--network", "lenet", "--arrival-rate", "50",
                     "--duration", "1"]) == 0
        out = capsys.readouterr().out
        assert "p99" in out and "throughput" in out and "shed" in out

    def test_serve_multi_tenant(self, capsys):
        assert main(["serve", "--duration", "1",
                     "--tenant", "lenet:40:2",
                     "--tenant", "fcnn:40:1"]) == 0
        out = capsys.readouterr().out
        assert "lenet#0" in out and "fcnn#1" in out

    def test_serve_closed_loop(self, capsys):
        assert main(["serve", "--network", "lenet", "--duration", "1",
                     "--closed-loop", "4", "--think-ms", "20"]) == 0
        # A closed loop self-limits its offered load: nothing is shed.
        assert "shed 0 (0.0%)" in capsys.readouterr().out

    def test_serve_writes_trace(self, tmp_path, capsys):
        # --trace writes the kernel half of the --obs-out bundle's trace,
        # record for record: one serializer behind both.
        trace, out = tmp_path / "serve.json", tmp_path / "obs"
        assert main(["serve", "--network", "lenet", "--duration", "1",
                     "--trace", str(trace), "--obs-out", str(out)]) == 0
        import json as _json

        from repro.obs.export import SIM_PID

        kernel = _json.loads(trace.read_text())["traceEvents"]
        merged = _json.loads((out / "trace.json").read_text())["traceEvents"]
        assert kernel
        assert kernel == [e for e in merged if e["pid"] == SIM_PID]

    def test_serve_obs_out_writes_artifact_bundle(self, tmp_path, capsys):
        out = tmp_path / "obs"
        assert main(["serve", "--network", "lenet", "--duration", "0.5",
                     "--arrival-rate", "100", "--obs-out", str(out)]) == 0
        for name in ("trace.json", "metrics.prom", "metrics.json",
                     "provenance.json", "spans.json"):
            assert (out / name).exists(), name
        import json as _json

        doc = _json.loads((out / "trace.json").read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phases and "s" in phases and "f" in phases
        assert "repro_serving_requests_total" in (
            out / "metrics.prom"
        ).read_text()
        prov = _json.loads((out / "provenance.json").read_text())
        assert prov["placements"]

    def test_trace_command(self, tmp_path, capsys):
        out = tmp_path / "kernel.json"
        assert main(["trace", "lenet", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "tune" in printed and "layer:" in printed
        assert "zero-copy" in printed   # provenance summary
        assert out.exists()

    def test_metrics_command_prom(self, capsys):
        assert main(["metrics", "lenet"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_layers_executed_total counter" in out

    def test_metrics_command_json(self, capsys):
        assert main(["metrics", "lenet", "--format", "json"]) == 0
        import json as _json

        doc = _json.loads(capsys.readouterr().out)
        assert "repro_layers_executed_total" in doc

    def test_serve_bad_tenant_spec(self, capsys):
        assert main(["serve", "--tenant", "nosuchnet:10"]) == 2

    def test_serve_non_numeric_tenant_rate(self, capsys):
        assert main(["serve", "--tenant", "lenet:abc"]) == 2
        assert "numeric" in capsys.readouterr().err

    def test_export(self, tmp_path, capsys):
        # run_all is expensive; export into tmp and spot-check one artifact.
        assert main(["export", str(tmp_path)]) == 0
        assert (tmp_path / "fig06.csv").exists()
        assert (tmp_path / "table1.json").exists()
