import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import beamosc
from beamosc.cli import main
from beamosc.simulate import envelope


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    return rc, json.loads(out), err


class TestAnalyze:
    def test_feasible_design(self, capsys):
        rc, payload, _ = run_json(capsys, "analyze", "--design", "1")
        assert rc == 0
        assert payload["feasible"] is True
        assert payload["derived.f0"] == pytest.approx(75.9e3, rel=2e-3)
        assert payload["derived.startup_margin"] == pytest.approx(90.238, rel=1e-3)

    def test_bias_heavy_design_exits_2(self, capsys):
        rc, payload, _ = run_json(capsys, "analyze", "--design", "2")
        assert rc == 2
        assert payload["feasible"] is False
        assert payload["constraint.bias_ok"] is False

    def test_override_can_break_a_design(self, capsys):
        rc, payload, _ = run_json(
            capsys, "analyze", "--design", "1",
            "--set", "transducer.bias_voltage=12")
        assert rc == 2
        assert payload["constraint.bias_ok"] is False

    def test_output_files(self, capsys, tmp_path):
        out = tmp_path / "run"
        rc, _, _ = run_cli(capsys, "analyze", "--design", "1",
                           "--out", str(out))
        assert rc == 0
        payload = json.loads((out / "analyze.json").read_text())
        assert payload["feasible"] is True
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert len(manifest["config_sha256"]) == 64
        assert manifest["config"]["beam"]["q_factor"] == 4000.0

    def test_config_and_design_are_exclusive(self, capsys, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text("{}")
        rc, _, err = run_cli(capsys, "analyze", "--config", str(cfg),
                             "--design", "1")
        assert rc == 1
        assert "not both" in err

    def test_bad_config_is_reported_before_output(self, capsys, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"transducer": {"gapp": 1e-6}}))
        out = tmp_path / "results"
        rc, _, err = run_cli(capsys, "analyze", "--config", str(cfg),
                             "--out", str(out))
        assert rc == 1
        assert "transducer.gapp" in err
        assert not out.exists()


class TestTable1:
    def test_all_cells_pass(self, capsys, tmp_path):
        out = tmp_path / "t"
        rc, text, _ = run_cli(capsys, "table1", "--out", str(out))
        assert rc == 0
        assert "all pass" in text
        rows = (out / "table1.csv").read_text().strip().splitlines()
        assert len(rows) == 28  # header + 3 designs x 9 quantities

    def test_wrong_density_fails_comparison(self, capsys):
        rc, text, _ = run_cli(capsys, "table1", "--rho", "5000")
        assert rc == 2
        assert "FAIL" in text

    def test_json_format(self, capsys, tmp_path):
        out = tmp_path / "t"
        rc, _, _ = run_cli(capsys, "table1", "--format", "json",
                           "--out", str(out))
        assert rc == 0
        rows = json.loads((out / "table1.json").read_text())
        assert len(rows) == 27
        assert all(row["passed"] for row in rows)

    def test_null_x_amplitude_is_named(self, capsys, tmp_path):
        out = tmp_path / "t"
        rc, stdout, err = run_cli(capsys, "table1", "--set", "transducer.x_amplitude=null",
                                  "--out", str(out))
        assert rc == 1
        assert stdout == ""
        assert "transducer.x_amplitude" in err
        assert not out.exists()


class TestSimulate:
    def test_seeded_runs_are_byte_identical(self, capsys, tmp_path):
        dirs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc, payload, _ = run_json(
                capsys, "simulate", "--design", "1", "--seed", "7",
                "--set", "sim.duration=1.5e-3", "--out", str(out))
            assert rc == 0
            dirs.append(out)
        first = (dirs[0] / "trace.csv").read_bytes()
        second = (dirs[1] / "trace.csv").read_bytes()
        assert first == second
        assert (dirs[0] / "envelope.csv").exists()
        svg = (dirs[0] / "trace.svg").read_text()
        assert svg.startswith("<svg")
        summary = json.loads((dirs[0] / "summary.json").read_text())
        assert summary["status"] == "growing"

    def test_seed_7_trace_bytes_are_pinned(self, capsys, tmp_path):
        # 700 cycles of design 1; the benchmark checks the same trace.csv hash.
        f0 = 75901.52851033452
        rc, _, _ = run_json(
            capsys, "simulate", "--design", "1", "--seed", "7",
            "--set", "sim.displacement_guard=false",
            "--set", f"sim.duration={700 / f0!r}", "--out", str(tmp_path))
        assert rc == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("trace.csv", "envelope.csv")}
        assert digests == {
            "trace.csv": "49b1652ee03e006016acbd2989eddcf857e818e0b8a568f0a904d1c3023f2edf",
            "envelope.csv": "42a0316be9bb5d6300c62de3020915e2c4175e0c59f3e76f2ae35d6790e1d139",
        }

    def test_out_computes_the_envelope_once(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return envelope(*args, **kwargs)

        # Every module that holds envelope, whatever name it imported it by.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("beamosc"):
                for name, value in list(vars(module).items()):
                    if value is envelope:
                        monkeypatch.setattr(module, name, counted)
        rc, _, _ = run_json(
            capsys, "simulate", "--design", "1", "--seed", "7",
            "--set", "sim.duration=1.5e-3", "--out", str(tmp_path))
        assert rc == 0
        assert (tmp_path / "envelope.csv").exists()
        assert len(calls) == 1

    @pytest.mark.parametrize("argv, key", [
        (["--seed", "-1"], "--seed"),
        (["--set", "sim.noise_seed=-3"], "sim.noise_seed"),
    ], ids=["seed_option", "config_key"])
    def test_negative_seed_is_named(self, capsys, tmp_path, argv, key):
        out = tmp_path / "run"
        rc, stdout, err = run_cli(capsys, "simulate", "--design", "1", *argv,
                                  "--out", str(out))
        assert rc == 1
        assert stdout == ""
        assert err.startswith(f"error: {key}: must be >= 0")
        assert not out.exists()

    def test_dead_amplifier_decays(self, capsys):
        rc, payload, _ = run_json(
            capsys, "simulate", "--design", "1",
            "--set", "pierce.gm=0", "--set", "sim.duration=1e-3")
        assert rc == 0
        assert payload["status"] == "decayed"
        assert payload["frequency_hz"] is None

    def test_displacement_guard_flags_pull_in(self, capsys):
        rc, payload, _ = run_json(
            capsys, "simulate", "--design", "1", "--seed", "7",
            "--x-max", "1e-9")
        assert rc == 0
        assert payload["status"] == "pulled_in"
        assert payload["pulled_in"] is True
        assert payload["x_max_m"] == 1e-9

    def test_full_startup_stabilizes(self, capsys):
        # 9.3 ms is about 700 cycles at 75.9 kHz: the loop saturates
        # near 5 ms, so the whole second half sits on the limit level.
        rc, payload, _ = run_json(
            capsys, "simulate", "--design", "1", "--seed", "7",
            "--set", "sim.displacement_guard=false",
            "--set", "sim.duration=9.3e-3")
        assert rc == 0
        assert payload["status"] == "stabilized"
        assert payload["frequency_hz"] == pytest.approx(
            payload["expected_f0_hz"], rel=1e-2)


class TestReadmeOptimize:
    def test_optimize_json_bytes_are_pinned(self, capsys, tmp_path):
        # The README `optimize` example. The pinned bytes equal the earlier
        # pin, e7dcde7b...1f4, with laminate.top_metal_index and
        # laminate.thickness deleted from best_point.
        rc, _, _ = run_json(
            capsys, "optimize", "--design", "1",
            "--set", "explore.objective=min_Rx",
            "--set", 'explore.axes=[{"path":"transducer.bias_voltage",'
                     '"min":6,"max":9.5,"steps":4}]',
            "--out", str(tmp_path))
        assert rc == 0
        digest = hashlib.sha256((tmp_path / "optimize.json").read_bytes()).hexdigest()
        assert digest == "423ab7a180ead5b2657ba32b2f9c3ffe118bb02351abd75c34423cb9376ea0e9"


class TestSweepCommand:
    def write_config(self, tmp_path, **explore):
        raw = {
            "transducer": {"electrode_length": 45e-6},
            "explore": {
                "axes": [
                    {"path": "beam.length", "min": 60e-6, "max": 100e-6,
                     "steps": 2},
                    {"path": "beam.in_plane_width", "min": 1e-6, "max": 2e-6,
                     "steps": 2},
                ],
                **explore,
            },
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(raw))
        return path

    def test_grid_written_with_flags(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "grid"
        rc, payload, _ = run_json(capsys, "sweep", "--config", str(cfg),
                                  "--out", str(out))
        assert rc == 0
        assert payload["points"] == 4
        assert 0 < payload["feasible"] < 4
        rows = json.loads((out / "sweep.json").read_text())
        assert len(rows) == 4
        flags = [row["feasible"] for row in rows]
        assert flags[0] is False and flags[3] is True
        csv_rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(csv_rows) == 5  # header + 4 grid points
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["points"] == 4
        assert manifest["axes"][0]["path"] == "beam.length"

    def test_grid_cap_is_an_error(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, grid_cap=3)
        rc, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert rc == 1
        assert "grid of 4 points" in err

    def test_sweep_without_axes(self, capsys):
        rc, _, err = run_cli(capsys, "sweep")
        assert rc == 1
        assert "explore.axes" in err


class TestOptimizeCommand:
    def test_feasible_objective(self, capsys, tmp_path):
        raw = {"explore": {
            "objective": "min_Rx",
            "axes": [{"path": "transducer.bias_voltage",
                      "min": 2.0, "max": 9.5, "steps": 3}],
        }}
        cfg = tmp_path / "opt.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "opt"
        rc, payload, _ = run_json(capsys, "optimize", "--config", str(cfg),
                                  "--out", str(out))
        assert rc == 0
        assert payload["feasible"] is True
        assert payload["best_params"]["transducer.bias_voltage"] == 9.5
        report = json.loads((out / "optimize.json").read_text())
        assert report["best_point"]["feasible"] is True
        assert len(report["log"]) == payload["evaluations"]

    def test_infeasible_exits_2(self, capsys, tmp_path):
        raw = {"explore": {
            "objective": "min_Rx",
            "axes": [{"path": "transducer.bias_voltage",
                      "min": 15.0, "max": 20.0, "steps": 2}],
        }}
        cfg = tmp_path / "opt.json"
        cfg.write_text(json.dumps(raw))
        rc, payload, _ = run_json(capsys, "optimize", "--config", str(cfg))
        assert rc == 2
        assert payload["feasible"] is False
        assert payload["most_violated"] == "bias"


class TestCheckRules:
    def test_clean_design(self, capsys):
        rc, out, _ = run_cli(capsys, "check-rules", "--design", "1")
        assert rc == 0
        assert "pass" in out

    def test_violating_gap(self, capsys):
        rc, out, _ = run_cli(capsys, "check-rules", "--design", "1",
                             "--set", "transducer.gap=1.0e-6")
        assert rc == 2
        assert "lateral_gap" in out


class TestEntryPoint:
    def test_installed_script_reports_version(self):
        exe = shutil.which("beamosc")
        env = None
        if exe is None:
            argv = [sys.executable, "-m", "beamosc.cli", "--version"]
            # Run the package under test, wherever pytest imported it from.
            src = str(Path(beamosc.__file__).resolve().parents[1])
            env = {**os.environ,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        else:
            argv = [exe, "--version"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "beamosc" in proc.stdout


class TestNonFiniteInputs:
    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_set_rejects_non_finite_numbers(self, capsys, text):
        rc, out, err = run_cli(capsys, "analyze", "--design", "1",
                               "--set", f"beam.length={text}")
        assert rc == 1
        assert out == ""
        assert "beam.length" in err and "finite" in err

    def test_config_file_rejects_non_finite_axis_bounds(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"explore": {"axes": [
            {"path": "beam.length", "min": 60e-6, "max": float("inf"), "steps": 3},
        ]}}))
        out = tmp_path / "run"
        rc, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(out))
        assert rc == 1
        assert "explore.axes[0].max" in err
        assert not out.exists()

    def test_config_file_rejects_nan_gm(self, capsys, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"pierce": {"gm": float("nan")}}))
        rc, _, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert rc == 1
        assert "pierce.gm" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_simulate_rejects_non_finite_gm(self, capsys, tmp_path, value):
        out = tmp_path / "run"
        rc, stdout, err = run_cli(capsys, "simulate", "--design", "1", "--gm", value,
                                  "--out", str(out))
        assert rc == 1
        assert stdout == ""
        assert "--gm" in err
        assert not out.exists()


class TestStackThickness:
    # Dropped columns: the stack thickness is beam.thickness, and the metal
    # index is a config input that manifest.json records.
    REMOVED_KEYS = {"laminate.thickness", "laminate.top_metal_index"}

    def test_beam_thickness_reports_the_resolved_stack(self, capsys):
        rc, payload, _ = run_json(capsys, "analyze", "--design", "1",
                                  "--set", "beam.thickness=3e-6")
        assert rc in (0, 2)
        assert payload["beam.thickness"] == 3e-6
        assert not self.REMOVED_KEYS & set(payload)
        rc, payload, _ = run_json(capsys, "analyze", "--design", "1",
                                  "--set", "materials.top_metal_index=3")
        assert payload["beam.thickness"] == pytest.approx(3.6e-6, rel=1e-12)

    def test_beam_thickness_is_the_only_absolute_thickness_key(self, capsys):
        rc, out, err = run_cli(capsys, "analyze", "--design", "1",
                               "--set", "materials.thickness=3e-6",
                               "--set", "beam.thickness=4e-6")
        assert rc == 1
        assert out == ""
        assert "materials.thickness" in err

    @pytest.mark.parametrize("overrides", [
        # 4 pairs at 1.0 um: a 4.0 um stack.
        ["materials.thickness_per_pair=1.0e-6"],
        # Metals 1-3 without dielectric: 3 * 1.2 um * 0.5 = 1.8 um.
        ["materials.include_dielectric=false", "materials.top_metal_index=3"],
    ], ids=["pitch", "metal_only"])
    def test_metal_cover_follows_the_configured_stack(self, capsys, overrides):
        argv = ["check-rules", "--design", "1", "--set", "rules.require_metal_cover=true"]
        for assignment in overrides:
            argv += ["--set", assignment]
        rc, out, _ = run_cli(capsys, *argv)
        assert (rc, out) == (0, "all manufacturability rules pass\n")

    def test_sweep_reports_the_swept_thickness(self, capsys, tmp_path):
        out = tmp_path / "run"
        rc, _, _ = run_cli(
            capsys, "sweep", "--design", "1", "--out", str(out), "--set",
            'explore.axes=[{"path":"beam.thickness","min":3e-6,"max":4e-6,"steps":2}]')
        assert rc == 0
        rows = json.loads((out / "sweep.json").read_text())
        assert [r["beam.thickness"] for r in rows] == [3e-6, 4e-6]
        assert not any(self.REMOVED_KEYS & set(r) for r in rows)
        header = (out / "sweep.csv").read_text().splitlines()[0].split(",")
        assert not self.REMOVED_KEYS & set(header)

    def test_check_rules_and_analyze_agree_under_an_override(self, capsys):
        overrides = ("--set", "beam.thickness=3e-6",
                     "--set", "rules.require_metal_cover=true")
        rc, out, _ = run_cli(capsys, "check-rules", "--design", "1", *overrides)
        assert rc == 2
        _, payload, _ = run_json(capsys, "analyze", "--design", "1", *overrides)
        violations = payload["rule_violations"]
        assert [v["rule"] for v in violations] == ["metal_cover"]
        assert out.splitlines() == [
            f"{v['rule']}: measured {v['measured']:.6g}, limit {v['limit']:.6g}"
            for v in violations
        ]


def test_sweep_with_an_invalid_point_writes_nothing(capsys, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"transducer": {"electrode_length": 45e-6}, "explore": {
        "axes": [{"path": "beam.length", "min": 40e-6, "max": 100e-6, "steps": 4}]}}))
    out = tmp_path / "grid"
    rc, stdout, err = run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(out))
    assert rc == 1
    assert stdout == ""
    assert err.startswith("error: transduction: electrode_length 4.5e-05 m exceeds")
    assert not out.exists()
