import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import tanh_nan_from
import beamosc
import beamosc.cli
from beamosc import explore, simulate, traceio
from beamosc.cli import _point_payload, build_parser, main
from beamosc.config import SCHEMA
from beamosc.errors import ValidationError
from beamosc.explore import optimize
from beamosc.traceio import json_text


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

    def test_gap_underflow_is_named(self, capsys):
        # gap**3 underflows to 0: the refusal names the gap, not a derived value.
        rc, out, err = run_cli(capsys, "analyze", "--design", "1",
                               "--set", "transducer.gap=1e-110")
        assert rc == 1
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error:") and "gap" in line
        assert "Traceback" not in err

    def test_zero_bias_is_named(self, capsys):
        # The config, Transducer and the rules accept 0 V; evaluating it
        # leaves eta = 0, and the refusal names the bias, not eta.
        rc, out, err = run_cli(capsys, "analyze", "--design", "1",
                               "--set", "transducer.bias_voltage=0")
        assert (rc, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: transduction: bias_voltage")
        rc, out, _ = run_cli(capsys, "check-rules", "--design", "1",
                             "--set", "transducer.bias_voltage=0")
        assert (rc, out) == (0, "all manufacturability rules pass\n")

    # SHA-256 of stdout (the file's bytes too) and of manifest.json.
    ANALYZE_PINS = {
        "1": ("4e0294ecc7a1e31280bb21002e3384545dd547979c4dea616de15e97e7fe9cb7",
              "7059929806f94ad997ec86bbe7023e08f28a359855ad0feb9e690bcba1c338c6"),
        "2": ("e7ddd1b367474195cafb613686deb8cd5952b864d6a0059f2d5f1f5982067d51",
              "042e48340474315b8acea172d1122d7fa18a336b5a080363d61194fd08446696"),
        "3": ("38418b2fd5e335a152f2fc8f9a2ae7d7f1cfb19a5b79102f262e6b9002b4ccc0",
              "417642dc490e6fcbcee8fb7b03177fcf312e2173096981919a90381ed18dccd1"),
    }

    @pytest.mark.parametrize("design", sorted(ANALYZE_PINS))
    def test_analyze_bytes_are_pinned(self, capsys, tmp_path, design):
        rc, out, _ = run_cli(capsys, "analyze", "--design", design, "--out", str(tmp_path))
        assert rc == (2 if design == "2" else 0)
        digests = tuple(hashlib.sha256(data).hexdigest() for data in (
            out.encode(), (tmp_path / "analyze.json").read_bytes(),
            (tmp_path / "manifest.json").read_bytes()))
        stdout, manifest = self.ANALYZE_PINS[design]
        assert digests == (stdout, stdout, manifest)

    @settings(max_examples=40, deadline=None)
    @given(design=st.sampled_from(["1", "2", "3"]),
           bias=st.floats(math.log(5e-324), math.log(1e-40)).map(lambda e: max(math.exp(e), 5e-324)))
    @example(design="1", bias=5e-324)
    @example(design="1", bias=1e-320)
    @example(design="1", bias=1e-300)
    @example(design="2", bias=1e-200)
    @example(design="3", bias=1e-80)
    @example(design="1", bias=1e-60)
    def test_a_tiny_bias_evaluates_or_is_named(self, design, bias):
        # Below about 1e-70 V, eta^2 underflows or Lx/Cx overflows; the
        # refusal names the bias, not what extract_circuit() meets.
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(["analyze", "--design", design, "--set", f"transducer.bias_voltage={bias!r}"])
        out, err = stdout.getvalue(), stderr.getvalue()
        event(f"exit {rc}")
        if rc == 1:
            assert out == ""
            [line] = err.splitlines()
            assert line.startswith(f"error: transduction: bias_voltage {bias!r} V is too small")
        else:
            assert rc in (0, 2) and json.loads(out)["transducer.bias_voltage"] == bias

    def test_non_finite_json_refusal_names_the_value(self):
        # No input of analyze is known to compute a non-finite value, so the
        # refusal is checked on a payload that holds one.
        payload = {"feasible": False, "constraints": [{"violation": 0.0}] * 3
                   + [{"name": "rules", "violation": math.inf}]}
        with pytest.raises(ValidationError) as raised:
            json_text(payload)
        assert str(raised.value) == ("refusing to write non-finite JSON: "
                                     "constraints[3].violation is inf")

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

    @pytest.mark.parametrize("argv, code, digests", [
        ([], 0, ("e0360f46c21e87b6df066c5050a9bbb2741f034fc84e527ae90ba8d9e9ceb528",
                 "66cd801f18b8af42f8e0d6800c6d08e8bc70cb24fc629cf27946b4461c351d29",
                 "4aa362f02335e84b29db1da31e2fc79501e12f1589b2b403addbffe3582730ce")),
        (["--rho", "5000"], 2,
         ("f766b0c1c5a6d45e8707310e19fd96a7d02374aac18829e669e812a97dd38d91",
          "ded184009a116efc66c816b534b76a178991853c9c08d8b5d03e42743acdd68c",
          "3841e21a107c5cd1b09feb1958c7e5a833a0b3b5f946a2bb2b26a96e97be8350")),
    ], ids=["passing", "rho_5000"])
    def test_bytes_are_pinned(self, capsys, tmp_path, argv, code, digests):
        # The text table on stdout, table1.csv and table1.json, for a run
        # where all 27 cells pass and one where 18 fail.
        found = []
        for fmt in ("csv", "json"):
            rc, text, _ = run_cli(capsys, "table1", *argv, "--format", fmt,
                                  "--out", str(tmp_path / fmt))
            assert rc == code
            found.append(hashlib.sha256(text.encode()).hexdigest())
            found.append(hashlib.sha256((tmp_path / fmt / f"table1.{fmt}").read_bytes())
                         .hexdigest())
        assert found == [digests[0], digests[1], digests[0], digests[2]]

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

    def test_seed_7_summary_bytes_are_pinned(self, capsys, tmp_path):
        # The run above: stdout and summary.json hold the same JSON.
        f0 = 75901.52851033452
        rc, out, _ = run_cli(
            capsys, "simulate", "--design", "1", "--seed", "7",
            "--set", "sim.displacement_guard=false",
            "--set", f"sim.duration={700 / f0!r}", "--out", str(tmp_path))
        assert rc == 0
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in (
            ("stdout", out.encode()), ("summary.json", (tmp_path / "summary.json").read_bytes()),
            ("manifest.json", (tmp_path / "manifest.json").read_bytes()))}
        assert digests == {
            "stdout": "26e7fefafdd9b58d433103ad21b2223b46cdb6737cb5c302071188e2610e1104",
            "summary.json": "26e7fefafdd9b58d433103ad21b2223b46cdb6737cb5c302071188e2610e1104",
            "manifest.json": "d2d4706311103cc7c618a5c30d0067b873cdc3b1c3931aa6f32753e98f4fe726",
        }

    def test_out_computes_the_envelope_once(self, capsys, tmp_path, monkeypatch):
        # The one envelope is made by the summary that simulate feeds block
        # by block, and envelope.csv and trace.svg reuse it.
        calls = []
        make = simulate._Summary.envelope

        def counted(summary):
            calls.append(1)
            return make(summary)

        monkeypatch.setattr(simulate._Summary, "envelope", counted)
        rc, _, _ = run_json(
            capsys, "simulate", "--design", "1", "--seed", "7",
            "--set", "sim.duration=1.5e-3", "--out", str(tmp_path))
        assert rc == 0
        assert (tmp_path / "envelope.csv").exists()
        assert len(calls) == 1

    @pytest.mark.parametrize("argv, key", [
        (["--seed", "-1"], "sim.noise_seed"),
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

    @pytest.mark.parametrize("setting", ["sim.duration=1e308", "sim.dt=5e-324", "sim.dt=1e-12"])
    def test_step_budget_refusal_names_duration_and_dt(self, capsys, setting):
        # duration / dt past the float range is inf steps, refused like any
        # run over the budget, not converted to an int.
        rc, stdout, err = run_cli(capsys, "simulate", "--design", "1", "--set", setting)
        assert rc == 1
        assert stdout == ""
        [line] = err.splitlines()
        assert line.startswith("error:") and "step budget" in line
        assert "duration" in line and "dt" in line
        assert "Traceback" not in err

    def test_every_sim_key_is_refused_by_name_or_runs(self, capsys, monkeypatch):
        # Each sim.* key at the float extremes, zeros, signs, a bool and null,
        # over the shortest run design 1 allows (50 cycles). A run is refused
        # with one error line naming the key, or prints finite JSON. The step
        # budget is cut to 20,000 so that no value starts a long run.
        monkeypatch.setattr(beamosc.simulate, "_MAX_STEPS", 20_000)

        def finite_only(text):
            raise ValueError(f"{text} in the summary")

        wrong = []
        for key in sorted(SCHEMA["sim"]):
            for value in ("1e308", "-1e308", "5e-324", "-5e-324", "0", "-0.0", "-1", "1",
                          "1e-300", "true", "null"):
                rc, out, err = run_cli(capsys, "simulate", "--design", "1",
                                       "--set", "sim.duration=6.6e-4",
                                       "--set", f"sim.{key}={value}")
                lines = err.splitlines()
                named = len(lines) == 1 and lines[0].startswith("error:") and key in lines[0]
                if rc == 0:
                    json.loads(out, parse_constant=finite_only)
                elif rc not in (1, 2) or (rc == 1 and not named):
                    wrong.append(f"sim.{key}={value}: exit {rc}: {err}")
        assert wrong == []

    def test_manifest_config_reproduces_the_run(self, capsys, tmp_path):
        # Value flags go into the recorded config (after every --set, so
        # --seed wins over sim.noise_seed), and that config replays the run.
        a, b = tmp_path / "a", tmp_path / "b"
        rc, _, _ = run_json(
            capsys, "simulate", "--design", "1", "--seed", "3", "--gm", "1e-4",
            "--x-max", "2e-7", "--set", "sim.noise_seed=5",
            "--set", "sim.duration=1.5e-3", "--out", str(a))
        assert rc == 0
        config = json.loads((a / "manifest.json").read_text())["config"]
        assert config["sim"]["noise_seed"] == 3
        assert config["pierce"]["gm"] == 1e-4
        assert config["sim"]["x_max"] == 2e-7
        recorded = tmp_path / "recorded.json"
        recorded.write_text(json.dumps(config))
        rc, _, _ = run_json(capsys, "simulate", "--config", str(recorded),
                            "--out", str(b))
        assert rc == 0
        for name in ("trace.csv", "envelope.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

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


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="os.fork() and os.waitid() are POSIX only")
class TestSimulateFailsMidStream:
    # trace.csv is written while the loop runs: with two usable CPUs and
    # 1,024-row blocks, forked children format blocks of a 50-cycle run
    # while it integrates. A failure leaves no file, no directory the
    # command made and no process behind.
    @pytest.fixture(autouse=True)
    def streamed(self, monkeypatch):
        """The pid of each child forked. The parent waits for each child to
        end, leaving it to be reaped, so every block after the first finds
        the last child done and goes to a new one."""
        forks = []
        fork = os.fork

        def fork_and_wait():
            pid = fork()
            if pid:
                forks.append(pid)
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            return pid

        monkeypatch.setattr(os, "fork", fork_and_wait)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(beamosc.simulate, "TRACE_BLOCK", 1024)
        monkeypatch.setattr(traceio, "SPLIT_ROWS", 1024)
        return forks

    ARGV = ("simulate", "--design", "1", "--seed", "7", "--set", "sim.duration=6.6e-4")

    @staticmethod
    def assert_nothing_left(tmp_path):
        assert not (tmp_path / "new").exists()
        assert [p.name for p in (tmp_path / "kept").iterdir()] == ["trace.csv"]
        assert (tmp_path / "kept" / "trace.csv").read_bytes() == b"an earlier trace\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_failed_integration_leaves_nothing(self, capsys, tmp_path, streamed):
        (tmp_path / "kept").mkdir()
        (tmp_path / "kept" / "trace.csv").write_bytes(b"an earlier trace\n")
        for out in (tmp_path / "new" / "run", tmp_path / "kept"):
            streamed.clear()
            with mock.patch("math.tanh", tanh_nan_from(12_000)):
                rc, stdout, err = run_cli(capsys, *self.ARGV, "--out", str(out))
            assert (rc, stdout) == (1, "")
            [line] = err.splitlines()
            assert line.startswith("error: integrator state became non-finite at step 12000")
            assert len(streamed) == 10  # blocks 1-10 of the 11 before step 12,000
        self.assert_nothing_left(tmp_path)

    def test_a_failed_child_leaves_nothing(self, capsys, tmp_path, monkeypatch, streamed):
        parent = os.getpid()
        float_texts = traceio._float_texts

        def texts(column, known):
            if os.getpid() != parent:
                raise RuntimeError("formatting failed in a child")
            return float_texts(column, known)

        monkeypatch.setattr(traceio, "_float_texts", texts)
        (tmp_path / "kept").mkdir()
        (tmp_path / "kept" / "trace.csv").write_bytes(b"an earlier trace\n")
        for out in (tmp_path / "new" / "run", tmp_path / "kept"):
            with pytest.raises(OSError, match="forked child"):
                main([*self.ARGV, "--out", str(out)])
            assert capsys.readouterr() == ("", "")
        assert streamed
        self.assert_nothing_left(tmp_path)

    def test_blocks_formatted_by_children_have_the_serial_bytes(self, capsys, tmp_path,
                                                                monkeypatch, streamed):
        # A guarded run that pulls in at step 11,113, partway through a
        # block: its last 874 rows are split at row 256 between the process
        # and one last child.
        monkeypatch.setattr(traceio, "ROW_BLOCK", 256)
        argv = ("simulate", "--design", "1", "--seed", "7", "--x-max", "6e-11",
                "--set", "sim.duration=6.6e-4")
        rc, summary, _ = run_json(capsys, *argv, "--out", str(tmp_path / "all-cpus"))
        assert (rc, summary["status"], summary["steps"]) == (0, "pulled_in", 11_113)
        assert len(streamed) == 11  # blocks 1-10, then the last child's part of 11
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        rc, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "one-cpu"))
        assert rc == 0
        assert ((tmp_path / "all-cpus" / "trace.csv").read_bytes()
                == (tmp_path / "one-cpu" / "trace.csv").read_bytes())


class TestReadmeOptimize:
    def test_optimize_json_bytes_are_pinned(self, capsys, tmp_path):
        # The README `optimize` example. The pinned bytes are the earlier
        # pin's, 423ab7a1...0e9, with the simplex's 13 refine entries
        # replaced by the polish's two differences at the 9.5 V bound, and
        # `binding` added: the bias axis's maximum, at a shadow price of -2.
        rc, _, _ = run_json(
            capsys, "optimize", "--design", "1",
            "--set", "explore.objective=min_Rx",
            "--set", 'explore.axes=[{"path":"transducer.bias_voltage",'
                     '"min":6,"max":9.5,"steps":4}]',
            "--out", str(tmp_path))
        assert rc == 0
        digest = hashlib.sha256((tmp_path / "optimize.json").read_bytes()).hexdigest()
        assert digest == "04363f0ccf99b74808c946a7b2db340933f1b214176b5ca6527071810f47d10f"

    def test_two_axis_optimize_json_bytes_are_pinned(self, capsys, tmp_path):
        # The README's two-axis example: min_Rx over the bias (6-11 V) and the
        # beam length (60-100 um) on design 1, 41 evaluations, bound by the
        # bias constraint (-2/3) and the bias axis's maximum (-4/3).
        rc, payload, _ = run_json(
            capsys, "optimize", "--design", "1",
            "--set", "explore.objective=min_Rx",
            "--set", 'explore.axes=[{"path":"transducer.bias_voltage","min":6,"max":11,'
                     '"steps":5},{"path":"beam.length","min":60e-6,"max":100e-6,"steps":5}]',
            "--out", str(tmp_path))
        assert rc == 0 and payload["evaluations"] == 41
        digest = hashlib.sha256((tmp_path / "optimize.json").read_bytes()).hexdigest()
        assert digest == "a021a3c5282aaff5fced0caeb714c64bc77e2734956726ac4271e4758e828e5d"



# The design_session benchmark's axes around each bundled design: the beam
# length, the in-plane width and the bias, 5 steps each.
SESSION_AXES = {
    1: ((80e-6, 120e-6), (1.5e-6, 3e-6)),
    2: ((50e-6, 75e-6), (0.8e-6, 1.6e-6)),
    3: ((85e-6, 125e-6), (0.8e-6, 1.6e-6)),
}


def session_optimize(capsys, design, objective, out):
    (l0, l1), (w0, w1) = SESSION_AXES[design]
    axes = [{"path": "beam.length", "min": l0, "max": l1, "steps": 5},
            {"path": "beam.in_plane_width", "min": w0, "max": w1, "steps": 5},
            {"path": "transducer.bias_voltage", "min": 4, "max": 9.4, "steps": 5}]
    return run_json(capsys, "optimize", "--design", str(design),
                    "--set", f"explore.objective={objective}",
                    "--set", "explore.axes=" + json.dumps(axes), "--out", str(out))


class TestThreeAxisOptimize:
    @pytest.mark.parametrize("design, objective, evaluations, pinned", [
        (1, "startup_margin", 145,
         "fb5424eba820d0f353bec4372d872bc3aa2e8152d7c2dded87c7c823b54709e5"),
        (2, "min_Rx", 145,
         "42d253af7525fb21f3d8ff2265de289aba00a8be4687d329786a2b9385a3345d"),
        (3, "max_f0", 173,
         "355551c178ef532667989465c13e59c837256a01649496812f8d00591d3b1dfa"),
    ])
    def test_optimize_json_bytes_are_pinned(self, capsys, tmp_path, design, objective,
                                            evaluations, pinned):
        rc, payload, _ = session_optimize(capsys, design, objective, tmp_path)
        assert rc == 0 and payload["evaluations"] == evaluations
        digest = hashlib.sha256((tmp_path / "optimize.json").read_bytes()).hexdigest()
        assert digest == pinned

    @pytest.mark.parametrize("objective, bias, evaluations, pinned", [
        ("startup_margin", [], 100,
         "6b136766cdedbfb71a66f5c7a30342c50bf9d7f5800fb73d20f5764b8b5e6d59"),
        ("min_Rx", [{"path": "transducer.bias_voltage", "min": 5, "max": 12, "steps": 3}], 284,
         "6e8a9d1458b83a954ec44db64923b5ebadef5b37e6989c62c154cddaf8976750"),
    ], ids=["startup_margin", "min_Rx"])
    def test_a_grid_across_the_electrode_length_evaluates_only_its_winner(
            self, capsys, tmp_path, monkeypatch, objective, bias, evaluations, pinned):
        # Electrodes of 50-150 um on beams of 60-120 um: the column passes
        # flag every point whose electrode exceeds its beam, and each is
        # logged as failed without a second evaluate().
        calls = []
        evaluate = explore.evaluate
        monkeypatch.setattr(explore, "evaluate", lambda inputs: calls.append(1) or evaluate(inputs))
        axes = [{"path": "transducer.electrode_length", "min": 50e-6, "max": 150e-6, "steps": 5},
                {"path": "beam.length", "min": 60e-6, "max": 120e-6, "steps": 4}, *bias]
        rc, payload, _ = run_json(capsys, "optimize", "--design", "1",
                                  "--set", f"explore.objective={objective}",
                                  "--set", "explore.axes=" + json.dumps(axes),
                                  "--out", str(tmp_path))
        assert rc == 0 and payload["evaluations"] == evaluations
        assert len(calls) == 1  # the winner's DesignPoint
        digest = hashlib.sha256((tmp_path / "optimize.json").read_bytes()).hexdigest()
        assert digest == pinned

    def test_a_look_ahead_pass_that_vouches_for_nothing(self, capsys, tmp_path, monkeypatch):
        # Every pass that holds look-ahead rows, a grade() of a line and
        # more, faults: it is evaluated point by point, with the run's log,
        # result and bytes unchanged.
        rc, payload, _ = session_optimize(capsys, 3, "max_f0", tmp_path / "plain")
        assert rc == 0
        polish, column_pass = explore._polish, explore._column_pass
        ahead, blanked = [False], []

        def flagged(spec, start, reading, grade):
            def marked(points):
                ahead[0] = len(points) > len(explore._LINE)
                return grade(points)
            return polish(spec, start, reading, marked)

        def faulted(inputs, params, read):
            if not ahead[0]:
                return column_pass(inputs, params, read)
            blanked.append(traceio._length(params))
            return None, np.zeros(traceio._length(params), dtype=bool)

        monkeypatch.setattr(explore, "_polish", flagged)
        monkeypatch.setattr(explore, "_column_pass", faulted)
        rc, blank, _ = session_optimize(capsys, 3, "max_f0", tmp_path / "blank")
        assert rc == 0 and blanked
        assert blank == payload
        plain, faulted_run = (json.loads((tmp_path / run / "optimize.json").read_text())
                              for run in ("plain", "blank"))
        assert faulted_run["log"] == plain["log"] and faulted_run["binding"] == plain["binding"]
        assert ((tmp_path / "blank" / "optimize.json").read_bytes()
                == (tmp_path / "plain" / "optimize.json").read_bytes())


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

    @pytest.mark.parametrize("steps, digests", [
        ((2, 2, None),
         ("42456dabdca2ffb253dd3db410dba7f29278b20e63281e681a87f3fc63fb7a9c",
          "821a3bfb2e9c43743946dc8e057e4c8e1d5beaaae3c8505f470cb9a7c3930fc3")),
        ((20, 15, 15),
         ("b14ca328bfeca0cc71d89c20f18ec4472d03b01834f1a8004eab17f1ab05a422",
          "994ccf201f37f10f74bf948028307431581987ec64a30726f22bd2463d3ee8a0")),
    ], ids=["readme", "multi_block"])
    def test_bytes_are_pinned(self, capsys, tmp_path, steps, digests):
        # The README sweep, and 4,500 points over a bias axis too: two
        # SWEEP_BLOCKs and five row chunks.
        length, width, bias = steps
        axes = [{"path": "beam.length", "min": 60e-6, "max": 100e-6, "steps": length},
                {"path": "beam.in_plane_width", "min": 1e-6, "max": 2e-6, "steps": width}]
        if bias:
            axes.append({"path": "transducer.bias_voltage", "min": 6.0, "max": 9.4,
                         "steps": bias})
        cfg = self.write_config(tmp_path)
        out = tmp_path / "grid"
        rc, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                           "--set", "explore.axes=" + json.dumps(axes), "--out", str(out))
        assert rc == 0
        found = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                      for name in ("sweep.csv", "sweep.json"))
        assert found == digests

    def test_grid_cap_is_an_error(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, grid_cap=3)
        rc, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert rc == 1
        assert "grid of 4 points" in err

    def test_sweep_without_axes(self, capsys):
        rc, _, err = run_cli(capsys, "sweep")
        assert rc == 1
        assert "explore.axes" in err

    def test_bad_axis_is_named_before_output(self, capsys, tmp_path):
        out = tmp_path / "grid"
        rc, stdout, err = run_cli(
            capsys, "sweep", "--design", "1", "--out", str(out), "--set",
            'explore.axes=[{"path":"beam.length","min":1e-4,"max":6e-5,"steps":2}]')
        assert rc == 1
        assert stdout == ""
        assert err.startswith("error: explore.axes[0]: axis minimum must not exceed maximum")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "simulate", "sweep", "optimize",
                                         "check-rules"])
    @pytest.mark.parametrize("axis, message", [
        ('{"path":"beam.length","min":2e-4,"max":1e-4,"steps":3}',
         "axis minimum must not exceed maximum"),
        ('{"path":"beam.length","min":0,"max":1e-4,"steps":3,"scale":"log"}',
         "log axes need minimum > 0"),
    ], ids=["reversed", "log_from_zero"])
    def test_every_command_refuses_a_bad_axis(self, capsys, tmp_path, command, axis,
                                              message):
        # Each command loads explore.axes, though only sweep and optimize use it.
        out = tmp_path / "run"
        out_args = [] if command == "check-rules" else ["--out", str(out)]
        rc, stdout, err = run_cli(capsys, command, "--design", "1", *out_args,
                                  "--set", f"explore.axes=[{axis}]")
        assert (rc, stdout) == (1, "")
        assert err == f"error: explore.axes[0]: {message}\n"
        assert not out.exists()

    def test_axis_paths_are_config_keys(self, capsys):
        axes = '[{"path":"%s","min":1e-7,"max":2e-7,"steps":2}]'
        rc, payload, _ = run_json(capsys, "sweep", "--design", "1", "--set",
                                  "explore.axes=" + axes % "transducer.x_amplitude")
        assert (rc, payload["points"]) == (0, 2)
        rc, _, err = run_cli(capsys, "sweep", "--design", "1", "--set",
                             "explore.axes=" + axes % "explore.x_amplitude")
        assert rc == 1
        assert err.startswith("error: explore.axes[0].path: must be one of")

    def test_duplicate_axis_is_named_before_output(self, capsys, tmp_path):
        out = tmp_path / "grid"
        axis = '{"path":"beam.length","min":%s,"max":1e-4,"steps":%d}'
        rc, stdout, err = run_cli(
            capsys, "sweep", "--design", "1", "--out", str(out), "--set",
            f"explore.axes=[{axis % ('6e-5', 2)},{axis % ('8e-5', 3)}]")
        assert rc == 1
        assert stdout == ""
        assert err == "error: explore.axes[1].path: duplicates explore.axes[0]\n"
        assert not out.exists()


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

    def run_with_result(self, capsys, monkeypatch, tmp_path, axes, objective="min_Rx",
                        change=None):
        """optimize --out on design 1; the OptimizeResult that cli.optimize
        returned, after change(result), and the optimize.json bytes."""
        results = []

        def spy(*args):
            results.append(optimize(*args))
            if change is not None:
                change(results[-1])
            return results[-1]

        monkeypatch.setattr(beamosc.cli, "optimize", spy)
        rc, _, _ = run_cli(capsys, "optimize", "--design", "1",
                           "--set", f"explore.objective={objective}",
                           "--set", "explore.axes=" + json.dumps(axes),
                           "--out", str(tmp_path))
        assert rc == (0 if results[0].feasible else 2)
        return results[0], (tmp_path / "optimize.json").read_bytes()

    @pytest.mark.parametrize("axes, objective, shows", [
        # Beams shorter than the 75 um electrode fail: "objective": null.
        ([{"path": "beam.length", "min": 60e-6, "max": 110e-6, "steps": 4}], "max_f0",
         lambda r: r.feasible and any(e["objective"] is None for e in r.log)),
        ([{"path": "transducer.bias_voltage", "min": 15.0, "max": 20.0, "steps": 2}],
         "min_Rx", lambda r: r.best is None and r.most_violated == "bias"),
        ([{"path": "transducer.bias_voltage", "min": 6.0, "max": 9.5, "steps": 4},
          {"path": "beam.length", "min": 100e-6, "max": 100e-6, "steps": 3}], "min_Rx",
         lambda r: len(r.log) > 4 and {e["params"]["beam.length"] for e in r.log} == {1e-4}),
        ([{"path": "pierce.gm", "min": 1e-6, "max": 1e-3, "steps": 3, "scale": "log"},
          {"path": "transducer.bias_voltage", "min": 6.0, "max": 9.5, "steps": 3}],
         "startup_margin",
         lambda r: sorted({e["params"]["pierce.gm"] for e in r.log if e["phase"] == "grid"})[1]
         == pytest.approx(math.sqrt(1e-6 * 1e-3))),
    ], ids=["failed_candidates", "infeasible", "fixed_axis", "log_axis"])
    def test_optimize_json_is_the_json_text_of_the_payload(self, capsys, monkeypatch,
                                                            tmp_path, axes, objective, shows):
        result, written = self.run_with_result(capsys, monkeypatch, tmp_path, axes, objective)
        assert shows(result)
        assert written == self.expected_bytes(result)

    @staticmethod
    def expected_bytes(result) -> bytes:
        """optimize.json as json.dumps() writes the result, the log as entries."""
        payload = {
            "objective": result.objective,
            "feasible": result.feasible,
            "best_params": result.best_params,
            "objective_value": result.objective_value,
            "evaluations": result.evaluations,
            "most_violated": result.most_violated,
            "binding": list(result.binding),
            "log": list(result.log),
        }
        if result.best is not None:
            payload["best_point"] = _point_payload(result.best)
        return (json.dumps(payload, indent=2) + "\n").encode()

    @pytest.mark.parametrize("block", range(1, 8))
    def test_a_log_of_many_blocks_is_written_as_one_list(self, capsys, monkeypatch, tmp_path,
                                                          block):
        # 125 grid points in column passes of 1-7 points, so the log holds
        # one block per pass and then the polish's refine block. The rows go
        # out block by block, none of them in a forked child.
        axes = [{"path": "transducer.bias_voltage", "min": 6.0, "max": 9.5, "steps": 5},
                {"path": "beam.length", "min": 90e-6, "max": 110e-6, "steps": 5},
                {"path": "pierce.c1", "min": 1e-12, "max": 3e-12, "steps": 5}]
        _, want = self.run_with_result(capsys, monkeypatch, tmp_path / "one", axes,
                                       "startup_margin")

        def fork():
            raise AssertionError("os.fork() called")

        monkeypatch.setattr(os, "fork", fork, raising=False)
        monkeypatch.setattr(explore, "SWEEP_BLOCK", block)
        result, written = self.run_with_result(capsys, monkeypatch, tmp_path / "many", axes,
                                               "startup_margin")
        phases = [b["phase"][0] for b in result.log.blocks]
        assert phases == ["grid"] * math.ceil(125 / block) + ["refine"]
        assert len(result.log) == result.evaluations > 125
        assert written == want == self.expected_bytes(result)

    def test_best_params_and_the_log_share_no_dict(self, capsys, monkeypatch, tmp_path):
        axes = [{"path": "transducer.bias_voltage", "min": 6.0, "max": 9.5, "steps": 4},
                {"path": "beam.length", "min": 90e-6, "max": 110e-6, "steps": 3}]
        untouched, _ = self.run_with_result(capsys, monkeypatch, tmp_path / "a", axes)
        want_log = [dict(entry["params"]) for entry in untouched.log]
        want_best = dict(untouched.best_params)

        def change(result):
            for path in result.best_params:
                result.best_params[path] = -1.0
            assert [entry["params"] for entry in result.log] == want_log
            for block in result.log.blocks:  # the log holds columns, not entries
                column = block["params"]["beam.length"]
                column[:] = [-2.0] * len(column)
            assert result.best_params == dict.fromkeys(want_best, -1.0)

        _, written = self.run_with_result(capsys, monkeypatch, tmp_path / "b", axes,
                                          change=change)
        report = json.loads(written)
        assert report["best_params"] == dict.fromkeys(want_best, -1.0)
        assert [entry["params"] for entry in report["log"]] == [
            {**params, "beam.length": -2.0} for params in want_log]


def set_args(assignments):
    return [arg for assignment in assignments for arg in ("--set", assignment)]


class TestArithmeticErrors:
    # Finite, schema-valid inputs whose arithmetic overflows or divides by
    # zero: the error names the stage running, as a failed check does. A
    # grid axis through the first override reaches that point at `index`;
    # optimize then exits `code`.
    CASES = pytest.mark.parametrize("overrides, message, axis, index, code", [
        (["pierce.gm=1e300"], "pierce: OverflowError",
         {"path": "pierce.gm", "min": 1e-4, "max": 1e300, "steps": 2, "scale": "log"}, 1, 0),
        (["pierce.c1=1e-320"], "pierce: ZeroDivisionError",
         {"path": "pierce.c1", "min": 1e-320, "max": 2e-12, "steps": 2}, 0, 0),
        (["beam.length=1e200", "transducer.electrode_length=1e-5"],
         "mechanics: OverflowError",
         {"path": "beam.length", "min": 1e-4, "max": 1e200, "steps": 2}, 1, 2),
    ], ids=["gm", "c1", "length"])

    @staticmethod
    def grid_args(overrides, axis):
        return set_args(overrides[1:] + ["explore.axes=" + json.dumps([axis])])

    @CASES
    def test_analyze_names_the_stage(self, capsys, overrides, message, axis, index, code):
        rc, stdout, err = run_cli(capsys, "analyze", *set_args(overrides))
        assert rc == 1
        assert stdout == ""
        assert err.startswith(f"error: {message}: ")

    @CASES
    def test_sweep_writes_nothing(self, capsys, tmp_path, overrides, message, axis, index,
                                  code):
        out = tmp_path / "grid"
        rc, stdout, err = run_cli(capsys, "sweep", *self.grid_args(overrides, axis),
                                  "--out", str(out))
        assert rc == 1
        assert stdout == ""
        assert err.startswith(f"error: {message}: ")
        assert err == run_cli(capsys, "analyze", *set_args(overrides))[2]
        assert not out.exists()

    @CASES
    def test_optimize_logs_the_point(self, capsys, tmp_path, overrides, message, axis,
                                     index, code):
        rc, payload, _ = run_json(capsys, "optimize", *self.grid_args(overrides, axis),
                                  "--out", str(tmp_path))
        assert rc == code
        log = json.loads((tmp_path / "optimize.json").read_text())["log"]
        path, _, value = overrides[0].partition("=")
        assert log[index] == {"phase": "grid", "params": {path: float(value)},
                              "objective": None, "feasible": False}


def axis(path, lo, hi, steps):
    """The --set of a one-axis grid."""
    return ["--set", "explore.axes=" + json.dumps(
        [{"path": path, "min": lo, "max": hi, "steps": steps}])]


def test_an_overflowing_vibration_budget_is_refused_alike(capsys, tmp_path):
    # The deflection violation, (x_static + vibration_amplitude) / x_limit,
    # overflows at a 1e308 m budget: analyze, sweep and optimize all refuse
    # that point with one error line naming vibration_amplitude.
    budget = ["--set", "explore.vibration_amplitude=1e308"]
    one_point = axis("transducer.bias_voltage", 6.0, 6.0, 1)
    errors = set()
    for command, extra in (("analyze", []), ("sweep", one_point), ("optimize", one_point)):
        out = tmp_path / command
        rc, stdout, err = run_cli(capsys, command, "--design", "1", *budget, *extra,
                                  "--out", str(out))
        assert (rc, stdout) == (1, "")
        assert not out.exists()
        errors.add(err)
    [err] = errors
    assert re.fullmatch(r"error: transduction: vibration_amplitude 1e\+308 m overflows"
                        r" the deflection constraint against x_limit \S+ m\n", err)
    # Over a grid axis, sweep stops at that point and optimize logs it as failed.
    grid = axis("explore.vibration_amplitude", 0.0, 1e308, 2)
    rc, stdout, sweep_err = run_cli(capsys, "sweep", "--design", "1", *grid,
                                    "--out", str(tmp_path / "grid"))
    assert (rc, stdout, sweep_err) == (1, "", err)
    rc, _, _ = run_json(capsys, "optimize", "--design", "1", *grid,
                        "--out", str(tmp_path / "best"))
    assert rc == 0
    log = json.loads((tmp_path / "best" / "optimize.json").read_text())["log"]
    assert log[1] == {"phase": "grid", "params": {"explore.vibration_amplitude": 1e308},
                      "objective": None, "feasible": False}


def test_an_overflowing_alpha_pull_in_is_refused_alike(capsys, tmp_path):
    # The bias violation, bias_voltage / (alpha_pull_in * V_pi), overflows
    # at a subnormal alpha_pull_in: analyze, sweep and optimize all refuse
    # that point with one error line naming alpha_pull_in.
    alpha = ["--set", "explore.alpha_pull_in=1e-320"]
    one_point = axis("transducer.bias_voltage", 6.0, 6.0, 1)
    errors = set()
    for command, extra in (("analyze", []), ("sweep", one_point), ("optimize", one_point)):
        out = tmp_path / command
        rc, stdout, err = run_cli(capsys, command, "--design", "1", *alpha, *extra,
                                  "--out", str(out))
        assert (rc, stdout) == (1, "")
        assert not out.exists()
        errors.add(err)
    [err] = errors
    assert re.fullmatch(r"error: transduction: alpha_pull_in \S+ overflows the bias"
                        r" constraint against V_pi \S+ V\n", err)
    # Over a grid axis, sweep stops at that point and optimize logs it as failed.
    grid = axis("explore.alpha_pull_in", 1e-320, 0.97, 2)
    rc, stdout, sweep_err = run_cli(capsys, "sweep", "--design", "1", *grid,
                                    "--out", str(tmp_path / "grid"))
    assert (rc, stdout, sweep_err) == (1, "", err)
    rc, _, _ = run_json(capsys, "optimize", "--design", "1", *grid,
                        "--out", str(tmp_path / "best"))
    assert rc == 0
    log = json.loads((tmp_path / "best" / "optimize.json").read_text())["log"]
    assert log[0] == {"phase": "grid", "params": {"explore.alpha_pull_in": 1e-320},
                      "objective": None, "feasible": False}


def test_an_overflowing_rules_limit_is_refused_alike(capsys, tmp_path):
    # The rules violation, the release width's miss over a subnormal
    # max_release_width, overflows: analyze, sweep and optimize all refuse
    # that point with one error line naming rules.max_release_width.
    limit = ["--set", "rules.max_release_width=1e-320"]
    one_point = axis("transducer.bias_voltage", 6.0, 6.0, 1)
    errors = set()
    for command, extra in (("analyze", []), ("sweep", one_point), ("optimize", one_point)):
        out = tmp_path / command
        rc, stdout, err = run_cli(capsys, command, "--design", "1", *limit, *extra,
                                  "--out", str(out))
        assert (rc, stdout) == (1, "")
        assert not out.exists()
        errors.add(err)
    [err] = errors
    assert re.fullmatch(r"error: rules: rules.max_release_width \S+ m overflows the rules"
                        r" constraint against release_width 2e-06 m\n", err)
    # An unbroken rule's miss is not read: a subnormal minimum gap passes.
    rc, payload, _ = run_json(capsys, "analyze", "--design", "1",
                              "--set", "rules.min_lateral_gap=1e-320")
    assert rc == 0 and payload["constraints"][3]["violation"] == 0.0


def test_an_out_that_cannot_be_a_directory_is_refused_first(capsys, tmp_path):
    # A file, or a path under one: every command that takes --out refuses
    # it with one error line naming --out, before it prints anything.
    kept = tmp_path / "kept"
    kept.write_bytes(b"an earlier file\n")
    one_point = axis("transducer.bias_voltage", 6.0, 6.0, 1)
    for argv in (["analyze", "--design", "1"], ["table1"],
                 ["simulate", "--design", "1", "--set", "sim.duration=1e-3"],
                 ["sweep", "--design", "1", *one_point],
                 ["optimize", "--design", "1", *one_point]):
        for out in (kept, kept / "run"):
            rc, stdout, err = run_cli(capsys, *argv, "--out", str(out))
            assert (rc, stdout) == (1, ""), argv
            [line] = err.splitlines()
            assert line.startswith(f"error: --out {out}: "), line
    assert [p.name for p in tmp_path.iterdir()] == ["kept"]
    assert kept.read_bytes() == b"an earlier file\n"


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["table1", "--config", "x.json"],
        ["analyze", "--seed", "2"],
        ["check-rules", "--out", "d"],
        ["analyze", "--design", "4"],
    ], ids=["table1_config", "analyze_seed", "check_rules_out", "bad_design"])
    def test_usage_error_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: beamosc")
        assert "error: " in err

    @pytest.mark.parametrize("command, options", [
        ("analyze", ["--config", "--design", "--set", "--out"]),
        ("sweep", ["--config", "--design", "--set", "--out"]),
        ("optimize", ["--config", "--design", "--set", "--out"]),
        ("simulate", ["--config", "--design", "--set", "--out", "--seed", "--gm", "--x-max"]),
        ("table1", ["--set", "--out", "--format", "--rho"]),
        ("check-rules", ["--config", "--design", "--set"]),
    ])
    def test_help_lists_the_options_read(self, capsys, command, options):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.M)
        assert listed == ["--help", *options]

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        commands = []
        for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
            for line in block.replace("\\\n", " ").splitlines():
                argv = shlex.split(line, comments=True)
                if argv[:1] == ["beamosc"]:
                    commands.append(argv[1:])
        assert len(commands) >= 5
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv)


class TestParserReuse:
    """main() parses with one parser per process; no call may see another's
    arguments."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_no_option_leaks_into_the_next_call(self, capsys):
        with_gm = ["analyze", "--design", "1", "--set", "pierce.gm=2e-3"]
        first, second = run_cli(capsys, *with_gm), run_cli(capsys, *with_gm)
        assert first == second
        plain = run_cli(capsys, "analyze", "--design", "1")
        src = str(Path(beamosc.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        fresh = subprocess.run([sys.executable, "-m", "beamosc.cli", "analyze", "--design", "1"],
                               capture_output=True, text=True, env=env)
        assert plain == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert plain[1] != first[1]

    def test_shorthand_dests_start_unset(self):
        parser = build_parser()
        parser.parse_args(["table1", "--rho", "2330", "--set", "beam.q_factor=9"])
        args = parser.parse_args(["table1"])
        assert args.overrides is None
        assert getattr(args, "materials.density") is None


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
        assert proc.stdout == f"beamosc {beamosc.__version__}\n"

    def test_manifest_records_the_package_version(self, capsys, tmp_path):
        rc, _, _ = run_cli(capsys, "analyze", "--design", "1", "--out", str(tmp_path))
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["version"] == beamosc.__version__


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
        assert "pierce.gm" in err
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


def test_sweep_failing_in_its_last_block_writes_nothing(capsys, tmp_path):
    # The electrode passes the 100 um beam only at the outer axis's last
    # step, whose points are the last block: the blocks before it are
    # written before the first invalid point is met.
    axes = [{"path": "transducer.electrode_length", "min": 50e-6, "max": 110e-6, "steps": 2},
            {"path": "beam.q_factor", "min": 1000.0, "max": 8000.0,
             "steps": explore.SWEEP_BLOCK}]
    argv = ["sweep", "--design", "1", "--set", "explore.axes=" + json.dumps(axes)]
    out = tmp_path / "new" / "grid"
    rc, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert (rc, stdout) == (1, "")
    assert err == run_cli(capsys, "analyze", "--design", "1", *set_args(
        ["transducer.electrode_length=11e-5", "beam.q_factor=1000.0"]))[2]
    assert not (tmp_path / "new").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "sweep.csv").write_bytes(b"an earlier sweep\n")
    rc, stdout, _ = run_cli(capsys, *argv, "--out", str(kept))
    assert (rc, stdout) == (1, "")
    assert [p.name for p in kept.iterdir()] == ["sweep.csv"]
    assert (kept / "sweep.csv").read_bytes() == b"an earlier sweep\n"


@pytest.fixture
def forks(monkeypatch):
    """The pid of each child os.fork() makes in the test."""
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


@pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork() is POSIX only")
def test_a_failing_forked_sweep_leaves_nothing_behind(capsys, tmp_path, monkeypatch, forks):
    # Three blocks of four points with two CPUs usable: the second block's
    # arrival forks a child for the first, which is kept formatting (it
    # sleeps, then fails) while the third block fails on its first point.
    # The command exits 1, the child is killed and reaped, and no file is
    # left.
    monkeypatch.setattr(explore, "SWEEP_BLOCK", 4)
    monkeypatch.setattr(traceio, "SPLIT_ROWS", 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    parent = os.getpid()
    float_texts = traceio._float_texts

    def texts(column, known):
        if os.getpid() != parent:
            time.sleep(30)
            raise RuntimeError("a child outlived the failed sweep")
        return float_texts(column, known)

    monkeypatch.setattr(traceio, "_float_texts", texts)
    axes = [{"path": "transducer.electrode_length", "min": 50e-6, "max": 110e-6, "steps": 3},
            {"path": "beam.q_factor", "min": 1000.0, "max": 8000.0, "steps": 4}]
    argv = ["sweep", "--design", "1", "--set", "explore.axes=" + json.dumps(axes)]
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "sweep.csv").write_bytes(b"an earlier sweep\n")
    for out in (tmp_path / "new" / "grid", kept):
        forks.clear()
        rc, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (rc, stdout) == (1, "")
        assert err.startswith("error: transduction: electrode_length")
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept"]
    assert [p.name for p in kept.iterdir()] == ["sweep.csv"]
    assert (kept / "sweep.csv").read_bytes() == b"an earlier sweep\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork() is POSIX only")
def test_sweep_blocks_are_formatted_by_forked_children(capsys, tmp_path, monkeypatch, forks):
    # Every table block of SWEEP_BLOCK rows or more, a trace's and a
    # sweep's, reaches SPLIT_ROWS, so forked children format it where two
    # CPUs are usable. A sweep of three blocks forks at least once there,
    # and writes the files and stdout of the same sweep on one usable CPU.
    assert min(simulate.TRACE_BLOCK, explore.SWEEP_BLOCK) >= traceio.SPLIT_ROWS
    axes = [{"path": "beam.q_factor", "min": 1000.0, "max": 8000.0,
             "steps": 2 * explore.SWEEP_BLOCK + 1}]
    argv = ["sweep", "--design", "1", "--set", "explore.axes=" + json.dumps(axes), "--out"]

    def run(name):
        out = tmp_path / name
        return run_cli(capsys, *argv, str(out)), {p.name: p.read_bytes() for p in out.iterdir()}

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    two_cpus = run("two-cpus")
    assert two_cpus[0][0] == 0
    assert json.loads(two_cpus[0][1])["points"] == 2 * explore.SWEEP_BLOCK + 1
    assert forks
    forks.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run("one-cpu") == two_cpus
    assert forks == []


# Axes of the block-size property around design 1 with a 45 um electrode:
# valid ranges, a vibration budget whose deflection violation would
# overflow above some step (a failed check), and an electrode that may
# pass the beam length.
BLOCK_AXES = {
    "beam.length": (60e-6, 140e-6),
    "beam.in_plane_width": (1e-6, 3e-6),
    "transducer.bias_voltage": (3.0, 12.0),
    "explore.vibration_amplitude": (0.0, 1e308),
    "transducer.electrode_length": (30e-6, 150e-6),
}


@st.composite
def block_axes(draw):
    axes = []
    for path in draw(st.lists(st.sampled_from(sorted(BLOCK_AXES)), min_size=1, max_size=3,
                              unique=True)):
        lo, hi = BLOCK_AXES[path]
        a = draw(st.floats(lo, hi))
        axes.append({"path": path, "min": a, "max": draw(st.floats(a, hi)),
                     "steps": draw(st.integers(1, 5))})
    return axes


def run_sweep(tmp_path_factory, axes, sweep_block, row_block):
    """Exit code, stdout, stderr and output files of one `sweep --out`
    with the given block sizes."""
    out = tmp_path_factory.mktemp("blocks") / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.object(explore, "SWEEP_BLOCK", sweep_block), \
            mock.patch.object(traceio, "ROW_BLOCK", row_block), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(["sweep", "--design", "1", "--set", "transducer.electrode_length=45e-6",
                   "--set", "explore.axes=" + json.dumps(axes), "--out", str(out)])
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
    return rc, stdout.getvalue(), stderr.getvalue(), files


@settings(max_examples=60)
@given(axes=block_axes(), sweep_block=st.integers(1, 7), row_block=st.integers(1, 7))
def test_sweep_bytes_do_not_depend_on_the_block_sizes(tmp_path_factory, axes, sweep_block,
                                                      row_block):
    n = math.prod(axis["steps"] for axis in axes)
    got = run_sweep(tmp_path_factory, axes, sweep_block, row_block)
    event(f"exit {got[0]}")
    assert got == run_sweep(tmp_path_factory, axes, n, n)
