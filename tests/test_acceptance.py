"""Acceptance suite: one test per acceptance criterion.

Each test prints exactly one line, `criterion N: PASS ...` or
`criterion N: FAIL ...`, so a plain `pytest -s tests/test_acceptance.py`
reads as a checklist. All reference numbers live in the bundled
reference_values.json; tolerances are restated here so this file alone
documents what is being promised.
"""

import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from conftest import join_blocks, run_startup, startup_columns, summary_of
from beamosc.explore import SweepAxis, SweepSpec, flatten, optimize, sweep
from beamosc.pierce import (
    PierceConfig,
    _gm_roots,
    max_negative_resistance,
    negative_resistance,
)
from beamosc.report import QUANTITIES
from beamosc.simulate import SimConfig
from beamosc.transduction import extract_circuit

COLUMN_OF = {key: column for key, _, _, _, column in QUANTITIES}


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL {description}")
        raise
    print(f"criterion {number}: PASS {description}")


def check_cells(reference, design_points, keys, tolerances):
    for n, point in design_points.items():
        entry = reference[str(n)]
        for key in keys:
            tol = tolerances[key] if isinstance(tolerances, dict) else tolerances
            if isinstance(tol, dict):
                tol = tol[n]
            ref = entry["values"][key]
            computed = flatten(point)[COLUMN_OF[key]]
            assert computed == pytest.approx(ref, rel=tol), (n, key)


def log_slope(env):
    t = env[:, 0] - env[:, 0].mean()
    y = np.log(env[:, 1])
    return float(np.dot(t, y - y.mean()) / np.dot(t, t))


def test_criterion_01_resonant_frequencies(reference, design_points):
    with criterion(1, "resonant frequencies match all three devices to 0.2%"):
        check_cells(reference, design_points, ["f0_hz"], 0.002)


def test_criterion_02_pull_in_voltages(reference, design_points):
    with criterion(2, "pull-in voltages match all three devices to 1.5%"):
        check_cells(reference, design_points, ["v_pull_in_v"], 0.015)


def test_criterion_03_static_deflections(reference, design_points):
    with criterion(3, "static deflections match (0.5%; 3% for device 1)"):
        check_cells(reference, design_points, ["z_static_m"],
                    {"z_static_m": {1: 0.03, 2: 0.005, 3: 0.005}})


def test_criterion_04_motional_parameters(reference, design_points):
    with criterion(4, "motional R/L/C and drive current match to 1%"):
        check_cells(reference, design_points,
                    ["r_x_ohm", "l_x_h", "c_x_f", "i_x_a"], 0.01)


def test_criterion_05_negative_resistance(reference, design_points):
    with criterion(5, "amplifier |Re(Zc)| at gm and at the peak match to 1%"):
        check_cells(reference, design_points,
                    ["re_zc_ohm", "re_zc_max_ohm"], 0.01)


def test_criterion_06_startup_margins(design_points):
    with criterion(6, "every device clears the 3x startup margin"):
        for point in design_points.values():
            assert point.startup.meets_3x
            assert point.startup.oscillates
        assert 85 < design_points[1].startup.margin < 95


def test_criterion_07_circuit_identities():
    with criterion(7, "motional extraction and Re(Zc) peak hold under "
                      "1000 random parameter draws"):
        rng = np.random.default_rng(123)

        def draw(lo, hi, n=1000):
            return np.exp(rng.uniform(math.log(lo), math.log(hi), n))

        ks = draw(0.1, 100.0)
        ms = draw(1e-13, 1e-9)
        qs = draw(100.0, 1e5)
        etas = draw(1e-9, 1e-6)
        for k, m, q, eta in zip(ks, ms, qs, etas):
            ec = extract_circuit(k, m, q, eta)
            w0 = 2 * math.pi * ec.f0
            assert abs(w0 * math.sqrt(ec.l_x * ec.c_x) - 1.0) <= 1e-9
            assert abs(ec.r_x * q / math.sqrt(ec.l_x / ec.c_x) - 1.0) <= 1e-9

        c1s = draw(0.5e-12, 5e-12, 200)
        c2s = draw(0.5e-12, 5e-12, 200)
        c0s = draw(5e-15, 50e-15, 200)
        f0s = draw(50e3, 500e3, 200)
        for c1, c2, c0, f0 in zip(c1s, c2s, c0s, f0s):
            amplifier = PierceConfig(c1=c1, c2=c2, c0=c0)
            opt = max_negative_resistance(amplifier, f0)
            at_peak = negative_resistance(amplifier, opt.gm_opt, f0)
            assert at_peak == pytest.approx(opt.re_max, rel=1e-12)
            for factor in (0.999, 1.001):
                off = negative_resistance(amplifier, factor * opt.gm_opt, f0)
                assert off <= at_peak * (1 + 1e-12)
            reachable, double, lo, hi = _gm_roots(amplifier, f0, 0.5 * opt.re_max)
            assert reachable and not double
            assert lo < opt.gm_opt < hi


def test_criterion_08_startup_simulation(design_points, startup_trace):
    with criterion(8, "simulated startup grows at the predicted rate, "
                      "stabilizes on frequency, and is reproducible"):
        point = design_points[1]
        summary = startup_trace.summary
        assert summary["status"] == "stabilized"
        assert summary["frequency_hz"] == pytest.approx(point.circuit.f0, rel=0.01)
        theory = (point.re_zc - point.circuit.r_x) / (2 * point.circuit.l_x)
        assert summary["growth_rate_per_s"] == pytest.approx(theory, rel=0.1)

        again = run_startup(point)
        assert np.array_equal(startup_trace.v_out, again.v_out)

        # Below unity loop gain the same model must ring down, not grow.
        amp = point.inputs.amplifier
        _, _, gm_half, _ = _gm_roots(amp, point.circuit.f0, 0.5 * point.circuit.r_x)
        ring = run_startup(point, gm=gm_half, sim=SimConfig(
            noise_seed=None, initial_kick=0.0, initial_displacement=5e-9,
            duration=160.0 / point.circuit.f0))
        assert log_slope(summary_of(ring.t, ring.x).envelope()) < 0

        # With every loss element removed the integrator conserves energy.
        ec = extract_circuit(point.model.k, point.model.m, math.inf, point.eta)
        lossless = startup_columns(
            ec,
            replace(amp, r_feedback=1e15, r_output=1e15),
            0.0,
            SimConfig(noise_seed=None, initial_kick=1e-2,
                      initial_displacement=1e-7, duration=60.0 / ec.f0),
            point.eta,
        )
        q = lossless["x"] * point.eta
        v_in, v_out = lossless["v_in"], lossless["v_out"]
        energy = (0.5 * ec.l_x * lossless["i_l"] ** 2
                  + 0.5 * q ** 2 / ec.c_x
                  + 0.5 * amp.c1 * v_in ** 2
                  + 0.5 * amp.c2 * v_out ** 2
                  + 0.5 * amp.c0 * (v_in - v_out) ** 2)
        assert (energy.max() - energy.min()) / energy[0] < 1e-3


def test_criterion_09_design_exploration(reference, design_points):
    with criterion(9, "sweeps reproduce known corners and the optimizer "
                      "lands on the constrained optimum"):
        base = replace(
            design_points[1].inputs,
            transducer=replace(design_points[1].inputs.transducer,
                               electrode_length=45e-6))
        grid = join_blocks(sweep(base, SweepSpec(axes=(
            SweepAxis("beam.length", 60e-6, 100e-6, 2),
            SweepAxis("beam.in_plane_width", 1e-6, 2e-6, 2),
        ))))
        f0, feasible = grid["derived.f0"], grid["feasible"]
        assert f0[0] == pytest.approx(
            reference["2"]["values"]["f0_hz"], rel=0.002)
        assert f0[3] == pytest.approx(
            reference["1"]["values"]["f0_hz"], rel=0.002)
        assert not feasible[0]  # flagged, not dropped
        assert feasible[3]

        rail = optimize(design_points[1].inputs, SweepSpec(
            axes=(SweepAxis("transducer.bias_voltage", 2.0, 9.5, 5),),
            objective="min_Rx"))
        assert rail.feasible
        assert rail.best_params["transducer.bias_voltage"] == 9.5

        short = optimize(
            replace(design_points[2].inputs,
                    transducer=replace(design_points[2].inputs.transducer,
                                       bias_voltage=9.0)),
            SweepSpec(axes=(SweepAxis("beam.length", 60e-6, 100e-6, 5),),
                      objective="max_f0"))
        assert short.feasible
        assert short.best_params["beam.length"] == 60e-6
