import contextlib
import io
import itertools
import math
import tempfile
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, event, given, settings
from hypothesis import strategies as st

from conftest import (
    loop_matrix,
    run_startup,
    startup_columns,
    summary_of,
    tanh_nan_from,
)
from beamosc import simulate
from beamosc.errors import SimulationError, ValidationError
from beamosc.pierce import PierceConfig, _gm_roots, negative_resistance
from beamosc.simulate import SimConfig, summarize_startup
from beamosc.traceio import write_trace_svg
from beamosc.transduction import extract_circuit


def linear_growth_theory(point, gm=None):
    """Envelope rate (|Re(Zc)| - R_x) / (2 L_x) for small signals."""
    if gm is None:
        re = point.re_zc
    else:
        re = negative_resistance(point.inputs.amplifier, gm, point.circuit.f0)
    return (re - point.circuit.r_x) / (2 * point.circuit.l_x)


def gm_for_margin(point, margin):
    _, _, low, _ = _gm_roots(point.inputs.amplifier, point.circuit.f0,
                             margin * point.circuit.r_x)
    return low


def synthetic_signal(rate=800.0, f=10e3, amp0=1e-3, duration=0.02):
    """A growing sine's summary, the signal fed as one block."""
    dt = 1.0 / (250.0 * f)
    t = np.arange(0.0, duration, dt)
    return summary_of(t, amp0 * np.exp(rate * t) * np.sin(2 * np.pi * f * t))


class TestIntegrationBasics:
    def test_default_grid(self, design_points):
        trace = run_startup(design_points[1], sim=SimConfig())
        f0 = design_points[1].circuit.f0
        assert trace.t[1] - trace.t[0] == pytest.approx(1.0 / (250.0 * f0), rel=1e-12)
        assert len(trace.t) == 100001  # 400 cycles, 250 steps each
        assert not trace.summary["pulled_in"]

    def test_coarse_dt_rejected(self, design_points):
        point = design_points[1]
        sim = SimConfig(dt=1.0 / (100.0 * point.circuit.f0))
        with pytest.raises(ValidationError):
            run_startup(point, sim=sim)

    def test_short_duration_rejected(self, design_points):
        point = design_points[1]
        sim = SimConfig(duration=10.0 / point.circuit.f0)
        with pytest.raises(ValidationError):
            run_startup(point, sim=sim)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="noise_seed must be >= 0"):
            SimConfig(noise_seed=-1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "7"])
    def test_seed_must_be_an_integer(self, seed):
        # numpy refuses a float seed only when the run starts, and would
        # run True as seed 1.
        with pytest.raises(ValidationError, match="noise_seed must be an integer"):
            SimConfig(noise_seed=seed)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["dt", "duration", "initial_kick",
                                      "initial_displacement", "v_limit",
                                      "r_feedback", "r_output"])
    def test_non_finite_settings_rejected(self, name, value):
        # Refused at construction, not met later as a stray ValueError,
        # OverflowError or "reduce dt" SimulationError from the integrator.
        # v_limit, r_feedback and r_output are the amplifier's loop elements,
        # refused by PierceConfig; the rest are SimConfig's.
        owner = PierceConfig if name in {f.name for f in fields(PierceConfig)} else SimConfig
        with pytest.raises(ValidationError, match=f"^{name} must be finite, got {value!r}$"):
            owner(**{name: value})

    def test_trace_grid_is_uniform(self, startup_trace):
        steps = np.diff(startup_trace.t)
        dt = steps[0]
        assert np.max(np.abs(steps - dt)) <= 1e-9 * dt

    def test_stiff_network_detected(self, design_points):
        # A 1 ohm output load makes the electrical pole explode under RK4.
        point = design_points[1]
        sim = SimConfig(duration=60.0 / point.circuit.f0)
        with pytest.raises(SimulationError) as err:
            run_startup(point, sim=sim, amplifier=replace(point.inputs.amplifier, r_output=1.0))
        assert err.value.step is not None


class TestDeterminism:
    def test_bit_identical_rerun_with_seed(self, design_points, startup_trace):
        again = run_startup(design_points[1])
        assert np.array_equal(startup_trace.v_out, again.v_out)
        assert np.array_equal(startup_trace.v_in, again.v_in)
        assert np.array_equal(startup_trace.x, again.x)

    def test_different_seed_differs(self, design_points, startup_trace):
        f0 = design_points[1].circuit.f0
        other = run_startup(design_points[1],
                            sim=SimConfig(noise_seed=8, duration=700.0 / f0))
        assert len(other.v_out) == len(startup_trace.v_out)
        assert not np.array_equal(startup_trace.v_out, other.v_out)

    def test_unseeded_run_uses_nominal_kick(self, design_points):
        point = design_points[1]
        sim = SimConfig(noise_seed=None, duration=60.0 / point.circuit.f0)
        trace = run_startup(point, sim=sim)
        assert trace.v_in[0] == sim.initial_kick
        again = run_startup(point, sim=sim)
        assert np.array_equal(trace.v_out, again.v_out)


class TestStartupDynamics:
    def test_startup_grows_and_stabilizes(self, startup_trace):
        summary = startup_trace.summary
        assert summary["status"] == "stabilized"
        assert not summary["pulled_in"]
        assert summary["final_amplitude_v"] > 1.0  # swings at the supply scale

    def test_frequency_within_one_percent(self, design_points, startup_trace):
        f = startup_trace.summary["frequency_hz"]
        assert f == pytest.approx(design_points[1].circuit.f0, rel=1e-2)

    def test_growth_rate_matches_linear_theory(self, design_points, startup_trace):
        theory = linear_growth_theory(design_points[1])
        measured = startup_trace.summary["growth_rate_per_s"]
        assert measured == pytest.approx(theory, rel=0.1)

    def test_envelope_rises_through_small_signal_window(self, startup_trace):
        env = startup_trace.env
        small = env[env[:, 1] < 0.01, 1]
        assert len(small) > 10
        assert small[-1] > small[0]

    def test_halving_dt_barely_moves_the_answer(self, design_points, startup_trace):
        point = design_points[1]
        fine = run_startup(point, sim=SimConfig(
            noise_seed=7, dt=float(startup_trace.t[1] - startup_trace.t[0]) / 2.0,
            duration=700.0 / point.circuit.f0))
        coarse_tail = startup_trace.env[-10:, 1].mean()
        fine_tail = fine.env[-10:, 1].mean()
        assert fine_tail == pytest.approx(coarse_tail, rel=5e-3)

    def test_pull_in_guard_halts_run(self, design_points):
        point = design_points[1]
        x_max = point.x_limit  # 0.33 * gap
        trace = run_startup(point, x_max=x_max)
        assert trace.summary["pulled_in"]
        assert abs(trace.x[-1]) >= x_max
        assert trace.t[-1] < 400.0 / point.circuit.f0  # halted early
        assert 1.5e-3 < trace.t[-1] < 3.0e-3  # grows for a couple of ms
        assert trace.summary["status"] == "pulled_in"


class TestDichotomy:
    def ring(self, point, margin, cycles=720):
        """Log-envelope slope of a ring-down started on the resonator.

        The fit uses only the second half of the run: starting the beam
        displaced with both amplifier nodes at zero injects a DC
        disturbance that the output bias resistor takes a couple of
        milliseconds to bleed off, and that settling shows up in the
        early envelope.
        """
        gm = gm_for_margin(point, margin)
        sim = SimConfig(noise_seed=None, initial_kick=0.0,
                        initial_displacement=5e-9,
                        duration=cycles / point.circuit.f0)
        trace = run_startup(point, gm=gm, sim=sim)
        env = summary_of(trace.t, trace.x).envelope()
        env = env[len(env) // 2:]
        t, a = env[:, 0], np.log(env[:, 1])
        tc = t - t.mean()
        return float(np.dot(tc, a - a.mean()) / np.dot(tc, tc))

    @pytest.mark.parametrize("margin", [0.5, 0.9])
    def test_below_unity_margin_decays(self, design_points, margin):
        point = design_points[1]
        slope = self.ring(point, margin)
        assert slope < 0
        theory = (margin - 1.0) * point.circuit.r_x / (2 * point.circuit.l_x)
        assert slope == pytest.approx(theory, rel=0.1)

    @pytest.mark.parametrize("margin", [1.1, 2.0])
    def test_above_unity_margin_grows(self, design_points, margin):
        point = design_points[1]
        slope = self.ring(point, margin)
        assert slope > 0
        theory = (margin - 1.0) * point.circuit.r_x / (2 * point.circuit.l_x)
        assert slope == pytest.approx(theory, rel=0.1)

    def test_gm_zero_input_kick_dies(self, design_points):
        point = design_points[1]
        sim = SimConfig(noise_seed=None, initial_kick=1e-3,
                        duration=100.0 / point.circuit.f0)
        amplifier = replace(point.inputs.amplifier, r_feedback=1e7, r_output=1e6)
        trace = run_startup(point, gm=0.0, sim=sim, amplifier=amplifier)
        v = np.abs(trace.v_in)
        assert v[-len(v) // 10:].max() < 0.05 * v.max()


class TestEnergyConservation:
    def test_lossless_loop_conserves_energy(self, design_points):
        point = design_points[1]
        ec = extract_circuit(point.model.k, point.model.m, math.inf, point.eta)
        sim = SimConfig(noise_seed=None, initial_kick=1e-2,
                        initial_displacement=1e-7,
                        duration=100.0 / ec.f0)
        amplifier = replace(point.inputs.amplifier, r_feedback=1e15, r_output=1e15)
        run = startup_columns(ec, amplifier, 0.0, sim, point.eta)
        c0, c1, c2 = amplifier.c0, amplifier.c1, amplifier.c2
        q = run["x"] * point.eta
        energy = (
            0.5 * ec.l_x * run["i_l"] ** 2
            + 0.5 * q ** 2 / ec.c_x
            + 0.5 * c1 * run["v_in"] ** 2
            + 0.5 * c2 * run["v_out"] ** 2
            + 0.5 * c0 * (run["v_in"] - run["v_out"]) ** 2
        )
        drift = (energy.max() - energy.min()) / energy[0]
        assert drift < 1e-3


def rk4_map(a: np.ndarray, dt: float) -> np.ndarray:
    """R(dt·A), R(z) = 1 + z + z²/2 + z³/6 + z⁴/24: one RK4 step of the
    linear system dy/dt = A·y, exactly."""
    z = dt * a
    term, total = np.eye(len(a)), np.eye(len(a))
    for k in range(1, 5):
        term = term @ z / k
        total = total + term
    return total


def rk4_step_error(circuit, amplifier, gm, sim, eta) -> tuple[float, np.ndarray]:
    """An unguarded run's largest |v_in|, and each state's largest miss of
    y[n+1] = R(dt·A)·y[n] over the run, y = (i_l, q, v_in, v_out), relative
    to that state's largest value."""
    run = startup_columns(circuit, amplifier, gm, sim, eta)
    y = np.column_stack([run["i_l"], run["x"] * eta, run["v_in"], run["v_out"]])
    predicted = y[:-1] @ rk4_map(loop_matrix(circuit, amplifier, gm), sim.dt).T
    scale = np.abs(y).max(axis=0)
    return scale[2], np.abs(y[1:] - predicted).max(axis=0) / scale


# Without the explain phase: on a 2-vCPU host it spent about 300 s rerunning
# the variations of a failing example that shrinking reports in about 3 s.
@settings(max_examples=25, phases=set(Phase) - {Phase.explain})
@given(design=st.sampled_from([1, 2, 3]),
       margin=st.floats(min_value=0.0, max_value=5.0),
       c_scale=st.tuples(*[st.floats(min_value=0.5, max_value=2.0)] * 3),
       r_scale=st.tuples(*[st.floats(min_value=1e-3, max_value=1e3)] * 2),
       steps_per_cycle=st.floats(min_value=200.0, max_value=400.0),
       cycles=st.floats(min_value=50.0, max_value=100.0),
       kick=st.floats(min_value=1e-9, max_value=1e-6),
       displacement=st.floats(min_value=-1e-12, max_value=1e-12))
def test_each_step_is_the_exact_rk4_map_of_the_loop_matrix(
        design_points, design, margin, c_scale, r_scale, steps_per_cycle, cycles, kick,
        displacement):
    # With v_limit = 1e4 V, |v1| / v_limit stays below 1e-8, where tanh(u)
    # is u but for rounding, so the loop is linear: each RK4 step must be
    # y[n+1] = R(dt·A)·y[n], with A built from the node equations, not from
    # the integrator's right-hand side. A margin below 0.5 switches gm off;
    # one of 0.5-5 sizes gm for itself on the scaled amplifier.
    point = design_points[design]
    circuit, amplifier = point.circuit, point.inputs.amplifier
    amplifier = replace(
        amplifier, v_limit=1e4,
        c0=amplifier.c0 * c_scale[0], c1=amplifier.c1 * c_scale[1],
        c2=amplifier.c2 * c_scale[2],
        r_feedback=amplifier.r_feedback * r_scale[0], r_output=amplifier.r_output * r_scale[1])
    gm = 0.0
    if margin >= 0.5:
        # Re_max / R_x is 12 or more on every amplifier drawn here.
        reachable, _, gm, _ = _gm_roots(amplifier, circuit.f0, margin * circuit.r_x)
        assert reachable
    f0 = circuit.f0
    sim = SimConfig(dt=1.0 / (steps_per_cycle * f0), duration=cycles / f0,
                    initial_kick=kick, initial_displacement=displacement)
    v_in, error = rk4_step_error(circuit, amplifier, gm, sim, point.eta)
    assert v_in < 1e-8 * amplifier.v_limit
    assert error.max() < 1e-12, error


class TestMeasurements:
    def test_synthetic_growth_rate(self):
        # Without a v_limit the fit window reaches up to the envelope's peak.
        summary = synthetic_signal(rate=800.0)
        measured = summary.result(False, None)[0]["growth_rate_per_s"]
        assert measured == pytest.approx(800.0, rel=2e-2)

    def test_synthetic_frequency(self):
        summary = synthetic_signal(rate=100.0, f=10e3)
        assert summary.frequency() == pytest.approx(10e3, rel=5e-4)

    def test_envelope_needs_three_cycles(self):
        summary = synthetic_signal(rate=0.0, f=10e3, duration=2.5e-4)
        assert summary.envelope() is None

    def test_growth_rate_rejects_decay(self):
        # At the default 0.1 V saturation scale the fit window [0.33, 10) mV
        # holds the first 55 cycles of the decay: the fitted slope is negative.
        t = np.arange(0.0, 0.02, 1.0 / (250.0 * 10e3))
        v = 1e-3 * np.exp(-200.0 * t) * np.sin(2 * np.pi * 10e3 * t)
        assert summary_of(t, v).result(False, 0.1)[0]["growth_rate_per_s"] is None

    def test_frequency_needs_enough_cycles(self):
        summary = synthetic_signal(rate=0.0, f=10e3, duration=1e-3)
        assert summary.frequency() is None

    def test_envelope_signal_selector(self, startup_trace):
        ex = summary_of(startup_trace.t, startup_trace.x).envelope()
        ev = summary_of(startup_trace.t, startup_trace.v_out).envelope()
        assert len(ex) > 100 and len(ev) > 100

    def test_summarize_decayed_run(self, design_points):
        point = design_points[1]
        sim = SimConfig(noise_seed=None, initial_kick=1e-3,
                        duration=80.0 / point.circuit.f0)
        summary = run_startup(point, gm=0.0, sim=sim).summary
        assert summary["status"] == "decayed"
        assert summary["frequency_hz"] is None


# ------------------------------------------------- rows handed out in blocks

def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def one_block(point, gm, sim, x_max=math.inf):
    """run_startup() with the whole run in one block (TRACE_BLOCK above
    any run's rows): the reference the block sizes below are held to."""
    with mock.patch.object(simulate, "TRACE_BLOCK", simulate._MAX_STEPS + 1):
        return run_startup(point, gm=gm, sim=sim, x_max=x_max)


_UNGUARDED = {}


def unguarded_run(design, point, gm, sim):
    """one_block() without the guard, memoized per (design, gm, initial
    displacement): the properties below draw the same 50-cycle runs again
    and again."""
    key = (design, gm, sim.initial_displacement)
    if key not in _UNGUARDED:
        _UNGUARDED[key] = one_block(point, gm, sim)
    return _UNGUARDED[key]


def blocked_run(point, sim, x_max, block):
    """summarize_startup() at TRACE_BLOCK = block: what it returned, or the
    SimulationError it raised, and the blocks its consumer received."""
    got = []
    with mock.patch.object(simulate, "TRACE_BLOCK", block):
        try:
            result = summarize_startup(point.circuit, point.inputs.amplifier, point.gm, sim,
                                       point.eta, x_max=x_max, consume=got.extend)
        except SimulationError as err:
            return err, got
    return result, got


@settings(max_examples=30)
@given(design=st.sampled_from([1, 2, 3]), guard=st.booleans(), data=st.data())
def test_blocks_are_the_whole_trace_bit_for_bit(design_points, design, guard, data):
    # 50 cycles, the shortest run allowed. With the guard on, x_max is a
    # share of the unguarded run's largest |x|, so the run pulls in at some
    # step `end`; block sizes that divide end or end + 1 put that step on
    # the first or the last row of a block.
    point = design_points[design]
    sim = SimConfig(noise_seed=7, duration=50.0 / point.circuit.f0)
    want = unguarded_run(design, point, point.gm, sim)
    x_max = math.inf
    if guard:
        x_max = data.draw(st.floats(0.05, 1.0)) * float(np.abs(want.x).max())
        want = one_block(point, point.gm, sim, x_max)
    end = len(want.t) - 1
    block = data.draw(st.integers(1, 7) | st.sampled_from(divisors(end) + divisors(end + 1)))
    if guard and block > 1:
        event({0: "pull-in on a block's first row", block - 1: "pull-in on a block's last row"}
              .get(end % block, "pull-in inside a block"))
    (summary, _, _), blocks = blocked_run(point, sim, x_max, block)
    assert [len(b["t"]) for b in blocks[:-1]] == [block] * (len(blocks) - 1)
    assert 1 <= len(blocks[-1]["t"]) <= block
    assert list(blocks[0]) == ["t", "v_in", "v_out", "x"]
    for name in ("t", "v_in", "v_out", "x"):
        assert np.array_equal(bits(np.concatenate([b[name] for b in blocks])),
                              bits(getattr(want, name)))
    assert summary["pulled_in"] == want.summary["pulled_in"] == guard


@settings(max_examples=20)
@given(design=st.sampled_from([1, 2, 3]), data=st.data())
def test_a_non_finite_state_fails_the_same_in_blocks(design_points, design, data):
    point = design_points[design]
    sim = SimConfig(noise_seed=7, duration=50.0 / point.circuit.f0)
    n_steps = int(round(sim.duration * 250.0 * point.circuit.f0))
    step = data.draw(st.integers(1, n_steps))
    block = data.draw(st.integers(1, 7) | st.sampled_from(divisors(step) + divisors(step + 1)))
    with mock.patch("math.tanh", tanh_nan_from(step)), pytest.raises(SimulationError) as want:
        one_block(point, point.gm, sim)
    with mock.patch("math.tanh", tanh_nan_from(step)):
        err, blocks = blocked_run(point, sim, math.inf, block)
    assert want.value.step == step
    assert isinstance(err, SimulationError)
    assert (str(err), err.step) == (str(want.value), step)
    # Every row before the block that holds the failing step was handed out.
    assert sum(len(b["t"]) for b in blocks) == step // block * block


# ------------------------------------------- the summary fed block by block

def same_bits(a, b) -> bool:
    """Whether two values, floats compared by their bits, are the same."""
    if isinstance(a, float) or isinstance(b, float):
        return type(a) in (float, np.float64) and type(b) in (float, np.float64) \
            and bits(a) == bits(b)
    return a == b


def assert_same_summary(got, env, want, want_env):
    """Two summaries and their envelopes are the same, bit for bit."""
    assert list(got) == list(want)
    assert all(same_bits(got[key], want[key]) for key in want), (got, want)
    assert (env is None) == (want_env is None)
    if env is not None:
        assert env.shape == want_env.shape
        assert np.array_equal(bits(env), bits(want_env))


@settings(max_examples=40)
@given(design=st.sampled_from([1, 2, 3]), guard=st.booleans(), dead=st.booleans(),
       displacement=st.sampled_from([0.0, 1e-11, 1e-9]), data=st.data())
def test_the_streamed_summary_equals_the_trace_one_bit_for_bit(
        design_points, tmp_path_factory, design, guard, dead, displacement, data):
    # 50 cycles, the shortest run allowed. From the seed-7 kick alone, most
    # of them stay below 4 upward crossings and take the no-envelope branch;
    # an initial displacement rings the resonator from row 0. A dead loop
    # has gm = 0. With the guard on, x_max is a share of the unguarded
    # run's largest |x|. Block sizes that divide a row r or r + 1 put r on
    # a block's first or last row: r is an upward crossing, the row after
    # it, a cycle's peak or the last row, the pull-in where the guard halts.
    point = design_points[design]
    gm = 0.0 if dead else point.gm
    sim = SimConfig(noise_seed=7, duration=50.0 / point.circuit.f0,
                    initial_displacement=displacement)
    trace = unguarded_run(design, point, gm, sim)
    x_max = math.inf
    if guard:
        x_max = data.draw(st.floats(0.001, 1.0)) * float(np.abs(trace.x).max())
        trace = one_block(point, gm, sim, x_max)
    # The reference: the run's whole v_out read at once with its length
    # known, even where a guard halted it. The one-block run reads the same.
    want, want_env = summary_of(trace.t, trace.v_out).result(trace.summary["pulled_in"],
                                                             point.inputs.amplifier.v_limit)
    assert_same_summary(trace.summary, trace.env, want, want_env)
    v = trace.v_out
    neg = np.signbit(v)
    up = np.nonzero(neg[:-1] & ~neg[1:])[0]
    peaks = [a + int(np.argmax(np.abs(v[a:b]))) for a, b in zip(up, up[1:])]
    kind, row = data.draw(st.sampled_from(
        [("crossing", r) for r in up] + [("after a crossing", r + 1) for r in up]
        + [("peak", r) for r in peaks] + [("last row", len(v) - 1)]))
    block = data.draw(st.integers(1, 7) | st.sampled_from(divisors(row) + divisors(row + 1))
                      if row else st.integers(1, 7))
    event(f"{kind} on a block's {'first' if row % block == 0 else 'last'} row"
          if row % block in (0, block - 1) else f"{kind} inside a block")
    event("no envelope" if want_env is None else "an envelope")
    with mock.patch.object(simulate, "TRACE_BLOCK", block):
        got, env, plot = summarize_startup(point.circuit, point.inputs.amplifier, gm, sim,
                                           point.eta, x_max=x_max)
    assert_same_summary(got, env, want, want_env)
    stride = simulate.plot_stride(len(trace.t))
    assert np.array_equal(bits(plot.time), bits(trace.t[::stride]))
    assert np.array_equal(bits(plot.v_out), bits(trace.v_out[::stride]))
    out = tmp_path_factory.mktemp("svg")
    write_trace_svg(simulate.Plot(trace.t[::stride], trace.v_out[::stride]),
                    out / "trace.svg", env=want_env)
    write_trace_svg(plot, out / "plot.svg", env=env)
    assert (out / "plot.svg").read_text() == (out / "trace.svg").read_text()


def test_a_dead_loop_has_no_envelope(design_points):
    # The no-envelope branch of the property above, with and without guard.
    point = design_points[1]
    sim = SimConfig(noise_seed=7, duration=50.0 / point.circuit.f0)
    for x_max in (math.inf, 1.0):
        summary, env, _ = summarize_startup(point.circuit, point.inputs.amplifier, 0.0, sim,
                                            point.eta, x_max=x_max)
        assert env is None
        assert summary["status"] == "decayed"
        assert 0 < summary["final_amplitude_v"] <= summary["peak_amplitude_v"]


def test_a_tie_across_blocks_goes_to_the_first_sample():
    # Each cycle peaks twice at |v| = 2; blocks of every size cut the runs
    # between the two peaks in every way. The envelope takes the first
    # peak, as one argmax over the whole cycle does.
    v = np.array([-1.0, 0.5, 2.0, 1.0, -2.0, -0.5] * 6 + [-1.0])
    t = np.arange(len(v)) * 1e-3
    want = summary_of(t, v).envelope()
    assert np.array_equal(want, np.column_stack((t[2:-6:6], np.full(5, 2.0))))
    for block in range(1, len(v) + 1):
        summary = simulate._Summary(io.BytesIO())
        for start in range(0, len(v), block):
            summary.add(t[start:start + block], v[start:start + block])
        assert np.array_equal(bits(summary.envelope()), bits(want)), block


@pytest.mark.parametrize("taken", [0, 2])
def test_a_consumer_that_stops_early_is_refused(design_points, taken):
    # A consume() that returns with blocks left has not run the whole
    # integration, so there is no summary to return.
    point = design_points[1]
    sim = SimConfig(noise_seed=7, duration=50.0 / point.circuit.f0)
    returned = []
    with mock.patch.object(simulate, "TRACE_BLOCK", 1024), pytest.raises(
            ValueError, match=r"^consume\(\) returned before the integration ended$"):
        returned.append(summarize_startup(
            point.circuit, point.inputs.amplifier, point.gm, sim, point.eta,
            consume=lambda blocks: list(itertools.islice(blocks, taken))))
    assert returned == []


# ------------------------------------------------- v_out spilled to a file

@settings(max_examples=25)
@given(design=st.sampled_from([1, 2, 3]), run=st.sampled_from(["unguarded", "guarded", "halted"]),
       dead=st.booleans(), points=st.sampled_from([simulate.PLOT_POINTS, 97]), data=st.data())
def test_the_spill_reads_back_the_same_summary_in_chunks_of_any_size(
        design_points, design, run, dead, points, data):
    # 50 cycles. A guarded run's x_max is twice the unguarded run's largest
    # |x|, so it never halts; a halted run's is a share of it. 97 plot
    # points make the plot stride 128, so a chunk below it holds one
    # plotted row or none. A chunk size that divides the tail's first row
    # puts that row on a chunk's first row.
    point = design_points[design]
    gm = 0.0 if dead else point.gm
    sim = SimConfig(noise_seed=7, duration=50.0 / point.circuit.f0)
    want = unguarded_run(design, point, gm, sim)
    x_max = math.inf
    if run == "guarded":
        x_max = 2.0 * float(np.abs(want.x).max())
    elif run == "halted":
        x_max = data.draw(st.floats(0.001, 0.9)) * float(np.abs(want.x).max())
        want = one_block(point, gm, sim, x_max)
    rows = len(want.t)
    with mock.patch.object(simulate, "PLOT_POINTS", points):
        stride = simulate.plot_stride(rows)
        chunk = data.draw(st.integers(1, 7) | st.integers(1, max(stride - 1, 1))
                          | st.sampled_from(divisors(rows - simulate._tail(rows))))
        event("a chunk below the plot stride" if chunk < stride else "a chunk at or past it")
        event("no envelope" if want.env is None else "an envelope")
        with mock.patch.object(simulate, "SPILL_ROWS", chunk):
            got, env, plot = summarize_startup(point.circuit, point.inputs.amplifier, gm, sim,
                                               point.eta, x_max=x_max)
    assert got["pulled_in"] == (run == "halted")
    assert_same_summary(got, env, want.summary, want.env)
    assert np.array_equal(bits(plot.time), bits(want.t[::stride]))
    assert np.array_equal(bits(plot.v_out), bits(want.v_out[::stride]))


def test_a_guarded_summary_does_not_grow_with_the_run(design_points, monkeypatch):
    # x_max = 1 m never halts the run, so a guarded summary that kept v_out
    # at every row would peak 8 bytes a step higher at 400 cycles than at
    # 50. Blocks of 1,024 rows keep the block's own share of the peak the
    # same at both lengths. A first run allocates what every run reuses.
    point = design_points[1]
    monkeypatch.setattr(simulate, "TRACE_BLOCK", 1024)

    def peak(cycles):
        sim = SimConfig(noise_seed=7, duration=cycles / point.circuit.f0)
        tracemalloc.start()
        try:
            summary, _, _ = summarize_startup(point.circuit, point.inputs.amplifier, point.gm,
                                              sim, point.eta, x_max=1.0)
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not summary["pulled_in"]
        return top

    peak(50)
    growth = peak(400) - peak(50)
    assert growth < 2 * 350 * 250, growth  # under 2 bytes a step


@pytest.mark.parametrize("ending", ["returns", "SimulationError", "consumer raises",
                                    "consumer stops early"])
def test_the_spill_is_closed_however_the_run_ends(design_points, monkeypatch, ending):
    point = design_points[1]
    sim = SimConfig(noise_seed=7, duration=50.0 / point.circuit.f0)
    opened, temporary = [], tempfile.TemporaryFile

    def recorded(*args, **kwargs):
        opened.append(temporary(*args, **kwargs))
        return opened[-1]

    def consume(blocks):
        next(blocks)
        if ending == "consumer raises":
            raise RuntimeError("the consumer failed")
        if ending != "consumer stops early":
            for _ in blocks:
                pass

    monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
    monkeypatch.setattr(simulate, "TRACE_BLOCK", 1024)
    if ending == "SimulationError":
        monkeypatch.setattr(math, "tanh", tanh_nan_from(3000))
    raised = {"SimulationError": SimulationError, "consumer raises": RuntimeError,
              "consumer stops early": ValueError}.get(ending)
    with pytest.raises(raised) if raised else contextlib.nullcontext():
        summarize_startup(point.circuit, point.inputs.amplifier, point.gm, sim, point.eta,
                          x_max=1.0, consume=consume)
    assert len(opened) == 1 and opened[0].closed
