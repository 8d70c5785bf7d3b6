"""Time-domain startup simulation of the oscillator loop.

The loop is reduced to four states: the motional branch current i_L and
charge q of the series RLC resonator, plus the two amplifier node voltages
v1 (input) and v2 (output). The transconductor saturates smoothly,
i = gm * v_limit * tanh(v1 / v_limit), which is what limits the final
amplitude. Bias resistors r_feedback (across the resonator) and r_output
(amplifier output to ground) set the DC operating point without loading the
loop at resonance.

Integration is classical fixed-step RK4. Startup noise is modeled in the
initial condition only: with a noise_seed the input-node kick is scaled by a
random factor in [0, 2], otherwise the nominal kick is applied and the run
is fully deterministic. Mechanical displacement is recovered as x = q / eta
and the run halts early if |x| reaches x_max (gap collapse).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, SimulationError, ValidationError
from .pierce import PierceConfig
from .transduction import EquivalentCircuit

_MAX_STEPS = 20_000_000  # refusal threshold: keeps desk-scale runs desk-scale

ENVELOPE_SIGNALS = ("v_out", "v_in", "x")


@dataclass(frozen=True)
class SimConfig:
    """Integrator settings and loop bias elements.

    dt                    step, s; default 1/(250*f0), must be <= 1/(200*f0)
    duration              simulated span, s; default 400/f0, must be >= 50/f0
    noise_seed            randomizes the initial kick, >= 0; None = deterministic
    initial_kick          input-node voltage at t=0, V
    initial_displacement  beam displacement at t=0, m (energizes the
                          resonator directly, useful for ring-down tests)
    v_limit               transconductor saturation scale, V
    r_feedback            bias resistor across the resonator port, ohm
    r_output              amplifier output resistance to ground, ohm
    """

    dt: float | None = None
    duration: float | None = None
    noise_seed: int | None = None
    initial_kick: float = 1e-6
    initial_displacement: float = 0.0
    v_limit: float = 0.1
    r_feedback: float = 1e10
    r_output: float = 1e9

    def __post_init__(self):
        for name in ("dt", "duration", "initial_kick", "initial_displacement", "v_limit",
                     "r_feedback", "r_output"):
            value = getattr(self, name)
            if value is not None and not -math.inf < value < math.inf:
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if self.dt is not None and self.dt <= 0:
            raise ValidationError("dt must be > 0")
        if self.duration is not None and self.duration <= 0:
            raise ValidationError("duration must be > 0")
        if self.noise_seed is not None and self.noise_seed < 0:
            raise ValidationError("noise_seed must be >= 0")
        if self.initial_kick < 0:
            raise ValidationError("initial_kick must be >= 0")
        if self.v_limit <= 0:
            raise ValidationError("v_limit must be > 0")
        if self.r_feedback <= 0 or self.r_output <= 0:
            raise ValidationError("r_feedback and r_output must be > 0")


@dataclass
class Trace:
    """Simulation output on a uniform time grid.

    time, v_in, v_out, x and branch_current are equal-length arrays;
    pulled_in marks a run halted by the displacement guard. v_limit is
    carried along so envelope-based measurements know the saturation scale.
    """

    time: np.ndarray = field(repr=False)
    v_in: np.ndarray = field(repr=False)
    v_out: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    branch_current: np.ndarray = field(repr=False)
    pulled_in: bool = False
    v_limit: float | None = None

    def __post_init__(self):
        n = len(self.time)
        for name in ("v_in", "v_out", "x", "branch_current"):
            if len(getattr(self, name)) != n:
                raise ValidationError(f"trace field {name} length mismatch")
        if n < 2:
            raise ValidationError("trace needs at least two samples")
        steps = np.diff(self.time)
        dt = steps[0]
        if dt <= 0 or np.max(np.abs(steps - dt)) > 1e-9 * dt:
            raise ValidationError("trace time grid must be uniform and increasing")

    @property
    def dt(self) -> float:
        return float(self.time[1] - self.time[0])


def simulate_startup(
    circuit: EquivalentCircuit,
    amplifier: PierceConfig,
    sim: SimConfig,
    eta: float,
    x_max: float = math.inf,
) -> Trace:
    """Integrate the closed loop from a small kick and return the Trace.

    `eta` converts branch charge to displacement; `x_max` is the gap-collapse
    guard (pass math.inf to disable). The run halts at the first sample with
    |x| >= x_max and the returned trace has pulled_in set.
    """
    if not eta > 0:  # NaN too
        raise ValidationError("eta must be > 0")
    if not x_max > 0:
        raise ValidationError("x_max must be > 0")
    f0 = circuit.f0
    dt = sim.dt if sim.dt is not None else 1.0 / (250.0 * f0)
    duration = sim.duration if sim.duration is not None else 400.0 / f0
    if dt > 1.0 / (200.0 * f0):
        raise ValidationError(
            f"dt = {dt:.3e} s too coarse: need >= 200 steps per cycle at {f0:.6g} Hz"
        )
    if duration < 50.0 / f0:
        raise ValidationError("duration must cover at least 50 cycles")
    n_steps = int(round(duration / dt))
    if n_steps > _MAX_STEPS:
        raise ValidationError(
            f"run of {n_steps} steps exceeds the {_MAX_STEPS} step budget"
        )

    kick = sim.initial_kick
    if sim.noise_seed is not None:
        rng = np.random.default_rng(sim.noise_seed)
        kick = kick * (1.0 + rng.uniform(-1.0, 1.0))

    # Locals for the hot loop.
    rx, lx, cx = circuit.r_x, circuit.l_x, circuit.c_x
    c0, c1, c2 = amplifier.c0, amplifier.c1, amplifier.c2
    gm, vlim = amplifier.gm, sim.v_limit
    gm_vlim = gm * vlim  # gm * vlim * tanh(...) multiplies left to right: same bits
    g_fb = 1.0 / sim.r_feedback
    g_out = 1.0 / sim.r_output
    c10 = c1 + c0
    c20 = c2 + c0
    det = c1 * c2 + c2 * c0 + c0 * c1
    tanh = math.tanh
    half = dt / 2.0
    sixth = dt / 6.0

    def rhs(i_l: float, q: float, v1: float, v2: float):
        vd = v1 - v2
        di = (vd - rx * i_l - q / cx) / lx
        # Not gm_vlim * tanh(...) at gm == 0: 0.0 * tanh(-x) is -0.0.
        i_amp = gm_vlim * tanh(v1 / vlim) if gm != 0.0 else 0.0
        i_fb = g_fb * vd
        i1 = -i_l - i_fb
        i2 = i_l + i_fb - i_amp - g_out * v2
        dv1 = (c20 * i1 + c0 * i2) / det
        dv2 = (c0 * i1 + c10 * i2) / det
        return di, i_l, dv1, dv2

    v1s = np.empty(n_steps + 1)
    v2s = np.empty(n_steps + 1)
    qs = np.empty(n_steps + 1)
    ils = np.empty(n_steps + 1)

    i_l, q, v1, v2 = 0.0, eta * sim.initial_displacement, kick, 0.0
    v1s[0], v2s[0], qs[0], ils[0] = v1, v2, q, i_l
    q_max = eta * x_max  # displacement guard expressed in charge
    pulled_in = False
    end = n_steps

    for step in range(1, n_steps + 1):
        a1, a2, a3, a4 = rhs(i_l, q, v1, v2)
        b1, b2, b3, b4 = rhs(i_l + half * a1, q + half * a2, v1 + half * a3, v2 + half * a4)
        c1_, c2_, c3_, c4_ = rhs(i_l + half * b1, q + half * b2, v1 + half * b3, v2 + half * b4)
        d1, d2, d3, d4 = rhs(i_l + dt * c1_, q + dt * c2_, v1 + dt * c3_, v2 + dt * c4_)
        i_l += sixth * (a1 + 2.0 * (b1 + c1_) + d1)
        q += sixth * (a2 + 2.0 * (b2 + c2_) + d2)
        v1 += sixth * (a3 + 2.0 * (b3 + c3_) + d3)
        v2 += sixth * (a4 + 2.0 * (b4 + c4_) + d4)
        if not math.isfinite(i_l + q + v1 + v2):
            raise SimulationError(
                f"integrator state became non-finite at step {step} "
                f"(t = {step * dt:.3e} s); reduce dt", step=step
            )
        v1s[step], v2s[step], qs[step], ils[step] = v1, v2, q, i_l
        if abs(q) >= q_max:
            pulled_in = True
            end = step
            break

    sl = slice(0, end + 1)
    return Trace(
        time=np.arange(end + 1) * dt,  # the bits of step * dt at each step
        v_in=v1s[sl],
        v_out=v2s[sl],
        x=qs[sl] / eta,
        branch_current=ils[sl],
        pulled_in=pulled_in,
        v_limit=vlim,
    )


def _signal(trace: Trace, name: str) -> np.ndarray:
    if name not in ENVELOPE_SIGNALS:
        raise ValidationError(f"signal must be one of {ENVELOPE_SIGNALS}")
    return {"v_out": trace.v_out, "v_in": trace.v_in, "x": trace.x}[name]


def _upward_crossings(v: np.ndarray) -> np.ndarray:
    neg = np.signbit(v)
    return np.nonzero(neg[:-1] & ~neg[1:])[0]


def envelope(trace: Trace, signal: str = "v_out") -> np.ndarray:
    """Per-cycle amplitude of an oscillating signal.

    Cycles are delimited by upward zero crossings; each contributes one row
    (t_peak, |peak|) taken at the largest-magnitude sample of that cycle.
    Requires at least 3 complete cycles.
    """
    v = _signal(trace, signal)
    up = _upward_crossings(v)
    if len(up) < 4:
        raise InsufficientDataError(
            f"envelope needs >= 3 full cycles, found {max(len(up) - 1, 0)}"
        )
    rows = np.empty((len(up) - 1, 2))
    absv = np.abs(v)
    for k in range(len(up) - 1):
        a, b = up[k], up[k + 1]
        j = a + int(np.argmax(absv[a:b]))
        rows[k, 0] = trace.time[j]
        rows[k, 1] = absv[j]
    return rows


def measure_frequency(trace: Trace) -> float:
    """Mean frequency of v_out over its last 20 cycles, Hz.

    Crossing times are refined by linear interpolation between samples.
    """
    cycles, v = 20, trace.v_out
    up = _upward_crossings(v)
    if len(up) < cycles + 1:
        raise InsufficientDataError(
            f"frequency over {cycles} cycles needs {cycles + 1} crossings, "
            f"found {len(up)}"
        )
    dt = trace.dt
    idx = up[-(cycles + 1):]
    # v[j] < 0 <= v[j+1], so the denominator is strictly positive.
    t_first = trace.time[idx[0]] + dt * v[idx[0]] / (v[idx[0]] - v[idx[0] + 1])
    t_last = trace.time[idx[-1]] + dt * v[idx[-1]] / (v[idx[-1]] - v[idx[-1] + 1])
    return cycles / (t_last - t_first)


def _fit_slope(t: np.ndarray, y: np.ndarray) -> float:
    tc = t - t.mean()
    return float(np.dot(tc, y - y.mean()) / np.dot(tc, tc))


def _fit_growth(env: np.ndarray, v_limit: float | None) -> float:
    """Exponential growth rate of a startup envelope, 1/s.

    Fits log-amplitude against time over the small-signal window
    [ceiling/30, ceiling), stopping at the first ceiling crossing so the fit
    never sees saturation. The ceiling is 0.1*v_limit, or the envelope's
    peak without a v_limit. Requires at least 10 envelope points in the
    window and a positive slope.
    """
    amps = env[:, 1]
    ceiling = 0.1 * v_limit if v_limit else float(amps.max())
    crossed = np.nonzero(amps >= ceiling)[0]
    stop = crossed[0] if len(crossed) else len(amps)
    floor = ceiling / 30.0
    sel = np.nonzero(amps[:stop] >= floor)[0]
    if len(sel) < 10:
        raise InsufficientDataError(
            f"growth window holds {len(sel)} envelope points, need >= 10"
        )
    slope = _fit_slope(env[sel, 0], np.log(amps[sel]))
    if slope <= 0:
        raise InsufficientDataError("envelope is not growing in the fit window")
    return slope


def summarize(trace: Trace) -> tuple[dict, np.ndarray | None]:
    """Classify a run and report its headline numbers as a JSON-ready dict,
    with the v_out envelope it read (None below 3 full cycles).

    status is one of pulled_in, growing, stabilized, decayed:
    pulled_in wins outright; decayed means the envelope lost more than 5%
    over the second half of the run or the signal died relative to its own
    peak; growing means it gained more than 5%; anything else stabilized.
    frequency_hz is null for decayed runs; growth_rate_per_s is null where
    the envelope does not grow through its small-signal window.
    """
    try:
        env = envelope(trace)
    except InsufficientDataError:
        env = None

    if env is not None:
        amps = env[:, 1]
        peak = float(amps.max())
        tail = amps[-min(10, len(amps)):]
        final = float(tail.mean())
    else:
        n_tail = max(2, len(trace.v_out) // 10)
        peak = float(np.abs(trace.v_out).max())
        final = float(np.abs(trace.v_out[-n_tail:]).max())

    if trace.pulled_in:
        status = "pulled_in"
    elif peak == 0.0 or final < 0.2 * peak or env is None:
        status = "decayed"
    else:
        half = len(env) // 2
        t_half, a_half = env[half:, 0], env[half:, 1]
        slope = _fit_slope(t_half, np.log(a_half))
        swing = slope * (t_half[-1] - t_half[0])
        if swing < -0.05:
            status = "decayed"
        elif swing > 0.05:
            status = "growing"
        else:
            status = "stabilized"

    frequency = None
    if status != "decayed":
        try:
            frequency = measure_frequency(trace)
        except InsufficientDataError:
            frequency = None

    try:
        growth = None if env is None else _fit_growth(env, trace.v_limit)
    except InsufficientDataError:
        growth = None

    return {
        "status": status,
        "pulled_in": trace.pulled_in,
        "frequency_hz": frequency,
        "growth_rate_per_s": growth,
        "final_amplitude_v": final,
        "peak_amplitude_v": peak,
        "duration_s": float(trace.time[-1]),
        "steps": int(len(trace.time) - 1),
    }, env
