"""Time-domain startup simulation of the oscillator loop.

The loop is reduced to four states: the motional branch current i_L and
charge q of the series RLC resonator, plus the two amplifier node voltages
v1 (input) and v2 (output), with the amplifier's pierce.PierceConfig. The
transconductor saturates smoothly, i = gm * v_limit * tanh(v1 / v_limit),
which is what limits the final amplitude. Bias resistors r_feedback (across
the resonator) and r_output (amplifier output to ground) set the DC
operating point without loading the loop at resonance.

Integration is classical fixed-step RK4. Startup noise is modeled in the
initial condition only: with a noise_seed the input-node kick is scaled by a
random factor in [0, 2], otherwise the nominal kick is applied and the run
is fully deterministic. Mechanical displacement is recovered as x = q / eta
and the run halts early if |x| reaches x_max (gap collapse).

summarize_startup() is the one way to run it. The loop hands its rows out
in fresh blocks as it goes, so a caller can write them out while it
integrates (see its `consume`), and feeds each block to a _Summary, so a
run of any length is summarized in memory set by the block. The summary
alone samples a run for its plot (_Summary.plot()).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import SimulationError, ValidationError
from .pierce import PierceConfig
from .transduction import EquivalentCircuit

_MAX_STEPS = 20_000_000  # refusal threshold: keeps desk-scale runs desk-scale
# Rows per block that summarize_startup() hands its consumer: at least
# traceio.SPLIT_ROWS, so the row writer can give each block to a forked child
# to format.
TRACE_BLOCK = 8192
# A plot of a run samples every plot_stride()-th row: 4,000 to 7,999 points
# of a long run.
PLOT_POINTS = 4000
_CYCLES = 20  # _Summary.frequency() averages over the last this many cycles


@dataclass(frozen=True)
class SimConfig:
    """Integrator settings; the loop's elements are pierce.PierceConfig's.

    dt                    step, s; default 1/(250*f0), must be <= 1/(200*f0)
    duration              simulated span, s; default 400/f0, must be >= 50/f0
    noise_seed            randomizes the initial kick, >= 0; None = deterministic
    initial_kick          input-node voltage at t=0, V
    initial_displacement  beam displacement at t=0, m (energizes the
                          resonator directly, useful for ring-down tests)
    """

    dt: float | None = None
    duration: float | None = None
    noise_seed: int | None = None
    initial_kick: float = 1e-6
    initial_displacement: float = 0.0

    def __post_init__(self):
        for name in ("dt", "duration", "initial_kick", "initial_displacement"):
            value = getattr(self, name)
            if value is not None and not -math.inf < value < math.inf:
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if self.dt is not None and self.dt <= 0:
            raise ValidationError("dt must be > 0")
        if self.duration is not None and self.duration <= 0:
            raise ValidationError("duration must be > 0")
        seed = self.noise_seed
        if seed is not None:
            if type(seed) is bool or not isinstance(seed, (int, np.integer)):  # as in config
                raise ValidationError(f"noise_seed must be an integer, got {seed!r}")
            if seed < 0:
                raise ValidationError("noise_seed must be >= 0")
        if self.initial_kick < 0:
            raise ValidationError("initial_kick must be >= 0")


class Plot(NamedTuple):
    """The v_out samples of a run that trace.svg plots, and their times."""

    time: np.ndarray
    v_out: np.ndarray


def plot_stride(rows: int) -> int:
    """The stride at which a plot of a run of `rows` rows samples it."""
    return max(1, rows // PLOT_POINTS)


def summarize_startup(
    circuit: EquivalentCircuit,
    amplifier: PierceConfig,
    gm: float,
    sim: SimConfig,
    eta: float,
    x_max: float = math.inf,
    consume=None,
) -> tuple[dict, np.ndarray | None, Plot]:
    """Integrate the closed loop of `circuit` and `amplifier` at
    transconductance gm from a small kick, and classify the run while it
    is integrated. Returns its headline numbers as a JSON-ready dict, the
    v_out envelope it read (None below 3 full cycles), and the Plot of its
    time and v_out at every plot_stride()-th row, which write_trace_svg()
    draws.

    `eta` converts branch charge to displacement; `x_max` is the gap-collapse
    guard (pass math.inf to disable). The run halts at the first row with
    |x| >= x_max and is reported pulled_in.

    status is one of pulled_in, growing, stabilized, decayed:
    pulled_in wins outright; decayed means the envelope lost more than 5%
    over the second half of the run or the signal died relative to its own
    peak; growing means it gained more than 5%; anything else stabilized.
    frequency_hz is null for decayed runs; growth_rate_per_s is null where
    the envelope does not grow through its small-signal window. A value
    the run is too short to measure is null, not an error.
    Without an envelope, final_amplitude_v is the largest |v_out| of the
    last tenth of the run.

    consume(blocks), if given, receives the run's rows while they are
    integrated: an iterator over blocks of up to TRACE_BLOCK rows, each a
    dict of columns t, v_in, v_out and x. It must exhaust the iterator,
    which runs the integration; an error of the integrator is raised from
    it. Each block is freshly allocated, so a consumer may keep it.

    Memory is set by the block, not by the run, except for what the
    summary itself keeps: one envelope row per cycle and, with the guard
    on (finite x_max), v_out at every row, 8 bytes a step, since a halt
    leaves the run's length unknown until it ends.
    """
    rows, blocks = _startup(circuit, amplifier, gm, sim, eta, x_max)
    summary = _Summary(rows if x_max == math.inf else None)
    ended = []

    def columns():
        halted = False
        for block, _, halted in blocks:
            summary.add(block["t"], block["v_out"])
            yield block
        ended.append(halted)

    if consume is None:
        for _ in columns():
            pass
    else:
        consume(columns())
    if not ended:
        raise ValueError("consume() returned before the integration ended")
    return (*summary.result(ended[0], amplifier.v_limit), summary.plot())


def _startup(circuit, amplifier, gm, sim, eta, x_max) -> tuple[int, Iterator]:
    """Check a run's settings; return its length in rows, should no guard
    halt it, and the generator that integrates it (see _integrate())."""
    if not gm >= 0:  # NaN too
        raise ValidationError("gm must be >= 0")
    if not eta > 0:
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
    steps = duration / dt  # inf past the float range: compared before int()
    if steps > _MAX_STEPS + 0.5:  # round(steps) > _MAX_STEPS
        raise ValidationError(
            f"duration {duration:.6g} s at dt {dt:.6g} s is {steps:.6g} steps, "
            f"over the {_MAX_STEPS} step budget"
        )
    n_steps = int(round(steps))

    kick = sim.initial_kick
    if sim.noise_seed is not None:
        rng = np.random.default_rng(sim.noise_seed)
        kick = kick * (1.0 + rng.uniform(-1.0, 1.0))

    # Locals for the hot loop.
    rx, lx, cx = circuit.r_x, circuit.l_x, circuit.c_x
    c0, c1, c2 = amplifier.c0, amplifier.c1, amplifier.c2
    vlim = amplifier.v_limit
    gm_vlim = gm * vlim  # gm * vlim * tanh(...) multiplies left to right: same bits
    g_fb = 1.0 / amplifier.r_feedback
    g_out = 1.0 / amplifier.r_output
    c10 = c1 + c0
    c20 = c2 + c0
    det = c1 * c2 + c2 * c0 + c0 * c1
    tanh = math.tanh

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

    state = (0.0, eta * sim.initial_displacement, kick, 0.0)
    return n_steps + 1, _integrate(rhs, state, n_steps, dt, eta * x_max, eta)


def _integrate(rhs, state: tuple, n_steps: int, dt: float, q_max: float, eta: float):
    """RK4 from `state` (i_l, q, v1, v2), row 0, to row n_steps, or to the
    first row with |q| >= q_max. Yields each block of TRACE_BLOCK rows as
    it is made, in fresh arrays: its columns as summarize_startup()
    describes them (t is step * dt), its branch current (which only an
    energy balance reads), and whether the guard halted the run at its
    last row."""
    i_l, q, v1, v2 = state
    half = dt / 2.0
    sixth = dt / 6.0
    isfinite = math.isfinite
    for start in range(0, n_steps + 1, TRACE_BLOCK):
        size = min(TRACE_BLOCK, n_steps + 1 - start)
        v1s, v2s, qs, ils = (np.empty(size) for _ in range(4))
        if not start:  # row 0 is the initial state
            v1s[0], v2s[0], qs[0], ils[0] = v1, v2, q, i_l
        halted = False
        for row in range(0 if start else 1, size):
            a1, a2, a3, a4 = rhs(i_l, q, v1, v2)
            b1, b2, b3, b4 = rhs(i_l + half * a1, q + half * a2, v1 + half * a3, v2 + half * a4)
            c1_, c2_, c3_, c4_ = rhs(i_l + half * b1, q + half * b2, v1 + half * b3,
                                     v2 + half * b4)
            d1, d2, d3, d4 = rhs(i_l + dt * c1_, q + dt * c2_, v1 + dt * c3_, v2 + dt * c4_)
            i_l += sixth * (a1 + 2.0 * (b1 + c1_) + d1)
            q += sixth * (a2 + 2.0 * (b2 + c2_) + d2)
            v1 += sixth * (a3 + 2.0 * (b3 + c3_) + d3)
            v2 += sixth * (a4 + 2.0 * (b4 + c4_) + d4)
            if not isfinite(i_l + q + v1 + v2):
                step = start + row
                hint = "reduce dt" if step > 1 else (
                    "check initial_kick, initial_displacement, r_feedback and r_output, "
                    "or reduce dt")
                raise SimulationError(
                    f"integrator state became non-finite at step {step} "
                    f"(t = {step * dt:.3e} s); {hint}", step=step
                )
            v1s[row], v2s[row], qs[row], ils[row] = v1, v2, q, i_l
            if abs(q) >= q_max:
                halted, size = True, row + 1
                break
        yield ({"t": np.arange(start, start + size) * dt, "v_in": v1s[:size],
                "v_out": v2s[:size], "x": qs[:size] / eta}, ils[:size], halted)
        if halted:
            return


class _Summary:
    """What summarize_startup() reports of a run, gathered from its t and
    v_out columns fed in row order, one block at a time (add()).

    Across blocks it carries the open cycle's first largest |v_out| and its
    time, the last row (whether a cycle starts there is known only from the
    row after it), the last 21 upward crossings with the sample after each,
    the envelope rows of the closed cycles, the largest |v_out| of the run
    and of its last tenth, and v_out at every `keep`-th row for the plot.

    `rows`, the run's length if it is known before the run, sets the two
    values that depend on it: the plot stride, and the tail that the
    summary reads where it has no envelope. Where it is None (a guard may
    halt the run), v_out is kept at every row and both are read from that
    once the run ends.
    """

    def __init__(self, rows: int | None):
        self.keep = plot_stride(rows) if rows else 1
        self.tail_from = rows - _tail(rows) if rows else None
        self.n = 0  # rows fed
        self.dt = None
        self.last = None  # (t, v_out, |v_out|) of the last row fed
        self.open = None  # (t, |v_out|) of the open cycle's first largest sample
        self.count = 0  # upward crossings
        self.crossings = np.empty((0, 3))  # (t, v, v after) of the last 21 of them
        self.cycles = []  # each block's envelope rows, (t, |v_out|) of each cycle it closed
        self.peak = self.tail = 0.0  # largest |v_out| of the run, and from row tail_from on
        self.kept = []  # v_out at rows 0, keep, 2 * keep, ...

    def add(self, t: np.ndarray, v: np.ndarray) -> None:
        """Feed the run's next rows: their t and v_out (or any other signal
        on the same rows)."""
        n0, self.n = self.n, self.n + len(v)
        a = np.abs(v)
        self.peak = max(self.peak, float(a.max()))
        if self.tail_from is not None and self.n > self.tail_from:
            self.tail = max(self.tail, float(a[max(self.tail_from - n0, 0):].max()))
        self.kept.append(v[-n0 % self.keep::self.keep].copy())
        if self.last is not None:
            t, v, a = (np.concatenate(([last], new)) for last, new in zip(self.last, (t, v, a)))
        self.last = t[-1], v[-1], a[-1]
        if self.dt is None and len(t) > 1:  # t[0] is row 0 here
            self.dt = float(t[1] - t[0])
        neg = np.signbit(v)
        up = np.nonzero(neg[:-1] & ~neg[1:])[0]  # v[j] < 0 <= v[j + 1]
        self.count += len(up)
        self.crossings = np.concatenate(
            (self.crossings, np.column_stack((t[up], v[up], v[up + 1]))))[-_CYCLES - 1:]
        # A cycle runs from one crossing's row to the row before the next;
        # the last row waits for the next block.
        cuts = [*up.tolist(), len(v) - 1]
        if self.open is not None and cuts[0]:
            j = int(np.argmax(a[:cuts[0]]))
            if a[j] > self.open[1]:  # the first largest wins a tie, as argmax does
                self.open = t[j], a[j]
        closed = []
        for begin, end in zip(cuts, cuts[1:]):
            if self.open is not None:
                closed.append(self.open)
            j = begin + int(np.argmax(a[begin:end]))
            self.open = t[j], a[j]
        if closed:
            self.cycles.append(np.array(closed))

    def envelope(self) -> np.ndarray | None:
        """Per-cycle amplitude: one row (t_peak, |peak|) per cycle between
        two upward crossings, at the cycle's first largest |v|. None below
        3 full cycles."""
        return np.concatenate(self.cycles) if self.count >= 4 else None

    def frequency(self) -> float | None:
        """Mean frequency over the last _CYCLES cycles, Hz, each crossing's
        time refined by linear interpolation between its two samples. None
        below _CYCLES + 1 upward crossings."""
        if self.count < _CYCLES + 1:
            return None
        # v[j] < 0 <= v[j+1], so the denominator is strictly positive.
        (t0, v0, after0), (t1, v1, after1) = self.crossings[0], self.crossings[-1]
        t_first = t0 + self.dt * v0 / (v0 - after0)
        t_last = t1 + self.dt * v1 / (v1 - after1)
        return _CYCLES / (t_last - t_first)

    def result(self, pulled_in: bool, v_limit: float | None) -> tuple[dict, np.ndarray | None]:
        """summarize_startup()'s dict and envelope; None where the run is too
        short to measure one (see envelope(), frequency(), _fit_growth())."""
        env = self.envelope()
        if env is not None:
            amps = env[:, 1]
            peak = float(amps.max())
            tail = amps[-min(10, len(amps)):]
            final = float(tail.mean())
        else:
            peak = self.peak
            final = self.tail if self.tail_from is not None else float(
                np.abs(np.concatenate(self.kept)[-_tail(self.n):]).max())

        if pulled_in:
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

        return {
            "status": status,
            "pulled_in": pulled_in,
            "frequency_hz": None if status == "decayed" else self.frequency(),
            "growth_rate_per_s": None if env is None else _fit_growth(env, v_limit),
            "final_amplitude_v": final,
            "peak_amplitude_v": peak,
            "duration_s": float(self.last[0]),
            "steps": self.n - 1,
        }, env

    def plot(self) -> Plot:
        """v_out at every plot_stride()-th row of the run, and their
        times, step * dt as _integrate() makes them."""
        stride = plot_stride(self.n)
        return Plot(np.arange(0, self.n, stride) * self.dt,
                    np.concatenate(self.kept)[::stride // self.keep])


def _tail(rows: int) -> int:
    """The rows at the end of a run whose largest |v_out| is its final
    amplitude where it has no envelope."""
    return max(2, rows // 10)


def _fit_slope(t: np.ndarray, y: np.ndarray) -> float:
    tc = t - t.mean()
    return float(np.dot(tc, y - y.mean()) / np.dot(tc, tc))


def _fit_growth(env: np.ndarray, v_limit: float | None) -> float | None:
    """Exponential growth rate of a startup envelope, 1/s.

    Fits log-amplitude against time over the small-signal window
    [ceiling/30, ceiling), stopping at the first ceiling crossing so the fit
    never sees saturation. The ceiling is 0.1*v_limit, or the envelope's
    peak without a v_limit. None where the window holds fewer than 10
    envelope points or the slope is <= 0.
    """
    amps = env[:, 1]
    ceiling = 0.1 * v_limit if v_limit else float(amps.max())
    crossed = np.nonzero(amps >= ceiling)[0]
    stop = crossed[0] if len(crossed) else len(amps)
    floor = ceiling / 30.0
    sel = np.nonzero(amps[:stop] >= floor)[0]
    if len(sel) < 10:
        return None
    slope = _fit_slope(env[sel, 0], np.log(amps[sel]))
    return None if slope <= 0 else slope
