"""Shared fixtures: bundled designs, reference table, one startup run."""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from beamosc.config import BUILTIN_DESIGNS, ProjectConfig, load_builtin_design
from beamosc.explore import evaluate
from beamosc import simulate
from beamosc.report import load_reference
from beamosc.simulate import SimConfig, summarize_startup

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def reference():
    """Bundled reference device table, keyed by design number as str."""
    return load_reference()["designs"]


@pytest.fixture(scope="session")
def design_points():
    """Evaluated bundled designs {1: DesignPoint, 2: ..., 3: ...}."""
    points = {}
    for n in BUILTIN_DESIGNS:
        cfg = ProjectConfig.from_raw(load_builtin_design(n))
        points[n] = evaluate(cfg.build_inputs())
    return points


def join_blocks(blocks) -> dict:
    """sweep()'s blocks joined: each column over the whole grid."""
    blocks = list(blocks)
    return {name: np.concatenate([block[name] for block in blocks]) for name in blocks[0]}


def tanh_nan_from(step: int):
    """A math.tanh for summarize_startup() that returns NaN from the first
    right-hand side of RK4 step `step` on (four per step), so the state
    turns non-finite at that step."""
    calls = itertools.count()
    first = 4 * (step - 1)
    tanh = math.tanh

    def fake(x):
        return math.nan if next(calls) >= first else tanh(x)

    return fake


class Run(NamedTuple):
    """A startup run: its columns joined over the whole run, and what
    summarize_startup() returned for it."""

    t: np.ndarray
    v_in: np.ndarray
    v_out: np.ndarray
    x: np.ndarray
    summary: dict
    env: np.ndarray | None
    plot: simulate.Plot


def run_startup(point, gm=None, sim=None, x_max=math.inf, amplifier=None) -> Run:
    """Simulate one evaluated design point's startup: one summarize_startup()
    call, whose blocks are kept and joined. gm and amplifier default to the
    point's own.

    The default window is 700 cycles: long enough for the loop to reach
    its saturated amplitude and sit there for the whole second half.
    """
    if sim is None:
        sim = SimConfig(noise_seed=7, duration=700.0 / point.circuit.f0)
    blocks = []
    summary, env, plot = summarize_startup(
        point.circuit, point.inputs.amplifier if amplifier is None else amplifier,
        point.gm if gm is None else gm, sim, point.eta, x_max=x_max, consume=blocks.extend)
    return Run(**join_blocks(blocks), summary=summary, env=env, plot=plot)


def summary_of(t, v) -> simulate._Summary:
    """The summary of a whole signal `v` on the rows `t`, fed as one block:
    its .envelope() and .frequency() read v as a run's summary reads v_out."""
    summary = simulate._Summary(len(v))
    summary.add(t, v)
    return summary


def startup_columns(circuit, amplifier, gm, sim, eta) -> dict:
    """An unguarded run's columns and its branch current i_l, joined from
    the integrator's blocks: what an energy balance needs."""
    _, blocks = simulate._startup(circuit, amplifier, gm, sim, eta, math.inf)
    columns, currents, _ = zip(*blocks)
    return {**join_blocks(columns), "i_l": np.concatenate(currents)}


@pytest.fixture(scope="session")
def startup_trace(design_points):
    """Unguarded design-1 startup, seed 7, 700 cycles. Reused widely."""
    return run_startup(design_points[1])
