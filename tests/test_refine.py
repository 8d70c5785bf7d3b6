"""The simplex refinement against its numpy original.

explore._refine() runs Nelder-Mead on tuples of Python floats. It must
propose, in the same order and bit for bit, the params that the numpy
version below proposes: optimize()'s log and optimum depend on it.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from hypothesis import event, given
from hypothesis import strategies as st

from beamosc.explore import _NM_ITER_PER_DIM, _NM_TOL, PARAMETER_PATHS, SweepAxis, _refine


def reference_refine(axes, grids: list[np.ndarray], start: dict, grade) -> None:
    """explore._refine() as it was written on numpy arrays: the same
    Nelder-Mead, one small-array operation at a time."""
    free = [axis for axis in axes if axis.minimum < axis.maximum]
    if not free:
        return
    template = {axis.path: float(axis.minimum) for axis in axes}  # in axis order
    # Normalized box coordinates: u in [0,1] per free axis, geometric for log axes.
    los = np.array([axis.minimum for axis in free])
    his = np.array([axis.maximum for axis in free])
    logscale = np.array([axis.scale == "log" for axis in free])

    def to_params(u: np.ndarray) -> dict:
        vals = dict(template)
        for i, axis in enumerate(free):
            if logscale[i]:
                vals[axis.path] = float(los[i] * (his[i] / los[i]) ** u[i])
            else:
                vals[axis.path] = float(los[i] + u[i] * (his[i] - los[i]))
        return vals

    def to_u(params: dict) -> np.ndarray:
        u = np.zeros(len(free))
        for i, axis in enumerate(free):
            v = params[axis.path]
            if logscale[i]:
                u[i] = math.log(v / los[i]) / math.log(his[i] / los[i])
            else:
                u[i] = (v - los[i]) / (his[i] - los[i])
        return u

    def objective_u(u: np.ndarray) -> float:
        if np.any(u < 0.0) or np.any(u > 1.0):
            return math.inf
        return grade(to_params(u))

    dim = len(free)
    step = 0.5 / max(len(g) - 1 for g in grids) if max(len(g) for g in grids) > 1 else 0.25
    u0 = to_u(start)
    simplex = [u0]
    for i in range(dim):
        v = u0.copy()
        v[i] = v[i] + step if v[i] + step <= 1.0 else v[i] - step
        simplex.append(v)
    fvals = [objective_u(u) for u in simplex]

    for _ in range(_NM_ITER_PER_DIM * dim):
        order = sorted(range(dim + 1), key=lambda i: fvals[i])
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        spread = max(np.max(np.abs(s - simplex[0])) for s in simplex[1:])
        if spread < _NM_TOL:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst_u, worst_f = simplex[-1], fvals[-1]
        refl = centroid + (centroid - worst_u)
        f_refl = objective_u(refl)
        if f_refl < fvals[0]:
            expd = centroid + 2.0 * (centroid - worst_u)
            f_expd = objective_u(expd)
            if f_expd < f_refl:
                simplex[-1], fvals[-1] = expd, f_expd
            else:
                simplex[-1], fvals[-1] = refl, f_refl
        elif f_refl < fvals[-2]:
            simplex[-1], fvals[-1] = refl, f_refl
        else:
            base = refl if f_refl < worst_f else worst_u
            contr = centroid + 0.5 * (base - centroid)
            f_contr = objective_u(contr)
            if f_contr < min(f_refl, worst_f):
                simplex[-1], fvals[-1] = contr, f_contr
            else:
                for i in range(1, dim + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    fvals[i] = objective_u(simplex[i])


@st.composite
def refine_cases(draw):
    """1-4 free axes, linear or log, with up to two fixed axes among them;
    grids of 1-5 steps; a start anywhere in the box, edges included."""
    dim = draw(st.integers(1, 4))
    n_fixed = draw(st.integers(0, 2))
    paths = sorted(PARAMETER_PATHS)[:dim + n_fixed]
    axes, start = [], {}
    for i, path in enumerate(paths):
        scale = draw(st.sampled_from(["linear", "log"]))
        bound = (st.floats(1e-12, 1e12) if scale == "log"
                 else st.floats(-1e6, 1e6, allow_subnormal=True))
        lo, hi = sorted([draw(bound), draw(bound)])
        if i >= dim:  # a fixed axis
            hi = lo
        elif lo == hi:  # the narrowest box there is
            hi = math.nextafter(hi, math.inf)
        axes.append(SweepAxis(path, lo, hi, 5, scale))
        start[path] = draw(st.one_of(st.just(lo), st.just(hi), st.floats(lo, hi)))
    order = draw(st.permutations(range(len(axes))))
    axes = [axes[i] for i in order]
    grids = [np.zeros(1 if a.minimum == a.maximum else draw(st.integers(1, 5))) for a in axes]
    start = {a.path: start[a.path] for a in axes}
    return axes, grids, start


def bits_grade(axes, reject: int, noise: float):
    """A deterministic grade of the params' bits: a bowl around the box
    centre plus noise, and math.inf for a share `reject`/256 of points, so
    that contraction and shrink steps run."""
    def grade(params: dict) -> float:
        digest = hashlib.sha256(" ".join(map(float.hex, params.values())).encode()).digest()
        if digest[0] < reject:
            return math.inf
        bowl = sum(((params[a.path] - a.minimum) / (a.maximum - a.minimum) - 0.5) ** 2
                   for a in axes if a.minimum < a.maximum)
        return bowl + noise * digest[1] / 255.0
    return grade


def proposals(refine, axes, grids, start, grade):
    """The params refine() grades, as float bits in order, and the type of
    the error it raises, if any."""
    seen = []

    def logged(params):
        seen.append(tuple((path, value.hex()) for path, value in params.items()))
        return grade(params)

    try:
        refine(axes, grids, start, logged)
    except Exception as err:  # noqa: BLE001 - both versions must raise alike
        return seen, type(err)
    return seen, None


@given(case=refine_cases(), reject=st.sampled_from([0, 32, 128, 256]),
       noise=st.sampled_from([0.0, 1e-9, 1.0]))
def test_float_simplex_proposes_the_numpy_points(case, reject, noise):
    axes, grids, start = case
    grade = bits_grade(axes, reject, noise)
    want = proposals(reference_refine, axes, grids, start, grade)
    got = proposals(_refine, axes, grids, start, grade)
    event(f"{len(want[0])} proposals" if len(want[0]) < 10 else "10+ proposals")
    assert got == want
