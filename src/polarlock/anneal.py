"""Locking algorithm: simulated annealing over the four stage phases with a
gap-driven variable step, boundary-reflecting proposals, proportional
cooling and fixed-step baselines.

The loop keeps one live intensity reference: the most recent detector
reading.  Both the Metropolis comparison and the step-size lookup use it,
which is what a hardware loop can actually do (it only ever knows its latest
measurement) and what lets the controller re-open its search step and
re-lock after the input polarization is disturbed.  The best reading seen so
far and its phases are tracked separately and returned as the final answer,
so an unlucky noisy last sample cannot degrade the reported lock point.
"""

from __future__ import annotations

import functools
import math
import re
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .device import (PHASE_SPAN, PhaseQuad, TpsParams, DeviceParams,
                     _check_field, measure)
from .jones import _frozen

#: objective protocol: a phase 4-tuple, the evaluation's noise pair (two
#: floats, i_px's first) and the lock's whole channel block (see
#: ``run_lock``) in, a plain (i_px, i_py) tuple out
Objective = Callable[..., tuple[float, float]]
#: one lock's random inputs, as ``_draw`` returns them
_Draws = namedtuple("_Draws", "noise0 cols channel")

# intensities are clamped here before dB conversion in traces, so a reading
# noise-clipped to zero yields a large finite ER instead of an error
_DB_FLOOR = 1e-12


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _er_db(i_px: float, i_py: float) -> float:
    return 10.0 * math.log10(max(i_px, _DB_FLOOR) / max(i_py, _DB_FLOOR))


def _er_db_array(i_px: np.ndarray, i_py: np.ndarray) -> np.ndarray:
    """``_er_db`` over two 1-D arrays, equal to it bit for bit: the floors
    and the ratio are exact IEEE operations in numpy as in Python, and the
    log goes through ``math.log10``, since numpy's vector log10 may differ
    from libm in the last bit on some hosts."""
    ratio = np.maximum(i_px, _DB_FLOOR) / np.maximum(i_py, _DB_FLOOR)
    return 10.0 * np.fromiter(map(math.log10, ratio.tolist()), float,
                              ratio.size)


# the paper's variable-step table: the step of each gap bracket, widest gap
# first, and the lower edges of the brackets.  The edges lie inside (0, 1),
# so comparing an unclamped gap against them compares the clamped one
_STEPS = (0.16, 0.08, 0.03, 0.008)
_EDGES = (0.1, 0.01, 0.001)


@_frozen
class StepSchedule:
    """The search step as a function of the intensity gap.

    ``step`` None is the variable step: a gap g gets the step of the first
    bracket, (0.1, 1], (0.01, 0.1], (0.001, 0.01], that holds it, and
    anything at or below the last edge gets the last step.  A number is a
    fixed step for every gap, finite and >= 0, -0 stored as 0.
    """

    step: float | None = None

    def __post_init__(self):
        if self.step is not None:
            _check_field(self, "step", positive=False)
            object.__setattr__(self, "step", self.step + 0.0)

    @classmethod
    def default(cls) -> "StepSchedule":
        """``StepSchedule()``, kept only for the benchmark, which calls it."""
        return cls()

    @property
    def steps(self) -> tuple[float, float, float, float]:
        """The step of each bracket of ``_EDGES``; a fixed step four times."""
        return _STEPS if self.step is None else (self.step,) * 4

    @property
    def label(self) -> str:
        """``variable``, or ``fixed(ST)`` with ST at 9 significant digits."""
        return "variable" if self.step is None else f"fixed({_fmt(self.step)})"

    @classmethod
    def parse(cls, label: str) -> "StepSchedule":
        """The schedule a ``label`` names, surrounding blanks ignored:
        ``variable`` (the default table) or ``fixed(ST)``."""
        label = label.strip()
        if label == "variable":
            return cls()
        m = re.fullmatch(r"fixed\(([^)]+)\)", label)
        if not m:
            raise ValueError(
                f"bad variant {label!r}; expected 'variable' or 'fixed(ST)'")
        try:
            step = float(m.group(1))
        except ValueError:
            raise ValueError(f"bad step value in variant {label!r}") from None
        return cls(step)


def step_for_gap(i_st: float, schedule: StepSchedule) -> float:
    """Scheduled step for intensity gap ``i_st`` (clamped into [0, 1]: a
    gap above 1 gets the first step; one at or below the last edge, or NaN,
    the last).  ``run_lock`` inlines this lookup."""
    e1, e2, e3 = _EDGES
    s0, s1, s2, s3 = schedule.steps
    return s0 if i_st > e1 else s1 if i_st > e2 else s2 if i_st > e3 else s3


@_frozen
class AnnealConfig:
    """Annealing loop parameters.

    Defaults: initial temperature 1e-5, 10 outer loops of 50 inner
    iterations.  The temperature is halved after each outer loop, and the
    step schedule is ``run_lock``'s own argument.  Neither the cooling nor
    the start point is a setting: ``run_lock`` always starts all four
    phases at half the controllable span.
    """

    t0: float = 1e-5
    m0: int = 10
    n0: int = 50

    def __post_init__(self):
        _check_field(self, "t0", positive=True)
        if self.m0 < 1 or self.n0 < 1:
            raise ValueError("m0 and n0 must be >= 1")
        # halving reaches 0 within ~2,100 loops from any finite t0, so a
        # huge m0 is checked without listing its temperatures
        if 0.0 in self._loop_temperatures():
            raise ValueError(f"t0={self.t0!r} and m0={self.m0} cool the last "
                             "outer loop's temperature to 0.0; it must be > 0")

    @property
    def total_iterations(self) -> int:
        return self.m0 * self.n0

    @property
    def temperature(self) -> np.ndarray:
        """Each iteration's temperature, shape ``(total_iterations,)``: a
        read-only array that equal configs and their locks share."""
        return _schedule(self)[0]

    def _loop_temperatures(self) -> Iterator[float]:
        """Each outer loop's temperature, t0 halved after every loop, as
        ``run_lock`` anneals."""
        t = self.t0
        for _ in range(self.m0):
            yield t
            t *= 0.5


# a few entries, so that a sweep over configs cannot grow the cache
@functools.lru_cache(maxsize=4)
def _schedule(cfg: AnnealConfig) -> tuple[np.ndarray, tuple[float, ...]]:
    """``cfg``'s temperature per iteration, as a read-only array and as a
    tuple of floats, computed once per (t0, m0, n0)."""
    temps = np.repeat(np.fromiter(cfg._loop_temperatures(), float, cfg.m0),
                      cfg.n0)
    temps.flags.writeable = False
    return temps, tuple(temps.tolist())


@dataclass(slots=True)
class LockTrace:
    """Per-iteration record of one locking run.

    Arrays are indexed by inner iteration, and row i is iteration i + 1.
    ``best_phases`` / ``best_intensity`` are the returned lock point: the
    highest reading, the initial one included, and the phases that gave it;
    ``best_iteration`` is the first iteration that reached it (0 for the
    initial reading); ``initial_sample`` is the initial ``(i_px, i_py)``.
    ``candidates`` holds each iteration's applied phases as a 4-tuple, and
    ``phases`` is the same as an ``(n, 4)`` array, built on first read.
    """

    temperature: np.ndarray
    step_rad: np.ndarray
    candidates: list[tuple[float, float, float, float]]
    i_px: np.ndarray
    i_py: np.ndarray
    er_db: np.ndarray
    accepted: np.ndarray
    best_phases: PhaseQuad
    best_intensity: float
    best_iteration: int
    initial_sample: tuple[float, float]
    _phases: np.ndarray | None = field(default=None, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.i_px)

    @property
    def phases(self) -> np.ndarray:
        """The ``(n, 4)`` applied stage phases."""
        if self._phases is None:
            self._phases = np.array(self.candidates, float).reshape(-1, 4)
        return self._phases

    @property
    def i_max(self) -> np.ndarray:
        """The running best reading after each iteration: the running
        maximum over the initial reading followed by ``i_px``."""
        return np.maximum.accumulate(
            np.concatenate((self.initial_sample[:1], self.i_px)))[1:]

    @property
    def initial_er_db(self) -> float:
        return _er_db(*self.initial_sample)

    @property
    def final_er_db(self) -> float:
        return float(self.er_db[-1])


def _signed(d: np.ndarray) -> np.ndarray:
    """The signed steps of uniforms ``d`` whose last axis holds r then u for
    each of the four stages in its first eight entries: r where u < 0.5,
    else -r, four per row."""
    r = d[..., 0:8:2]
    return np.where(d[..., 1:8:2] < 0.5, r, -r)


def _move(s_p, st: float, d, hi: float) -> tuple[float, float, float, float]:
    """The boundary-reflecting move of the 4-tuple s_p by step st and the
    four signed steps ``d`` of ``_signed``: by st*d in the interior (0, hi),
    by +st*|d| at or below 0 and by -st*|d| at or above ``hi``; then clamp
    into [0, hi].  It equals the move by +-st*r that the raw (r, u) draws
    give, bit for bit: st*(-r) == -(st*r) and x + (-y) == x - y in IEEE
    arithmetic.  ``run_lock`` calls it only off its band (see there)."""
    x1, x2, x3, x4 = s_p
    d1, d2, d3, d4 = d
    x1 = (x1 + st * d1 if 0.0 < x1 < hi else
          x1 + st * abs(d1) if x1 <= 0.0 else x1 - st * abs(d1))
    x2 = (x2 + st * d2 if 0.0 < x2 < hi else
          x2 + st * abs(d2) if x2 <= 0.0 else x2 - st * abs(d2))
    x3 = (x3 + st * d3 if 0.0 < x3 < hi else
          x3 + st * abs(d3) if x3 <= 0.0 else x3 - st * abs(d3))
    x4 = (x4 + st * d4 if 0.0 < x4 < hi else
          x4 + st * abs(d4) if x4 <= 0.0 else x4 - st * abs(d4))
    return (0.0 if x1 < 0.0 else hi if x1 > hi else x1,
            0.0 if x2 < 0.0 else hi if x2 > hi else x2,
            0.0 if x3 < 0.0 else hi if x3 > hi else x3,
            0.0 if x4 < 0.0 else hi if x4 > hi else x4)


def propose(s_p, st: float, rng, hi: float = PHASE_SPAN
            ) -> tuple[float, float, float, float]:
    """The lock loop's ``_move`` of s_p within [0, hi] (phase_max radians),
    its eight uniforms drawn in one ``rng.random(8)``, r then u per stage."""
    if st < 0:
        raise ValueError("step must be >= 0")
    return _move(s_p, st, _signed(rng.random(8)).tolist(), hi)


def accept(i_new: float, i_old: float, temperature: float, rng) -> bool:
    """Metropolis rule for maximization: improvements pass, a worse reading
    when a uniform u is below exp((i_new - i_old) / temperature).  The lock
    loop applies the same rule, but takes u from its pre-drawn uniform block
    on every iteration; this function draws u with one ``rng.random()``, and
    only for a worse reading."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    return i_new >= i_old or (i_new < i_old and rng.random()
                              < math.exp((i_new - i_old) / temperature))


def bind_objective(input_sop, params: DeviceParams, rng) -> Objective:
    """Close ``measure`` over a fixed input SOP; ``rng`` serves only a bare
    call ``objective(phases)``, which draws its own noise."""
    def objective(phases, noise=None, channel=None) -> tuple[float, float]:
        return measure(input_sop, phases, params, rng, noise)
    return objective


def _draw(rng, n: int) -> _Draws:
    """A lock's inputs, drawn from ``rng`` under the stream contract, in
    this order whatever the device, channel and schedule: uniforms (n, 9),
    row i - 1 r then u for stages 1-4 and iteration i's Metropolis uniform;
    normals (n + 1, 2), row k evaluation k's noise (0 the initial one), i_px
    first; normals (n, 3), the channel's.  ``run_lock`` only reads the value:
    noise row 0, the columns of ``_signed`` steps, Metropolis uniforms and
    noise rows 1..n as flat lists, and the channel block."""
    uniforms = rng.random((n, 9))
    noise = rng.standard_normal((n + 1, 2))
    channel = rng.standard_normal((n, 3))
    cols = np.concatenate((_signed(uniforms), uniforms[:, 8:], noise[1:]),
                          axis=1).T.tolist()
    return _Draws(noise[0].tolist(), cols, channel)


def run_lock(objective: Objective, cfg: AnnealConfig, tps: TpsParams,
             rng, schedule: StepSchedule = StepSchedule()) -> LockTrace:
    """Run the annealing lock and return its full trace.

    The search point starts with all four phases at ``tps.phase_max / 2``
    and is evaluated once; then ``m0`` outer loops of ``n0`` iterations run
    as one loop over ``cfg.temperature``, the array the trace shares.  Each
    iteration takes ``step_for_gap`` of 1 - (latest reading) in
    ``schedule``, moves all four phases as ``_move`` does by the signed
    steps of one ``_signed`` pass over the uniform block, evaluates them (a
    plain 4-tuple) and applies ``accept``'s rule against the latest reading.

    ``rng`` is a generator, which ``_draw`` draws from before the first
    evaluation and not after, or ``_draw``'s value for n =
    ``cfg.total_iterations`` (another length is a ValueError).  Evaluation
    k calls ``objective(phases, noise, channel)`` with noise row k as a
    pair of floats (a 2-tuple in the loop, a list for the initial one) and
    the whole channel block, the same array on every call (a new block
    restarts ``DisturbedObjective``'s SOP sequence, whose evaluation k reads
    rows up to ``max(k - 1, 0)``), and unpacks (i_px, i_py).  The loop zips
    ``_draw``'s flat lists, so the only containers a default lock keeps are
    its 500 candidate tuples, under the collector's generation-0 threshold.
    It records only each iteration's step, phases, reading and verdict, one
    list per field; ``er_db`` and the lock point are derived from those once
    the loop ends, with the same values a per-iteration computation gives,
    and the ``phases`` array when it is first read.

    While every held phase x lies in lo < x < top, lo the schedule's
    largest step and top = fl(phase_max - lo), the loop moves by the plain
    x + st*d, which is ``_move`` bit for bit: |fl(st*d)| <= st <= lo as
    |d| < 1, and x < top gives x <= phase_max - lo exactly, so x + fl(st*d)
    lies in [0, phase_max], where ``_move`` takes the same sum and its clamp
    is the identity.  It tests that band when it accepts a candidate and
    calls ``_move`` off it (always, if lo >= phase_max / 2): at the default
    config on under 0.06% of iterations, all in ``fixed(0.16)``.
    """
    n_iter = cfg.total_iterations
    drawn = rng if isinstance(rng, _Draws) else _draw(rng, n_iter)
    noise0, cols, channel = drawn
    if len(cols[0]) != n_iter:
        raise ValueError(f"drawn for {len(cols[0])} iterations, not {n_iter}")

    hi = tps.phase_max
    state = initial_thetas = (hi / 2.0,) * 4

    i_ref, i_py = objective(state, noise0, channel)
    initial_sample = (i_ref, i_py)

    e1, e2, e3 = _EDGES
    s0, s1, s2, s3 = schedule.steps
    exp = math.exp

    # the band where no step reaches an edge, and whether x1..x4 lie in it
    lo = max(s0, s1, s2, s3)
    top = hi - lo
    x1 = x2 = x3 = x4 = state[0]
    inner = lo < x1 < top
    temperature, temps = _schedule(cfg)
    cands, steps, pxs, pys, oks = [], [], [], [], []
    for t, d1, d2, d3, d4, u, zx, zy in zip(temps, *cols):
        gap = 1.0 - i_ref
        st = s0 if gap > e1 else s1 if gap > e2 else s2 if gap > e3 else s3
        cand = ((x1 + st * d1, x2 + st * d2, x3 + st * d3, x4 + st * d4)
                if inner else _move(state, st, (d1, d2, d3, d4), hi))
        i_px, i_py = objective(cand, (zx, zy), channel)
        ok = i_px >= i_ref or u < exp((i_px - i_ref) / t)
        if ok:
            x1, x2, x3, x4 = state = cand
            inner = (lo < x1 < top and lo < x2 < top and lo < x3 < top
                     and lo < x4 < top)
        i_ref = i_px
        cands.append(cand)
        steps.append(st)
        pxs.append(i_px)
        pys.append(i_py)
        oks.append(ok)

    px, py = np.array(pxs, float), np.array(pys, float)
    # the lock point: the first of the highest readings, the initial one
    # included, i.e. where the running best (i_max) reaches its final value
    readings = np.concatenate((initial_sample[:1], px))
    best_iter = int(np.argmax(readings))
    best_thetas = cands[best_iter - 1] if best_iter else initial_thetas
    return LockTrace(temperature, np.array(steps, float), cands, px, py,
                     _er_db_array(px, py), np.array(oks, bool),
                     PhaseQuad(*best_thetas), float(readings[best_iter]),
                     best_iter, initial_sample)
