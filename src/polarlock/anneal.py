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

import math
import re
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable

import numpy as np

from .device import (PHASE_SPAN, PhaseQuad, TpsParams, DeviceParams,
                     _check_field, measure)

#: objective protocol: a phase 4-tuple, the evaluation's noise row and the
#: lock's whole channel block (see ``run_lock``) in, a plain (i_px, i_py)
#: tuple out
Objective = Callable[..., tuple[float, float]]

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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class AnnealConfig:
    """Annealing loop parameters.

    Defaults: initial temperature 1e-5, 10 outer loops of 50 inner
    iterations, halving cooling.  The step schedule is ``run_lock``'s own
    argument, and the start point is not a setting: ``run_lock`` always
    starts all four phases at half the controllable span.
    """

    t0: float = 1e-5
    m0: int = 10
    n0: int = 50
    cooling_p: float = 0.5

    def __post_init__(self):
        _check_field(self, "t0", positive=True)
        if self.m0 < 1 or self.n0 < 1:
            raise ValueError("m0 and n0 must be >= 1")
        if not 0.0 < self.cooling_p < 1.0:
            raise ValueError("cooling_p must lie in (0, 1)")
        t = self._loop_temperatures()[-1]
        if not t > 0.0:
            raise ValueError(f"t0={self.t0!r}, cooling_p={self.cooling_p!r} "
                             f"and m0={self.m0} cool the last outer loop's "
                             f"temperature to {t!r}; it must be > 0")

    @property
    def total_iterations(self) -> int:
        return self.m0 * self.n0

    @property
    def temperature(self) -> np.ndarray:
        """Each iteration's temperature, shape ``(total_iterations,)``."""
        return np.repeat(self._loop_temperatures(), self.n0)

    def _loop_temperatures(self) -> list[float]:
        """Each outer loop's temperature, t0 cooled by ``cooling_p`` after
        every loop, as ``run_lock`` anneals."""
        temps = [self.t0]
        for _ in range(self.m0 - 1):
            temps.append(temps[-1] * self.cooling_p)
        return temps


@dataclass(slots=True)
class LockTrace:
    """Per-iteration record of one locking run.

    Arrays are indexed by inner iteration, and row i is iteration i + 1.
    ``best_phases`` / ``best_intensity`` are the returned lock point: the
    highest reading, the initial one included, and the phases that gave it;
    ``best_iteration`` is the first iteration that reached it (0 for the
    initial reading); ``initial_sample`` is the initial ``(i_px, i_py)``.
    """

    temperature: np.ndarray
    step_rad: np.ndarray
    phases: np.ndarray            # (n, 4) applied stage phases
    i_px: np.ndarray
    i_py: np.ndarray
    er_db: np.ndarray
    accepted: np.ndarray
    best_phases: PhaseQuad
    best_intensity: float
    best_iteration: int
    initial_sample: tuple[float, float]

    def __len__(self) -> int:
        return len(self.i_px)

    @property
    def iteration(self) -> np.ndarray:
        """Iteration numbers, counted from 1 across the outer loops."""
        return np.arange(1, len(self) + 1, dtype=np.int64)

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


def _move(s_p, st: float, d, hi: float) -> tuple[float, float, float, float]:
    """The boundary-reflecting move of the 4-tuple s_p by step st, with r
    then u per component from the first eight of ``d``: move by +st*r at or
    below 0, by -st*r at or above ``hi``, and in the interior by +st*r if
    u < 0.5, else by -st*r; then clamp into [0, hi].  Unrolled, since the
    lock loop calls it on every iteration."""
    x1, x2, x3, x4 = s_p
    r = st * d[0]
    x1 = x1 + r if x1 <= 0.0 or (x1 < hi and d[1] < 0.5) else x1 - r
    r = st * d[2]
    x2 = x2 + r if x2 <= 0.0 or (x2 < hi and d[3] < 0.5) else x2 - r
    r = st * d[4]
    x3 = x3 + r if x3 <= 0.0 or (x3 < hi and d[5] < 0.5) else x3 - r
    r = st * d[6]
    x4 = x4 + r if x4 <= 0.0 or (x4 < hi and d[7] < 0.5) else x4 - r
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
    return _move(s_p, st, rng.random(8).tolist(), hi)


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


def run_lock(objective: Objective, cfg: AnnealConfig, tps: TpsParams,
             rng, schedule: StepSchedule = StepSchedule()) -> LockTrace:
    """Run the annealing lock and return its full trace.

    The search point starts with all four phases at half the span,
    ``tps.phase_max / 2``, and is evaluated once; then ``m0`` outer loops of
    ``n0`` inner iterations run, as one loop over ``cfg.temperature`` (the
    temperature is multiplied by ``cooling_p`` after each outer loop).  Each
    iteration looks up the step in ``schedule`` (the variable-step table
    unless given) from the gap 1 - (latest reading) as ``step_for_gap``
    does, moves all four phases within [0, phase_max] (``_move``), evaluates
    them (a plain 4-tuple), and applies ``accept``'s Metropolis rule against
    the latest reading.

    Stream contract: before the first evaluation, and never after, three
    blocks are drawn from ``rng`` whatever the device, channel and schedule,
    n being ``cfg.total_iterations``: uniforms (n, 9), row i - 1 holding r
    then u for stages 1-4 and the Metropolis uniform of iteration i; then
    standard normals (n + 1, 2), the noise of evaluation k in row k (k = 0
    the initial one), i_px's first; then standard normals (n, 3), the
    channel's.  Evaluation k calls ``objective(phases, noise_row, channel)``
    with the whole channel block, the same array on every call (a new block
    restarts ``DisturbedObjective``'s SOP sequence, whose evaluation k reads
    rows up to ``max(k - 1, 0)``), and unpacks the (i_px, i_py) pair.

    The loop records only each iteration's step, phases, reading and
    verdict; ``er_db`` and the lock point are derived from those once the
    loop ends, with the same values a per-iteration computation gives.
    """
    n_iter = cfg.total_iterations
    uniforms = rng.random((n_iter, 9)).tolist()
    noise = rng.standard_normal((n_iter + 1, 2)).tolist()
    channel = rng.standard_normal((n_iter, 3))

    hi = tps.phase_max
    state = initial_thetas = (hi / 2.0,) * 4

    i_ref, i_py = objective(state, noise[0], channel)
    initial_sample = (i_ref, i_py)

    e1, e2, e3 = _EDGES
    s0, s1, s2, s3 = schedule.steps
    exp = math.exp

    temperature = cfg.temperature
    cands, records = [], []  # the phases, and (step, i_px, i_py, verdict)
    for t, u, z in zip(temperature.tolist(), uniforms, islice(noise, 1, None)):
        gap = 1.0 - i_ref
        st = s0 if gap > e1 else s1 if gap > e2 else s2 if gap > e3 else s3
        cand = _move(state, st, u, hi)
        i_px, i_py = objective(cand, z, channel)
        ok = i_px >= i_ref or u[8] < exp((i_px - i_ref) / t)
        if ok:
            state = cand
        i_ref = i_px
        cands.append(cand)
        records.append((st, i_px, i_py, ok))

    table = np.fromiter(chain.from_iterable(records), float,
                        4 * n_iter).reshape(n_iter, 4)
    phases = np.fromiter(chain.from_iterable(cands), float,
                         4 * n_iter).reshape(n_iter, 4)
    # one array per field, so that a caller keeping a few fields does not
    # keep the whole table alive
    px, py = table[:, 1].copy(), table[:, 2].copy()
    # the lock point: the first of the highest readings, the initial one
    # included, i.e. where the running best (i_max) reaches its final value
    readings = np.concatenate((initial_sample[:1], px))
    best_iter = int(np.argmax(readings))
    best_thetas = (phases[best_iter - 1].tolist() if best_iter
                   else initial_thetas)
    return LockTrace(temperature, table[:, 0].copy(), phases, px, py,
                     _er_db_array(px, py), table[:, 3].astype(bool),
                     PhaseQuad(*best_thetas), float(readings[best_iter]),
                     best_iter, initial_sample)
