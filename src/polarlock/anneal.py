"""Locking algorithm: simulated annealing over the four stage phases with a
gap-driven variable step, boundary-reflecting proposals, proportional
cooling, fixed-step baselines, and an optional voltage-domain stepping mode.

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
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .device import (DetectorSample, PhaseQuad, TpsParams, DeviceParams,
                     measure, phase_step_to_voltage_step, voltage_to_phase,
                     phase_to_voltage)

#: objective protocol: phases in, one noisy detector reading pair out
Objective = Callable[[PhaseQuad], DetectorSample]

# intensities are clamped here before dB conversion in traces, so a reading
# noise-clipped to zero yields a large finite ER instead of an error
_DB_FLOOR = 1e-12


def _er_db(i_px: float, i_py: float) -> float:
    return 10.0 * math.log10(max(i_px, _DB_FLOOR) / max(i_py, _DB_FLOOR))


@dataclass(frozen=True, slots=True)
class StepSchedule:
    """Gap-threshold table mapping the intensity gap to a search step.

    ``entries`` is an ordered tuple of (gap_threshold, step_rad) pairs with
    strictly decreasing thresholds; a gap g selects the entry of the lowest
    bracket (next_threshold, threshold] containing it, and anything at or
    below the last threshold gets the last (smallest) step.  A single-entry
    table is the fixed-step variant.
    """

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("schedule needs at least one entry")
        if not all(math.isfinite(x) for entry in self.entries for x in entry):
            raise ValueError("schedule thresholds and steps must be finite")
        thresholds = [t for t, _ in self.entries]
        steps = [s for _, s in self.entries]
        if len(self.entries) > 1:
            if any(b >= a for a, b in zip(thresholds, thresholds[1:])):
                raise ValueError("gap thresholds must be strictly decreasing")
            if any(b >= a for a, b in zip(steps, steps[1:])):
                raise ValueError("steps must be strictly decreasing")
            if steps[-1] <= 0:
                raise ValueError("steps must be > 0")
        elif steps[0] < 0:
            raise ValueError("step must be >= 0")

    @classmethod
    def default(cls) -> "StepSchedule":
        """The four-bracket variable-step table (radians)."""
        return cls(((1.0, 0.16), (0.1, 0.08), (0.01, 0.03), (0.001, 0.008)))

    @classmethod
    def fixed(cls, st: float) -> "StepSchedule":
        return cls(((1.0, st),))


DEFAULT_SCHEDULE = StepSchedule.default()


def step_for_gap(i_st: float, schedule: StepSchedule) -> float:
    """Scheduled step for intensity gap ``i_st`` (clamped into [0, 1])."""
    return schedule.entries[_bracket(i_st, schedule.entries)][1]


def _bracket(i_st: float, entries) -> int:
    """Index of the schedule entry whose bracket holds the clamped gap."""
    gap = min(max(i_st, 0.0), 1.0)
    for k in range(len(entries) - 1):
        if gap > entries[k + 1][0]:
            return k
    return len(entries) - 1


@dataclass(frozen=True, slots=True)
class AnnealConfig:
    """Annealing loop parameters.

    Defaults: initial temperature 1e-5, 10 outer loops of 50 inner
    iterations, halving cooling, all four phases initialized to half the
    controllable span, variable-step schedule, phase-domain stepping.
    ``init_phase=None`` resolves to phase_max/2 at run time.
    """

    t0: float = 1e-5
    m0: int = 10
    n0: int = 50
    cooling_p: float = 0.5
    init_phase: float | None = None
    schedule: StepSchedule = DEFAULT_SCHEDULE
    mode: Literal["phase", "voltage"] = "phase"

    def __post_init__(self):
        if self.t0 <= 0:
            raise ValueError("t0 must be > 0")
        if self.m0 < 1 or self.n0 < 1:
            raise ValueError("m0 and n0 must be >= 1")
        if not 0.0 < self.cooling_p < 1.0:
            raise ValueError("cooling_p must lie in (0, 1)")
        if self.init_phase is not None and self.init_phase < 0:
            raise ValueError("init_phase must be >= 0")
        if self.mode not in ("phase", "voltage"):
            raise ValueError("mode must be 'phase' or 'voltage'")

    @property
    def total_iterations(self) -> int:
        return self.m0 * self.n0


@dataclass(slots=True)
class LockTrace:
    """Per-iteration record of one locking run.

    Arrays are indexed by inner iteration; ``iteration`` counts cumulatively
    from 1 across the outer loops.  ``i_max`` is the running best reading and
    ``best_phases`` / ``best_intensity`` the returned lock point (the phases
    at which the running best was set).
    """

    iteration: np.ndarray
    temperature: np.ndarray
    step_rad: np.ndarray
    phases: np.ndarray            # (n, 4) applied stage phases
    i_px: np.ndarray
    i_py: np.ndarray
    er_db: np.ndarray
    accepted: np.ndarray
    i_max: np.ndarray
    best_phases: PhaseQuad
    best_intensity: float
    best_iteration: int
    initial_sample: DetectorSample

    def __len__(self) -> int:
        return len(self.iteration)

    @property
    def initial_er_db(self) -> float:
        return _er_db(self.initial_sample.i_px, self.initial_sample.i_py)

    @property
    def final_er_db(self) -> float:
        return float(self.er_db[-1])


def propose(s_p: PhaseQuad, st: float, rng, phase_max: float = 3.0 * math.pi
            ) -> PhaseQuad:
    """Boundary-reflecting random proposal around ``s_p``.

    Per component, with fresh draws r ~ U[0, 1] and sign c in {-1, +1}: move
    by +st*r at or below the lower boundary 0, by -st*r at or above the
    upper boundary, and by c*st*r in the interior; the result is clamped
    into [0, phase_max].  Consumes exactly two scalar ``rng.random()`` draws
    per component, r then u, component by component.
    """
    if st < 0:
        raise ValueError("step must be >= 0")
    draws = [rng.random() for _ in range(8)]
    return PhaseQuad(*_reflect(s_p.as_tuple(), st, phase_max, draws))


def _reflect(values, st, hi, draws):
    """The proposal rule of ``propose`` on a 4-tuple, given its eight
    uniform draws in (r, u) order per component."""
    out = []
    pairs = iter(draws)
    for x, r, u in zip(values, pairs, pairs):
        if x <= 0.0:
            x = x + st * r
        elif x >= hi:
            x = x - st * r
        else:
            x = x + st * r if u < 0.5 else x - st * r
        if x < 0.0:
            x = 0.0
        elif x > hi:
            x = hi
        out.append(x)
    return tuple(out)


def accept(i_new: float, i_old: float, temperature: float, rng) -> bool:
    """Metropolis rule for maximization: improvements always pass, a worse
    reading passes with probability exp((i_new - i_old) / temperature)."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    if i_new >= i_old:
        return True
    return rng.random() < math.exp((i_new - i_old) / temperature)


def bind_objective(input_sop, params: DeviceParams, rng) -> Objective:
    """Close a device measurement over a fixed input SOP and rng stream."""
    def objective(phases: PhaseQuad) -> DetectorSample:
        return measure(input_sop, phases, params, rng)
    return objective


def run_lock(objective: Objective, cfg: AnnealConfig, tps: TpsParams,
             rng) -> LockTrace:
    """Run the annealing lock and return its full trace.

    The search point starts with all four phases at ``cfg.init_phase``
    (half the span by default) and is evaluated once; then ``m0`` outer
    loops of ``n0`` inner iterations run.  Each inner iteration looks up the
    step from the gap 1 - (latest reading), proposes a boundary-reflected
    move of all four components, evaluates it, and applies the Metropolis
    rule against the latest reading; the temperature is multiplied by
    ``cooling_p`` after each outer loop.  In voltage mode the search point
    lives in drive volts, each phase step is quantized to its voltage
    equivalent at v_max, and phases follow from the quadratic + linear
    heater calibration.

    Deterministic given the rng states of the controller and the objective.
    When both share one generator, as in the harness, each iteration draws
    from it in this order:

    1. the proposal: eight uniforms in one ``rng.random(8)``, r then u for
       stage 1, then stage 2, 3 and 4 (the same stream as eight scalar
       draws);
    2. the evaluation: the objective's own draws, e.g. a disturbance
       advance, then two normals for a noisy reading (i_px's first);
    3. the acceptance: one uniform, only when the reading is worse than the
       latest one.

    The initial evaluation draws as in step 2.
    """
    init_phase = cfg.init_phase if cfg.init_phase is not None else tps.phase_max / 2.0
    phase_mode = cfg.mode == "phase"
    if phase_mode:
        hi = tps.phase_max
        state = (min(init_phase, hi),) * 4
        applied = PhaseQuad(*state)
    else:
        hi = tps.v_max
        state = (phase_to_voltage(init_phase, tps),) * 4
        applied = PhaseQuad(*(voltage_to_phase(v, tps) for v in state))

    sample = objective(applied)
    initial_sample = sample
    i_ref = sample.i_px
    best_i = sample.i_px
    best_state = applied
    best_iter = 0

    # each schedule entry's step, and the step the search point moves by
    entries = cfg.schedule.entries
    steps = [st for _, st in entries]
    moves = steps if phase_mode else [
        phase_step_to_voltage_step(st, tps.v_max, tps) for st in steps]

    rows = []
    temperatures = []
    temperature = cfg.t0
    it = 0
    draw = rng.random
    for _ in range(cfg.m0):
        temperatures.append(temperature)
        for _ in range(cfg.n0):
            k = _bracket(1.0 - i_ref, entries)
            cand = _reflect(state, moves[k], hi, draw(8).tolist())
            if phase_mode:
                phases = PhaseQuad(*cand)
            else:
                phases = PhaseQuad(*(voltage_to_phase(v, tps) for v in cand))
            sample = objective(phases)
            i_px = sample.i_px
            ok = accept(i_px, i_ref, temperature, rng)
            if ok:
                state = cand
            i_ref = i_px
            it += 1
            if i_px > best_i:
                best_i = i_px
                best_state = phases
                best_iter = it
            rows.append((steps[k], *phases.as_tuple(), i_px, sample.i_py,
                         _er_db(i_px, sample.i_py), ok, best_i))
        temperature *= cfg.cooling_p

    # one array per field, so that a caller keeping a few fields does not
    # keep the whole table alive
    table = np.array(rows)
    col = lambda j: table[:, j].copy()
    return LockTrace(np.arange(1, it + 1, dtype=np.int64),
                     np.repeat(temperatures, cfg.n0), col(0),
                     table[:, 1:5].copy(), col(5), col(6), col(7),
                     table[:, 8].astype(bool), col(9), best_state, best_i,
                     best_iter, initial_sample)


def voltage_step_to_phase_step(dv: float, tps: TpsParams) -> float:
    """The phase step whose v_max quantization,
    ``phase_step_to_voltage_step(st, tps.v_max, tps)``, is exactly ``dv``."""
    return 2.0 * tps.c_slope * tps.v_max * dv / tps.resistance
