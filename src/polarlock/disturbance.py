"""Time-varying input polarization: static inputs, slow birefringence drift,
and abrupt scrambling jumps, plus the re-lock experiment built on them.

Disturbances are parameterized as rotations of the Stokes vector on the
Poincare sphere and realized as SU(2) elements acting on the Jones vector
(half-angle construction), since the extinction ratio is a Stokes-space
quantity.  They act on the input SOP, i.e. on the fiber before the chip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anneal import AnnealConfig, LockTrace, run_lock
from .device import DetectorSample, DeviceParams, PhaseQuad, measure
from .jones import JonesVector, random_sop


@dataclass(frozen=True, slots=True)
class DisturbanceModel:
    """What the channel does to the input SOP over the run.

    ``drift`` rotates the Stokes vector by ``drift_rate`` radians per
    iteration about a slowly wandering axis; ``jump`` applies one rotation
    of ``jump_magnitude`` at iteration ``jump_at``; ``static`` leaves the
    input untouched.
    """

    kind: str = "static"   # static | drift | jump
    drift_rate: float = 0.0
    jump_at: int = 0
    jump_magnitude: float = 0.0

    def __post_init__(self):
        if self.kind not in ("static", "drift", "jump"):
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if self.drift_rate < 0:
            raise ValueError("drift_rate must be >= 0")
        if not 0.0 <= self.jump_magnitude <= math.pi:
            raise ValueError("jump_magnitude must lie in [0, pi]")
        if self.jump_at < 0:
            raise ValueError("jump_at must be >= 0")

    def check_run_length(self, n_iter: int) -> None:
        """Raise ValueError if a jump model would jump at or after the last
        of ``n_iter`` iterations, i.e. never within the run."""
        if self.kind == "jump" and self.jump_at >= n_iter:
            raise ValueError(f"jump_at ({self.jump_at}) must be below the run "
                             f"length ({n_iter} iterations)")


def rotate_sop(sop: JonesVector, axis, angle: float) -> JonesVector:
    """Rotate a SOP on the Poincare sphere by ``angle`` about the unit axis
    (n1, n2, n3), right-hand rule in (s1, s2, s3) coordinates, by applying
    the SU(2) half-angle element; preserves the norm."""
    n1, n2, n3 = axis
    c = math.cos(0.5 * angle)
    s = math.sin(0.5 * angle)
    ex, ey = sop.ex, sop.ey
    return JonesVector(complex(c, s * n1) * ex + complex(-s * n3, s * n2) * ey,
                       complex(s * n3, s * n2) * ex + complex(c, -s * n1) * ey)


def _random_axis(rng) -> np.ndarray:
    v = rng.normal(size=3)
    n = math.sqrt(float(v @ v))
    while n < 1e-12:
        v = rng.normal(size=3)
        n = math.sqrt(float(v @ v))
    return v / n


class DisturbedObjective:
    """Objective whose input SOP evolves once per evaluation.

    Evaluation k corresponds to lock-trace iteration k (the pre-loop
    evaluation is k = 0 and sees the undisturbed input).  Drift advances the
    SOP on every subsequent evaluation about a random-walked axis; a jump
    model rotates it exactly once, on the evaluation whose index equals
    ``jump_at``.  Static models add no rng draws, so a run wired through
    this class is stream-identical to one using a plain bound objective.
    """

    def __init__(self, input_sop: JonesVector, params: DeviceParams,
                 model: DisturbanceModel, rng):
        self._sop = input_sop
        self._params = params
        self._model = model
        self._rng = rng
        self._calls = 0
        self._axis: np.ndarray | None = None

    @property
    def current_sop(self) -> JonesVector:
        return self._sop

    def __call__(self, phases: PhaseQuad) -> DetectorSample:
        self._advance()
        sample = measure(self._sop, phases, self._params, self._rng)
        self._calls += 1
        return sample

    def _advance(self) -> None:
        k = self._calls
        m = self._model
        if m.kind == "drift" and m.drift_rate > 0.0 and k > 0:
            if self._axis is None:
                self._axis = _random_axis(self._rng)
            else:
                step = self._axis + 0.5 * self._rng.normal(size=3)
                self._axis = step / math.sqrt(float(step @ step))
            self._sop = rotate_sop(self._sop, self._axis, m.drift_rate)
        elif m.kind == "jump" and k == m.jump_at:
            self._sop = rotate_sop(self._sop, _random_axis(self._rng),
                                   m.jump_magnitude)


def _smoothed_er_db(trace: LockTrace, window: int) -> np.ndarray:
    """ER of trailing-mean intensities; windows are truncated at the start.

    Averaging before the dB conversion keeps a single noise-clipped reading
    of the minimized port from masquerading as a huge extinction ratio.
    """
    w = max(int(window), 1)
    n = len(trace)
    counts = np.minimum(np.arange(1, n + 1), w).astype(float)

    def trailing_mean(x):
        c = np.concatenate(([0.0], np.cumsum(x)))
        return (c[1:] - c[np.maximum(np.arange(n) + 1 - w, 0)]) / counts

    px = np.maximum(trailing_mean(trace.i_px), 1e-12)
    py = np.maximum(trailing_mean(trace.i_py), 1e-12)
    return 10.0 * np.log10(px / py)


def relock_experiment(params: DeviceParams, cfg: AnnealConfig,
                      model: DisturbanceModel, rng,
                      recovery_db: float = 20.0,
                      recovery_window: int = 5,
                      input_sop: JonesVector | None = None,
                      ) -> tuple[LockTrace, int | None]:
    """Lock against a jumping channel and report how long re-locking took.

    Runs a full lock with the SOP jumping per ``model`` (a random input SOP
    is drawn from ``rng`` unless one is given).  Recovery is judged on the
    ER of ``recovery_window``-sample trailing-mean intensities, so isolated
    noise spikes neither signal nor veto a re-lock.  The returned count is
    the number of iterations past ``jump_at`` until that ER is back at or
    above ``recovery_db``: 0 if it never fell below the threshold after the
    jump (never unlocked), None if it never got back.  ``jump_at`` must lie
    below ``cfg.total_iterations``, so the jump happens within the run.
    """
    if model.kind != "jump":
        raise ValueError("relock_experiment needs a jump disturbance model")
    model.check_run_length(cfg.total_iterations)
    if input_sop is None:
        input_sop = random_sop(rng)
    objective = DisturbedObjective(input_sop, params, model, rng)
    trace = run_lock(objective, cfg, params.tps, rng)

    er = _smoothed_er_db(trace, recovery_window)
    post = er[trace.iteration > model.jump_at]
    if post.size == 0 or np.all(post >= recovery_db):
        return trace, 0
    hits = np.nonzero(post >= recovery_db)[0]
    if hits.size == 0:
        return trace, None
    return trace, int(hits[0]) + 1
