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

from .anneal import AnnealConfig, LockTrace, _er_db_array, run_lock
from .device import DeviceParams, _check_field, measure
from .jones import JonesVector, _unit, _vector, random_sop


@dataclass(frozen=True, slots=True)
class DisturbanceModel:
    """What the channel does to the input SOP over the run.

    ``drift`` rotates the Stokes vector by ``drift_rate`` radians per
    iteration about a slowly wandering axis; ``jump`` applies one rotation
    of ``jump_magnitude`` at iteration ``jump_at``; ``static`` leaves the
    input untouched.  A parameter that the kind does not read must be 0.
    """

    kind: str = "static"   # static | drift | jump
    drift_rate: float = 0.0
    jump_at: int = 0
    jump_magnitude: float = 0.0

    def __post_init__(self):
        if self.kind not in ("static", "drift", "jump"):
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        _check_field(self, "drift_rate", positive=False)
        if not 0.0 <= self.jump_magnitude <= math.pi:
            raise ValueError("jump_magnitude must lie in [0, pi]")
        if self.jump_at < 0:
            raise ValueError("jump_at must be >= 0")
        for name, kind in (("drift_rate", "drift"), ("jump_at", "jump"),
                           ("jump_magnitude", "jump")):
            if getattr(self, name) and self.kind != kind:
                raise ValueError(f"disturbance.{name} is read only when "
                                 f"disturbance.kind = {kind}, not {self.kind}")

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
    return _vector(complex(c, s * n1) * ex + complex(-s * n3, s * n2) * ey,
                   complex(s * n3, s * n2) * ex + complex(c, -s * n1) * ey)


class DisturbedObjective:
    """Objective whose input SOP evolves once per evaluation.

    Evaluation k corresponds to lock-trace iteration k (the pre-loop
    evaluation is k = 0), so one objective serves one lock.  Before
    measuring, it may read its channel row c of three standard normals, row
    ``max(k - 1, 0)`` of the ``(n, 3)`` block every ``run_lock`` evaluation
    passes (drift converts it once, a jump reads only its row); a bare call
    draws c as one ``rng.standard_normal(3)`` when it reads it:

    - drift (``drift_rate > 0``): nothing at k = 0, which sees the
      undisturbed input; at k = 1 the starting axis is ``_unit(c)``; at
      every later k the axis a becomes a + c/2 normalized.  The SOP is then
      rotated by ``drift_rate`` about the axis.
    - jump: only at k == ``jump_at`` (k = 0 included), the SOP is rotated
      once by ``jump_magnitude`` about ``_unit(c)``.
    - static, or drift at rate 0: nothing, so a run wired through this
      class gives the trace of a plain bound objective.

    The reading then adds the noise row, as ``measure`` does.  The axis is
    three Python floats, so the drift arithmetic is plain scalar IEEE and
    does not depend on the BLAS kernel.
    """

    def __init__(self, input_sop: JonesVector, params: DeviceParams,
                 model: DisturbanceModel, rng):
        self._sop = input_sop
        self._params = params
        self._rng = rng
        self._calls = 0
        self._axis: tuple[float, float, float] | None = None
        self._block = self._rows = None  # the channel block, and its rows
        self._drift = model.drift_rate if model.kind == "drift" else 0.0
        self._jump_at = model.jump_at if model.kind == "jump" else -1
        self._jump_magnitude = model.jump_magnitude

    @property
    def current_sop(self) -> JonesVector:
        return self._sop

    def __call__(self, phases, noise=None, channel=None
                 ) -> tuple[float, float]:
        k = self._calls
        self._calls = k + 1
        # measure and rotate_sop stay module-global lookups, so that a wrapper
        # patched onto this module (a tracer, a test's counter) sees every call
        drifting = self._drift and k
        if drifting:
            if channel is None:
                row = self._rng.standard_normal(3).tolist()  # a bare call
            else:
                if channel is not self._block:
                    self._block, self._rows = channel, channel.tolist()
                row = self._rows[k - 1]
            axis = self._axis
            if axis is None:
                axis = _unit(row)
            else:
                x, y, z = axis
                dx, dy, dz = row
                x += 0.5 * dx
                y += 0.5 * dy
                z += 0.5 * dz
                n = math.sqrt(x * x + y * y + z * z)
                axis = (x / n, y / n, z / n)
            self._axis = axis
            self._sop = rotate_sop(self._sop, axis, self._drift)
        elif k == self._jump_at:
            row = (self._rng.standard_normal(3) if channel is None
                   else channel[max(k - 1, 0)]).tolist()
            self._sop = rotate_sop(self._sop, _unit(row), self._jump_magnitude)
        return measure(self._sop, phases, self._params, self._rng, noise)


# samples in the trailing mean that re-lock scoring smooths the ER over
_WINDOW = 5


def _smoothed_er_db(trace: LockTrace, window: int) -> np.ndarray:
    """ER of trailing-mean intensities; windows are truncated at the start.

    Averaging before the dB conversion keeps a single noise-clipped reading
    of the minimized port from masquerading as a huge extinction ratio.  dB
    come from ``_er_db_array``, which equals the scalar ``_er_db`` bit for
    bit, not from the host-dependent np.log10.
    """
    w = max(int(window), 1)
    n = len(trace)
    counts = np.minimum(np.arange(1, n + 1), w).astype(float)

    def trailing_mean(x):
        c = np.concatenate(([0.0], np.cumsum(x)))
        return (c[1:] - c[np.maximum(np.arange(n) + 1 - w, 0)]) / counts

    return _er_db_array(trailing_mean(trace.i_px), trailing_mean(trace.i_py))


def relock_experiment(params: DeviceParams, cfg: AnnealConfig,
                      model: DisturbanceModel, rng,
                      recovery_db: float = 20.0,
                      input_sop: JonesVector | None = None,
                      ) -> tuple[LockTrace, int | None]:
    """Lock against a jumping channel and report how long re-locking took.

    Runs a full lock with the SOP jumping per ``model`` (a random input SOP
    is drawn from ``rng`` unless one is given).  Recovery is judged on the
    ER of 5-sample trailing-mean intensities, so isolated noise spikes
    neither signal nor veto a re-lock.  The returned count is the number of
    iterations past ``jump_at`` until that ER, having first dipped below the
    finite ``recovery_db`` within 5 iterations of the jump, is back at or
    above it: 0 if it did not dip there (never unlocked; a later dip is not
    the jump's), None if it never got back.  ``jump_at`` must lie below
    ``cfg.total_iterations``, so the jump happens within the run.
    """
    if model.kind != "jump":
        raise ValueError("relock_experiment needs a jump disturbance model")
    if not math.isfinite(recovery_db):
        raise ValueError(f"recovery_db must be finite, got {recovery_db!r}")
    model.check_run_length(cfg.total_iterations)
    if input_sop is None:
        input_sop = random_sop(rng)
    objective = DisturbedObjective(input_sop, params, model, rng)
    trace = run_lock(objective, cfg, params.tps, rng)

    post = _smoothed_er_db(trace, _WINDOW)[model.jump_at:]  # after jump_at
    return trace, _relock_count(post, recovery_db)


def _relock_count(post: np.ndarray, recovery_db: float) -> int | None:
    """``relock_experiment``'s count over ``post``, the smoothed ER from one
    iteration past the jump: a dip must start in its first ``_WINDOW``."""
    dips = np.nonzero(post[:_WINDOW] < recovery_db)[0]
    if dips.size == 0:
        return 0
    hits = np.nonzero(post[dips[0]:] >= recovery_db)[0]
    return None if hits.size == 0 else int(dips[0] + hits[0]) + 1
