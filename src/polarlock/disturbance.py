"""Time-varying input polarization: static inputs, slow birefringence drift,
and abrupt scrambling jumps, plus the re-lock experiment built on them.

Disturbances are parameterized as rotations of the Stokes vector on the
Poincare sphere and realized as SU(2) elements acting on the Jones vector
(half-angle construction), since the extinction ratio is a Stokes-space
quantity.  They act on the input SOP, i.e. on the fiber before the chip.
"""

from __future__ import annotations

import math
from itertools import count, repeat

import numpy as np

from .anneal import AnnealConfig, LockTrace, _er_db_array, run_lock
from .device import DeviceParams, _check_field, _check_int, measure
from .jones import JonesVector, _frozen, _unit, _vector, random_sop


@_frozen
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
        _check_int(self, "jump_at")
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
    the SU(2) half-angle element [[c + a i, -d + b i], [d + b i, c - a i]]
    (c, s of angle / 2, (a, b, d) = s (n1, n2, n3)); preserves the norm.
    The SOP's parts rotate in real floats, bit for bit the complex product:
    each CPython product (p+qi)(u+vi) = (pu - qv) + (pv + qu)i and each sum
    is written out in its order, and a sign moves only where IEEE negation
    is exact, (-q)v == -(qv) and u - (-v) == u + v."""
    n1, n2, n3 = axis
    c = math.cos(0.5 * angle)
    s = math.sin(0.5 * angle)
    a, b, d = s * n1, s * n2, s * n3
    xr, xi, yr, yi = sop._parts
    return _vector(((c * xr - a * xi) + (-d * yr - b * yi),
                    (c * xi + a * xr) + (b * yr - d * yi),
                    (d * xr - b * xi) + (c * yr + a * yi),
                    (d * xi + b * xr) + (c * yi - a * yr)))


def _channel(sop: JonesVector, model: DisturbanceModel, block, rng):
    """Yield the input SOP of evaluation k = 0, 1, 2, ... of one lock.

    Row i is row i of the ``(n, 3)`` channel block, or, with no block, one
    ``rng.standard_normal(3)`` drawn when the row is read.  Drift yields the
    input, then, from the axis a = ``_unit(row 0)``, rotates by
    ``drift_rate`` about a, yields, and moves a to a + c/2 normalized for
    the next row c, over and over.  A jump yields the input ``jump_at``
    times, then, for good, the input rotated by ``jump_magnitude`` about
    ``_unit(row max(jump_at - 1, 0))``.  A static channel, or drift at rate
    0, repeats the input.  The axis is three Python floats, so the drift
    arithmetic is plain scalar IEEE and does not depend on the BLAS kernel.
    """
    def row(i):
        return (rng.standard_normal(3) if block is None else block[i]).tolist()

    if model.kind == "jump":
        yield from repeat(sop, model.jump_at)
        sop = rotate_sop(sop, _unit(row(max(model.jump_at - 1, 0))),
                         model.jump_magnitude)
    elif model.drift_rate:  # drift: no other kind may set a rate
        rows = map(row, count()) if block is None else zip(*block.T.tolist())
        yield sop
        x, y, z = _unit(next(rows))
        while True:
            sop = rotate_sop(sop, (x, y, z), model.drift_rate)
            yield sop
            dx, dy, dz = next(rows)
            x, y, z = x + 0.5 * dx, y + 0.5 * dy, z + 0.5 * dz
            n = math.sqrt(x * x + y * y + z * z)
            x, y, z = x / n, y / n, z / n
    yield from repeat(sop)


class DisturbedObjective:
    """Objective that measures, at evaluation k, the k-th SOP of the
    channel's sequence (``_channel``), then adds the noise as ``measure``
    does.  A call whose ``channel`` block is not the previous call's starts
    a new sequence from the input SOP, so each ``run_lock`` (its own view of
    the block) sees the channel from its start.  Bare calls continue one
    sequence that draws each row from ``rng`` before ``measure``'s own noise
    draw.  A static channel gives the trace of a plain bound objective.
    """

    def __init__(self, input_sop: JonesVector, params: DeviceParams,
                 model: DisturbanceModel, rng):
        self._input = input_sop
        self._params = params
        self._model = model
        self._rng = rng
        self._block = None
        self._sops = _channel(input_sop, model, None, rng)

    def __call__(self, phases, noise=None, channel=None
                 ) -> tuple[float, float]:
        if channel is not self._block:
            self._block = channel
            self._sops = _channel(self._input, self._model, channel, self._rng)
        # measure, like _channel's rotate_sop, stays a module-global lookup,
        # so that a wrapper patched onto this module (a tracer, a test's
        # counter) sees every call
        return measure(next(self._sops), phases, self._params, self._rng,
                       noise)


# samples in the trailing mean that re-lock scoring smooths the ER over
_WINDOW = 5
# smoothed ER (dB) below which re-lock scoring counts the lock as lost
_RECOVERY_DB = 20.0


def _smoothed_er_db(trace: LockTrace) -> np.ndarray:
    """ER of ``_WINDOW``-sample trailing-mean intensities; windows are
    truncated at the start.

    Averaging before the dB conversion keeps a single noise-clipped reading
    of the minimized port from masquerading as a huge extinction ratio.  dB
    come from ``_er_db_array``, which equals the scalar ``_er_db`` bit for
    bit, not from the host-dependent np.log10.
    """
    n = len(trace)
    counts = np.minimum(np.arange(1, n + 1), _WINDOW).astype(float)

    def trailing_mean(x):
        c = np.concatenate(([0.0], np.cumsum(x)))
        return (c[1:] - c[np.maximum(np.arange(n) + 1 - _WINDOW, 0)]) / counts

    return _er_db_array(trailing_mean(trace.i_px), trailing_mean(trace.i_py))


def relock_experiment(params: DeviceParams, cfg: AnnealConfig,
                      model: DisturbanceModel, rng,
                      input_sop: JonesVector | None = None,
                      ) -> tuple[LockTrace, int | None]:
    """Lock against a jumping channel and report how long re-locking took.

    Runs a full lock with the SOP jumping per ``model`` (a random input SOP
    is drawn from ``rng`` unless one is given).  Recovery is judged on the
    ER of 5-sample trailing-mean intensities, so isolated noise spikes
    neither signal nor veto a re-lock.  The returned count is the number of
    iterations past ``jump_at`` until that ER, having first dipped below
    20 dB within 5 iterations of the jump, is back at or above it: 0 if it
    did not dip there (never unlocked; a later dip is not the jump's), None
    if it never got back.  ``jump_at`` must lie below
    ``cfg.total_iterations``, so the jump happens within the run.
    """
    if model.kind != "jump":
        raise ValueError("relock_experiment needs a jump disturbance model")
    model.check_run_length(cfg.total_iterations)
    if input_sop is None:
        input_sop = random_sop(rng)
    objective = DisturbedObjective(input_sop, params, model, rng)
    trace = run_lock(objective, cfg, params.tps, rng)

    post = _smoothed_er_db(trace)[model.jump_at:]  # after jump_at
    return trace, _relock_count(post)


def _relock_count(post: np.ndarray) -> int | None:
    """``relock_experiment``'s count over ``post``, the smoothed ER from one
    iteration past the jump: a dip must start in its first ``_WINDOW``."""
    dips = np.nonzero(post[:_WINDOW] < _RECOVERY_DB)[0]
    if dips.size == 0:
        return 0
    hits = np.nonzero(post[dips[0]:] >= _RECOVERY_DB)[0]
    return None if hits.size == 0 else int(dips[0] + hits[0]) + 1
