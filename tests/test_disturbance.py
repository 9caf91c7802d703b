import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarlock import disturbance
from polarlock import (AnnealConfig, DeviceParams, DisturbanceModel,
                       JonesVector, PhaseQuad, bind_objective, random_sop,
                       relock_experiment, rotate_sop, run_lock, to_stokes)
from polarlock.disturbance import DisturbedObjective
from polarlock.jones import _unit


def stokes_unit(v: JonesVector) -> np.ndarray:
    s = to_stokes(v)
    return np.array([s.s1, s.s2, s.s3]) / s.s0


def rodrigues(s: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Independent Stokes-space rotation (right-hand rule)."""
    return (s * math.cos(angle) + np.cross(axis, s) * math.sin(angle)
            + axis * np.dot(axis, s) * (1.0 - math.cos(angle)))


def _record_rotations(monkeypatch):
    """Patch ``disturbance.rotate_sop`` to record each rotation's input SOP,
    axis and output SOP, in call order."""
    rotations = []

    def recording(sop, axis, angle):
        out = rotate_sop(sop, axis, angle)
        rotations.append((sop, axis, out))
        return out
    monkeypatch.setattr(disturbance, "rotate_sop", recording)
    return rotations


# --- rotations ----------------------------------------------------------------

def test_rotate_sop_matches_rodrigues():
    rng = np.random.default_rng(0)
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.0, math.pi)
        v = random_sop(rng)
        expected = rodrigues(stokes_unit(v), axis, angle)
        got = stokes_unit(rotate_sop(v, axis, angle))
        assert np.abs(expected - got).max() <= 1e-12


def test_rotate_sop_preserves_norm():
    rng = np.random.default_rng(1)
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        v = random_sop(rng)
        w = rotate_sop(v, axis, rng.uniform(0, math.pi))
        assert abs(w.norm() - 1.0) <= 1e-12


# --- disturbance model --------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"kind": "wobble"}, {"drift_rate": -0.1},
    {"jump_magnitude": -0.1}, {"jump_magnitude": 3.2}, {"jump_at": -1},
    # a parameter that its kind does not read
    {"drift_rate": 0.04}, {"kind": "jump", "drift_rate": 0.01},
    {"jump_at": 5}, {"kind": "drift", "jump_magnitude": 1.0},
])
def test_model_validation(kwargs):
    with pytest.raises(ValueError):
        DisturbanceModel(**kwargs)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
def test_model_rejects_bad_drift_rate(rate):
    with pytest.raises(ValueError, match="drift_rate"):
        DisturbanceModel(kind="drift", drift_rate=rate)


def test_drift_accumulation_is_bounded(monkeypatch):
    # 100 steps of 0.01 rad cannot move the state farther than 1 rad on the
    # sphere (triangle inequality on rotation angles)
    model = DisturbanceModel(kind="drift", drift_rate=0.01)
    rng = np.random.default_rng(5)
    v0 = random_sop(rng)
    objective = DisturbedObjective(v0, DeviceParams.ideal(), model, rng)
    rotations = _record_rotations(monkeypatch)
    phases = PhaseQuad(*(1.0,) * 4)
    for _ in range(101):  # evaluation 0 sees the undisturbed input
        objective(phases)
    v = rotations[-1][2]
    assert abs(v.norm() - 1.0) <= 1e-12
    dist = math.acos(np.clip(np.dot(stokes_unit(v0), stokes_unit(v)), -1, 1))
    assert dist <= 1.0 + 1e-9


def test_pi_jump_is_antipodal_for_orthogonal_axis():
    rng = np.random.default_rng(6)
    for _ in range(50):
        v = random_sop(rng)
        s = stokes_unit(v)
        # build an axis orthogonal to the state's Stokes vector
        helper = np.array([1.0, 0.0, 0.0])
        if abs(np.dot(helper, s)) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        axis = np.cross(s, helper)
        axis /= np.linalg.norm(axis)
        w = rotate_sop(v, axis, math.pi)
        assert np.dot(s, stokes_unit(w)) == pytest.approx(-1.0, abs=1e-9)


def test_pi_jump_dot_product_bounded_for_random_axis():
    rng = np.random.default_rng(7)
    for _ in range(100):
        v = random_sop(rng)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        w = rotate_sop(v, axis, math.pi)
        assert np.dot(stokes_unit(v), stokes_unit(w)) >= -1.0 - 1e-12


# --- disturbed objective / re-lock ---------------------------------------------

def test_static_disturbed_run_matches_plain_run():
    def run(use_disturbed):
        rng = np.random.default_rng(8)
        sop = random_sop(rng)
        dev = DeviceParams()
        if use_disturbed:
            objective = DisturbedObjective(sop, dev,
                                           DisturbanceModel(kind="static"), rng)
        else:
            objective = bind_objective(sop, dev, rng)
        return run_lock(objective, AnnealConfig(), dev.tps, rng)

    a, b = run(False), run(True)
    assert np.array_equal(a.i_px, b.i_px)
    assert np.array_equal(a.er_db, b.er_db)


def test_jump_applies_exactly_once_at_jump_at():
    dev = DeviceParams(noise_sigma=0.0)
    model = DisturbanceModel(kind="jump", jump_at=3, jump_magnitude=math.pi / 2)
    rng = np.random.default_rng(9)
    sop = random_sop(rng)
    objective = DisturbedObjective(sop, dev, model, rng)
    phases = PhaseQuad(*(1.0,) * 4)
    readings = [objective(phases)[0] for _ in range(6)]
    assert readings[0] == readings[1] == readings[2]
    assert readings[3] != readings[2]
    assert readings[3] == readings[4] == readings[5]


def test_relock_requires_jump_model():
    with pytest.raises(ValueError):
        relock_experiment(DeviceParams(), AnnealConfig(),
                          DisturbanceModel(kind="static"),
                          np.random.default_rng(0))


def test_relock_rejects_jump_past_run_length():
    cfg = AnnealConfig(m0=4, n0=25)
    model = DisturbanceModel(kind="jump", jump_at=cfg.total_iterations,
                             jump_magnitude=math.pi / 2)
    with pytest.raises(ValueError, match="jump_at"):
        relock_experiment(DeviceParams(), cfg, model,
                          np.random.default_rng(0))


def test_relock_zero_magnitude_never_unlocks():
    model = DisturbanceModel(kind="jump", jump_at=250, jump_magnitude=0.0)
    _, recovery = relock_experiment(DeviceParams(), AnnealConfig(), model,
                                    np.random.default_rng(10))
    assert recovery == 0


def test_relock_unreachable_threshold_returns_none():
    # a 15 dB splitter floor puts the ER ceiling below the 20 dB threshold
    model = DisturbanceModel(kind="jump", jump_at=250,
                             jump_magnitude=math.pi / 2)
    _, recovery = relock_experiment(DeviceParams(static_er_db=15.0),
                                    AnnealConfig(), model,
                                    np.random.default_rng(11))
    assert recovery is None


def test_relock_counts_from_the_dip():
    # a small jump dips the smoothed ER a few samples late; a sample still
    # above the threshold before that dip is not a recovery
    model = DisturbanceModel(kind="jump", jump_at=250, jump_magnitude=0.2)
    for seed in range(1000, 1020):
        trace, r = relock_experiment(DeviceParams(), AnnealConfig(), model,
                                     np.random.default_rng(seed))
        post = disturbance._smoothed_er_db(trace)[250:]
        if r is None:
            assert np.any(post < 20.0)
        elif r == 0:  # no dip starts within the 5-sample window
            assert np.all(post[:5] >= 20.0)
        else:
            assert post[r - 1] >= 20.0 and np.any(post[:r - 1] < 20.0)


def test_relock_ignores_a_dip_that_starts_after_the_window():
    # smoothed ER from one iteration after the jump; only a dip that starts
    # within the 5 samples whose window can hold the jump is the jump's
    late = np.array([23.0, 22.0, 21.0, 20.5, 20.1, 19.9, 19.0, 21.0])
    assert disturbance._relock_count(late) == 0
    assert disturbance._relock_count(late[1:]) == 7
    assert disturbance._relock_count(late[1:7]) is None
    assert disturbance._relock_count(late[:5]) == 0


def test_relock_recovers_from_quarter_turn():
    model = DisturbanceModel(kind="jump", jump_at=250,
                             jump_magnitude=math.pi / 2)
    trace, recovery = relock_experiment(DeviceParams(), AnnealConfig(), model,
                                        np.random.default_rng(12))
    assert recovery is not None and 0 < recovery <= 200
    # the jump must actually have unlocked the controller
    assert trace.er_db[250:252].min() < 20.0


# --- drift path ------------------------------------------------------------------

_DRIFT = DisturbanceModel(kind="drift", drift_rate=0.01)


def _drift_objective(seed):
    rng = np.random.default_rng(seed)
    sop = random_sop(rng)
    return DisturbedObjective(sop, DeviceParams(noise_sigma=0.0), _DRIFT,
                              rng), rng


def test_drift_draw_order_matches_reference_generator(monkeypatch):
    objective, rng = _drift_objective(15)
    rotations = _record_rotations(monkeypatch)
    ref = np.random.default_rng(15)
    random_sop(ref)
    phases = PhaseQuad(*(1.0,) * 4)

    objective(phases)  # evaluation 0 sees the undisturbed input
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rotations == []

    objective(phases)  # evaluation 1 draws the starting axis
    v = ref.normal(size=3)
    while math.sqrt(float(v @ v)) < 1e-12:
        v = ref.normal(size=3)
    x, y, z = v.tolist()
    n = math.sqrt(x * x + y * y + z * z)
    axis = (x / n, y / n, z / n)
    assert rotations[-1][1] == axis
    assert rng.bit_generator.state == ref.bit_generator.state

    for _ in range(20):  # each later evaluation draws exactly three normals
        objective(phases)
        dx, dy, dz = ref.normal(size=3).tolist()
        x, y, z = axis[0] + 0.5 * dx, axis[1] + 0.5 * dy, axis[2] + 0.5 * dz
        n = math.sqrt(x * x + y * y + z * z)
        axis = (x / n, y / n, z / n)
        assert rotations[-1][1] == axis
        assert rng.bit_generator.state == ref.bit_generator.state


def test_drift_start_axis_falls_back_without_redrawing(monkeypatch):
    class ZeroRng:
        draws = 0

        def standard_normal(self, size):
            self.draws += 1
            return np.zeros(size)

    rng = ZeroRng()
    objective = DisturbedObjective(JonesVector(1.0, 0.0),
                                   DeviceParams(noise_sigma=0.0), _DRIFT, rng)
    rotations = _record_rotations(monkeypatch)
    objective(PhaseQuad(*(1.0,) * 4))
    objective(PhaseQuad(*(1.0,) * 4))  # a zero row: the first axis stands in
    assert rotations[-1][1] == (1.0, 0.0, 0.0)
    assert rng.draws == 1


def test_jump_at_zero_rotates_on_the_preloop_evaluation(monkeypatch):
    dev = DeviceParams(noise_sigma=0.0)
    model = DisturbanceModel(kind="jump", jump_at=0, jump_magnitude=math.pi / 2)
    rng = np.random.default_rng(16)
    sop = random_sop(rng)
    objective = DisturbedObjective(sop, dev, model, rng)
    rotations = _record_rotations(monkeypatch)
    objective(PhaseQuad(*(1.0,) * 4))
    assert rotations[-1][2] != sop
    after = rotations[-1][2]
    objective(PhaseQuad(*(1.0,) * 4))
    assert rotations[-1][2] == after


# --- the channel block -------------------------------------------------------

@pytest.mark.parametrize("jump_at, row", [(0, 0), (5, 4)])
def test_jump_reads_only_its_row_of_the_channel_block(monkeypatch, jump_at,
                                                      row):
    # evaluation k reads row max(k - 1, 0) of run_lock's block; every other
    # row is NaN, so reading one would give a NaN axis
    rotations = _record_rotations(monkeypatch)
    cfg = AnnealConfig(m0=2, n0=5)
    block = np.full((cfg.total_iterations, 3), math.nan)
    block[row] = (0.3, -1.2, 0.4)
    model = DisturbanceModel(kind="jump", jump_at=jump_at,
                             jump_magnitude=math.pi / 2)
    objective = DisturbedObjective(JonesVector(1.0, 0.0),
                                   DeviceParams(noise_sigma=0.0), model, None)
    for _ in range(cfg.total_iterations + 1):
        objective(PhaseQuad(*(1.0,) * 4), None, block)
    assert [axis for _, axis, _ in rotations] == [_unit([0.3, -1.2, 0.4])]


class _RowPerEvaluation:
    """A lock objective that picks the channel row of each evaluation, row
    i - 1 for iteration i and row 0 for the initial one, and hands it to
    its ``DisturbedObjective`` through the bare-call path."""

    def __init__(self, sop, device, model):
        self._inner = DisturbedObjective(sop, device, model, self)
        self._k = 0
        self._row = None

    def standard_normal(self, size):  # the inner objective's bare draw
        return self._row

    def __call__(self, phases, noise, channel):
        self._row = channel[max(self._k - 1, 0)].copy()
        self._k += 1
        return self._inner(phases, noise)


@pytest.mark.parametrize("kind, params", [
    ("drift", {"drift_rate": 0.01}),
    ("jump", {"jump_at": 7, "jump_magnitude": math.pi / 2})])
def test_block_reading_equals_a_row_per_evaluation(kind, params):
    cfg = AnnealConfig(m0=3, n0=10)
    model = DisturbanceModel(kind=kind, **params)

    def trace(wrap):
        device = DeviceParams()
        rng = np.random.default_rng(31)
        sop = random_sop(rng)
        objective = (_RowPerEvaluation(sop, device, model) if wrap
                     else DisturbedObjective(sop, device, model, rng))
        return run_lock(objective, cfg, device.tps, rng)

    block, rows = trace(False), trace(True)
    for name in ("step_rad", "phases", "i_px", "i_py", "er_db", "accepted"):
        assert np.array_equal(getattr(block, name), getattr(rows, name))
    assert block.initial_sample == rows.initial_sample


@pytest.mark.parametrize("kind, params", [
    ("drift", {"drift_rate": 0.01}),
    ("jump", {"jump_at": 7, "jump_magnitude": math.pi / 2})])
def test_a_reused_objective_starts_each_lock_from_the_input(kind, params):
    # each run_lock draws a new channel block, and a new block restarts the
    # channel from the input SOP
    cfg = AnnealConfig(m0=3, n0=10)
    device = DeviceParams()
    model = DisturbanceModel(kind=kind, **params)
    sop = random_sop(np.random.default_rng(32))

    def lock(objective):
        return run_lock(objective, cfg, device.tps, np.random.default_rng(33))

    fresh = lock(DisturbedObjective(sop, device, model, None))
    reused = DisturbedObjective(sop, device, model, None)
    for trace in (lock(reused), lock(reused)):
        for name in ("step_rad", "phases", "i_px", "i_py", "er_db",
                     "accepted"):
            assert np.array_equal(getattr(trace, name), getattr(fresh, name))
        assert trace.initial_sample == fresh.initial_sample


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 63), st.integers(1, 200))
def test_drift_axis_stays_unit_and_rotation_keeps_norm(seed, advances):
    objective, _ = _drift_objective(seed)
    phases = PhaseQuad(*(1.0,) * 4)
    with pytest.MonkeyPatch.context() as monkeypatch:
        rotations = _record_rotations(monkeypatch)
        objective(phases)
        for _ in range(advances):
            objective(phases)
            before, axis, after = rotations[-1]
            assert abs(after.norm() - before.norm()) <= 1e-15
    assert len(axis) == 3 and all(type(c) is float for c in axis)
    x, y, z = axis
    assert abs(math.sqrt(x * x + y * y + z * z) - 1.0) <= 1e-15


def test_drift_calls_rotate_and_measure_through_module_globals(monkeypatch):
    # bench/tracing.py counts and times these two names on the module
    calls = {"rotate_sop": 0, "measure": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(disturbance, name,
                            counted(name, getattr(disturbance, name)))
    objective, _ = _drift_objective(17)
    for _ in range(10):
        objective(PhaseQuad(*(1.0,) * 4))
    assert calls == {"rotate_sop": 9, "measure": 10}


# --- re-lock scoring ----------------------------------------------------------

def test_smoothed_er_db_equals_scalar_log10_recomputation():
    # np.log10 may take a vectorized path that differs from libm in the last
    # bits, and recovery compares these values against a threshold, so they
    # must come from math.log10 on every host
    model = DisturbanceModel(kind="jump", jump_at=250,
                             jump_magnitude=math.pi / 2)
    trace, _ = relock_experiment(DeviceParams(), AnnealConfig(), model,
                                 np.random.default_rng(12))
    window = disturbance._WINDOW

    def running_sums(x):
        sums = [0.0]
        for v in x.tolist():
            sums.append(sums[-1] + v)
        return sums

    cx, cy = running_sums(trace.i_px), running_sums(trace.i_py)
    expected = []
    for i in range(len(trace)):
        lo = max(i + 1 - window, 0)
        px = max((cx[i + 1] - cx[lo]) / (i + 1 - lo), 1e-12)
        py = max((cy[i + 1] - cy[lo]) / (i + 1 - lo), 1e-12)
        expected.append(10.0 * math.log10(px / py))
    assert disturbance._smoothed_er_db(trace).tolist() == expected
