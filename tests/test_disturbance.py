import math

import numpy as np
import pytest

from polarlock import (AnnealConfig, DeviceParams, DisturbanceModel,
                       DisturbedObjective, JonesVector, PhaseQuad,
                       bind_objective, random_sop,
                       relock_experiment, rotate_sop, run_lock, to_stokes)


def stokes_unit(v: JonesVector) -> np.ndarray:
    return to_stokes(v).unit()


def rodrigues(s: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Independent Stokes-space rotation (right-hand rule)."""
    return (s * math.cos(angle) + np.cross(axis, s) * math.sin(angle)
            + axis * np.dot(axis, s) * (1.0 - math.cos(angle)))


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
])
def test_model_validation(kwargs):
    with pytest.raises(ValueError):
        DisturbanceModel(**kwargs)


def test_drift_accumulation_is_bounded():
    # 100 steps of 0.01 rad cannot move the state farther than 1 rad on the
    # sphere (triangle inequality on rotation angles)
    model = DisturbanceModel(kind="drift", drift_rate=0.01)
    rng = np.random.default_rng(5)
    v0 = random_sop(rng)
    objective = DisturbedObjective(v0, DeviceParams.ideal(), model, rng)
    phases = PhaseQuad.uniform(1.0)
    for _ in range(101):  # evaluation 0 sees the undisturbed input
        objective(phases)
    v = objective.current_sop
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
    phases = PhaseQuad.uniform(1.0)
    readings = [objective(phases).i_px for _ in range(6)]
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
    # 40 dB sits above the 28 dB hardware ceiling
    model = DisturbanceModel(kind="jump", jump_at=250,
                             jump_magnitude=math.pi / 2)
    _, recovery = relock_experiment(DeviceParams(), AnnealConfig(), model,
                                    np.random.default_rng(11),
                                    recovery_db=40.0)
    assert recovery is None


def test_relock_recovers_from_quarter_turn():
    model = DisturbanceModel(kind="jump", jump_at=250,
                             jump_magnitude=math.pi / 2)
    trace, recovery = relock_experiment(DeviceParams(), AnnealConfig(), model,
                                        np.random.default_rng(12))
    assert recovery is not None and 0 < recovery <= 200
    # the jump must actually have unlocked the controller
    assert trace.er_db[250:252].min() < 20.0
