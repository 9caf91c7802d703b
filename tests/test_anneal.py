import math

import numpy as np
import pytest

from polarlock import (AnnealConfig, DeviceParams, JonesVector, PhaseQuad,
                       StepSchedule, TpsParams, accept, bind_objective,
                       dpc_transform, phase_step_to_voltage_step,
                       port_intensity, propose, random_sop, run_lock,
                       step_for_gap)
from polarlock import anneal

TPS = TpsParams()
SPAN = TPS.phase_max


class FakeRng:
    """Deterministic stand-in feeding scripted uniform draws."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size):
        return np.array([self._values.pop(0) for _ in range(size)])


# --- step schedule -----------------------------------------------------------

def test_step_schedule_default_table():
    st = StepSchedule.default()
    assert st.steps == (0.16, 0.08, 0.03, 0.008)
    assert anneal._EDGES == (0.1, 0.01, 0.001)


@pytest.mark.parametrize("gap,expected", [
    (0.5, 0.16),      # 0.1 < gap <= 1
    (1.0, 0.16),
    (0.1, 0.08),      # upper bracket edges are inclusive
    (0.05, 0.08),
    (0.01, 0.03),
    (0.002, 0.03),
    (0.001, 0.008),
    (0.0005, 0.008),
    (0.0, 0.008),
    (-0.3, 0.008),    # clamped: gap below 0 means at/above full intensity
    (1.7, 0.16),      # clamped from above
])
def test_step_for_gap(gap, expected):
    assert step_for_gap(gap, StepSchedule.default()) == expected


def test_step_for_gap_fixed_schedule():
    sched = StepSchedule(0.16)
    for gap in (0.0, 0.01, 0.5, 1.0):
        assert step_for_gap(gap, sched) == 0.16


@pytest.mark.parametrize("step", [math.nan, math.inf, -0.1])
def test_step_schedule_rejects_non_finite(step):
    with pytest.raises(ValueError, match="step must be a finite number"):
        StepSchedule(step)


def test_step_schedule_label():
    assert StepSchedule.default().label == "variable"
    assert StepSchedule(0.16).label == "fixed(0.16)"
    assert StepSchedule(0.1234567891).label == "fixed(0.123456789)"
    assert StepSchedule(-0.0).label == "fixed(0)"


def test_fixed_schedule_allows_zero_step():
    assert StepSchedule(0.0).steps == (0.0, 0.0, 0.0, 0.0)


# --- proposals ---------------------------------------------------------------

def test_propose_lower_boundary_moves_up():
    # at the lower boundary the move is +st*r regardless of the sign draw
    rng = FakeRng([0.5, 0.0] * 4)
    out = propose(PhaseQuad.uniform(0.0), 0.16, rng)
    assert out == (0.08,) * 4


def test_propose_upper_boundary_moves_down():
    rng = FakeRng([1.0, 0.9] * 4)
    out = propose(PhaseQuad.uniform(SPAN), 0.16, rng)
    assert out == pytest.approx((SPAN - 0.16,) * 4)
    # the move is down whatever the sign draw
    rng = FakeRng([1.0, 0.1] * 4)
    out = propose(PhaseQuad.uniform(SPAN), 0.16, rng)
    assert out == pytest.approx((SPAN - 0.16,) * 4)


def test_propose_interior_signed_moves():
    rng = FakeRng([0.25, 0.9] * 4)  # u >= 0.5 selects the negative sign
    out = propose(PhaseQuad.uniform(math.pi), 0.08, rng)
    assert out == pytest.approx((math.pi - 0.02,) * 4)
    rng = FakeRng([0.25, 0.1] * 4)
    out = propose(PhaseQuad.uniform(math.pi), 0.08, rng)
    assert out == pytest.approx((math.pi + 0.02,) * 4)


def test_propose_stays_in_range():
    rng = np.random.default_rng(0)
    quad = PhaseQuad.uniform(SPAN / 2.0)
    for _ in range(2000):
        quad = propose(quad, 0.16, rng)
        for theta in quad:
            assert 0.0 <= theta <= SPAN


def test_propose_clamps_interior_overshoot():
    # interior branch may overshoot by at most st before the clamp
    rng = FakeRng([1.0, 0.1] * 4)
    out = propose(PhaseQuad.uniform(SPAN - 0.01), 0.16, rng)
    assert out == (SPAN,) * 4


def test_propose_rejects_negative_step():
    with pytest.raises(ValueError):
        propose(PhaseQuad.uniform(1.0), -0.1, FakeRng([]))


# --- acceptance --------------------------------------------------------------

def test_accept_improvement_always():
    rng = np.random.default_rng(1)
    for _ in range(100):
        assert accept(0.5 + rng.random(), 0.5, 1e-5, rng)
    assert accept(0.5, 0.5, 1e-5, rng)  # ties pass


def test_accept_metropolis_probability():
    # delta = -1e-5 at T = 1e-5 gives acceptance probability exp(-1);
    # empirical rate over 1e5 draws within +-0.01
    rng = np.random.default_rng(2)
    n = 100_000
    hits = sum(accept(0.5 - 1e-5, 0.5, 1e-5, rng) for _ in range(n))
    assert abs(hits / n - 0.36787944117144233) < 0.01


def test_accept_deep_rejection():
    rng = np.random.default_rng(3)
    assert not any(accept(0.0, 1.0, 1e-5, rng) for _ in range(100_000))


def test_accept_rejects_bad_temperature():
    with pytest.raises(ValueError):
        accept(1.0, 0.0, 0.0, np.random.default_rng(0))


# --- lock runs ---------------------------------------------------------------

def _noiseless_objective(seed):
    rng = np.random.default_rng(seed)
    sop = random_sop(rng)
    return sop, bind_objective(sop, DeviceParams.ideal(), rng), rng


def test_run_lock_trace_shape_and_counters():
    sop, objective, rng = _noiseless_objective(10)
    cfg = AnnealConfig()
    trace = run_lock(objective, cfg, TPS, rng)
    assert len(trace) == cfg.total_iterations == 500
    assert np.array_equal(trace.iteration, np.arange(1, 501))
    assert trace.phases.shape == (500, 4)


def test_run_lock_best_is_monotone_and_reproducible():
    sop, objective, rng = _noiseless_objective(11)
    trace = run_lock(objective, AnnealConfig(), TPS, rng)
    assert np.all(np.diff(trace.i_max) >= 0.0)
    assert trace.i_max[-1] == trace.best_intensity
    # noiseless: re-evaluating the reported best phases reproduces it exactly
    assert port_intensity(sop, trace.best_phases) == pytest.approx(
        trace.best_intensity, abs=1e-12)
    # the best-iteration row is where the running best was set
    assert trace.i_px[trace.best_iteration - 1] == trace.best_intensity


def test_run_lock_temperature_schedule_exact():
    _, objective, rng = _noiseless_objective(12)
    cfg = AnnealConfig()
    trace = run_lock(objective, cfg, TPS, rng)
    for outer in range(cfg.m0):
        block = trace.temperature[outer * cfg.n0:(outer + 1) * cfg.n0]
        assert np.all(block == cfg.t0 * cfg.cooling_p ** outer)


def test_run_lock_deterministic():
    def one():
        rng = np.random.default_rng(13)
        sop = random_sop(rng)
        objective = bind_objective(sop, DeviceParams(), rng)
        return run_lock(objective, AnnealConfig(), TPS, rng)

    a, b = one(), one()
    assert np.array_equal(a.i_px, b.i_px)
    assert np.array_equal(a.er_db, b.er_db)
    assert np.array_equal(a.accepted, b.accepted)
    assert a.best_phases == b.best_phases


def test_run_lock_noisy_best_consistent_with_true_intensity():
    rng = np.random.default_rng(14)
    sop = random_sop(rng)
    dev = DeviceParams()
    trace = run_lock(bind_objective(sop, dev, rng), AnnealConfig(), TPS, rng)
    true_best = port_intensity(sop, trace.best_phases)
    assert true_best >= trace.best_intensity - 6.0 * dev.noise_sigma


def test_run_lock_already_locked_input_stays_locked():
    # input built so the initial phases already steer it onto the x port;
    # the run must hold the ER within 2 dB of its starting value
    init = PhaseQuad.uniform(SPAN / 2.0)
    u = dpc_transform(init)
    sop = u.dagger() @ JonesVector(1.0, 0.0)
    dev = DeviceParams(noise_sigma=0.0)
    rng = np.random.default_rng(15)
    trace = run_lock(bind_objective(sop, dev, rng), AnnealConfig(), TPS, rng)
    assert abs(trace.initial_er_db - 28.0) < 1e-6
    assert np.all(np.abs(trace.er_db - trace.initial_er_db) <= 2.0)


def test_run_lock_fixed_zero_step_is_constant():
    _, objective, rng = _noiseless_objective(16)
    trace = run_lock(objective, AnnealConfig(), TPS, rng,
                     StepSchedule(0.0))
    assert np.all(trace.i_px == trace.i_px[0])
    assert np.all(trace.i_max == trace.i_max[0])


def test_voltage_domain_step_values():
    # phase steps quantize to volts at v_max, where the gain is largest
    def tick(st):
        return phase_step_to_voltage_step(st, TPS.v_max, TPS)
    assert tick(0.008) == pytest.approx(0.004780103124052169, rel=1e-12)
    assert tick(0.16) == pytest.approx(0.09560206248104337, rel=1e-12)
    assert tick(0.0) == 0.0


def test_step_reopens_after_intensity_collapse():
    # the schedule keys off the latest reading, so a collapsed reading
    # re-enlarges the search step (what makes re-locking possible)
    sched = StepSchedule.default()
    assert step_for_gap(1.0 - 0.9995, sched) == 0.008
    assert step_for_gap(1.0 - 0.5, sched) == 0.16


@pytest.mark.parametrize("kwargs", [
    {"t0": 0.0}, {"m0": 0}, {"n0": 0}, {"cooling_p": 0.0},
    {"cooling_p": 1.0}, {"t0": -1e-5}, {"cooling_p": 1.5},
    {"cooling_p": 1e-200}, {"m0": 1100, "n0": 1},  # temperature underflows
])
def test_anneal_config_validation(kwargs):
    with pytest.raises(ValueError):
        AnnealConfig(**kwargs)


def test_anneal_config_default_init_phase_is_half_span():
    sop, objective, rng = _noiseless_objective(19)
    trace = run_lock(objective, AnnealConfig(m0=1, n0=1), TPS, rng)
    # the initial evaluation happens at half the span on every stage
    start = bind_objective(sop, DeviceParams.ideal(), None)((SPAN / 2.0,) * 4)
    assert trace.initial_sample == start
