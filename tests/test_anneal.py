import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

from polarlock import (AnnealConfig, DeviceParams, DisturbanceModel,
                       JonesVector, PhaseQuad, StepSchedule, bind_objective,
                       dpc_transform, phase_step_to_voltage_step,
                       port_intensity, random_sop, run_lock)
from polarlock import anneal
from polarlock.anneal import accept, propose, step_for_gap
from polarlock.device import V_MAX, TpsParams
from polarlock.disturbance import DisturbedObjective

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


@pytest.mark.kernel_variant
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

@pytest.mark.kernel_variant
def test_propose_lower_boundary_moves_up():
    # at the lower boundary the move is +st*r regardless of the sign draw
    rng = FakeRng([0.5, 0.0] * 4)
    out = propose(PhaseQuad(*(0.0,) * 4), 0.16, rng)
    assert out == (0.08,) * 4


@pytest.mark.kernel_variant
def test_propose_upper_boundary_moves_down():
    rng = FakeRng([1.0, 0.9] * 4)
    out = propose(PhaseQuad(*(SPAN,) * 4), 0.16, rng)
    assert out == pytest.approx((SPAN - 0.16,) * 4)
    # the move is down whatever the sign draw
    rng = FakeRng([1.0, 0.1] * 4)
    out = propose(PhaseQuad(*(SPAN,) * 4), 0.16, rng)
    assert out == pytest.approx((SPAN - 0.16,) * 4)


@pytest.mark.kernel_variant
def test_propose_interior_signed_moves():
    rng = FakeRng([0.25, 0.9] * 4)  # u >= 0.5 selects the negative sign
    out = propose(PhaseQuad(*(math.pi,) * 4), 0.08, rng)
    assert out == pytest.approx((math.pi - 0.02,) * 4)
    rng = FakeRng([0.25, 0.1] * 4)
    out = propose(PhaseQuad(*(math.pi,) * 4), 0.08, rng)
    assert out == pytest.approx((math.pi + 0.02,) * 4)


def test_propose_stays_in_range():
    rng = np.random.default_rng(0)
    quad = PhaseQuad(*(SPAN / 2.0,) * 4)
    for _ in range(2000):
        quad = propose(quad, 0.16, rng)
        for theta in quad:
            assert 0.0 <= theta <= SPAN


def test_propose_clamps_interior_overshoot():
    # interior branch may overshoot by at most st before the clamp
    rng = FakeRng([1.0, 0.1] * 4)
    out = propose(PhaseQuad(*(SPAN - 0.01,) * 4), 0.16, rng)
    assert out == (SPAN,) * 4


def test_propose_rejects_negative_step():
    with pytest.raises(ValueError):
        propose(PhaseQuad(*(1.0,) * 4), -0.1, FakeRng([]))


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
        assert np.all(block == cfg.t0 * 0.5 ** outer)


@pytest.mark.kernel_variant
@pytest.mark.parametrize("t0", [1e-5, 1e-3])
def test_lock_verdicts_recompute_from_trace(t0):
    # every verdict of the loop, redone from the trace and the redrawn
    # uniform block: a better-or-equal reading passes, a worse one when the
    # block's ninth uniform is below exp((i_px - ref) / t), ref being the
    # previous reading.  math.exp, as the loop; at the paper's t0 = 1e-5 the
    # rule almost never decides, so only the t0 = 1e-3 case pins the
    # temperature in the exponent
    cfg = AnnealConfig(t0=t0)
    dev = DeviceParams()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        objective = bind_objective(random_sop(rng), dev, rng)
        redraw = np.random.default_rng(seed)
        random_sop(redraw)
        u = redraw.random((cfg.total_iterations, 9)).tolist()
        trace = run_lock(objective, cfg, dev.tps, rng)
        ref = trace.initial_sample[0]
        for i, (px, t) in enumerate(zip(trace.i_px.tolist(),
                                        cfg.temperature.tolist())):
            assert trace.accepted[i] == (
                px >= ref or u[i][8] < math.exp((px - ref) / t)), (seed, i)
            ref = px


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
    init = PhaseQuad(*(SPAN / 2.0,) * 4)
    u = dpc_transform(init)
    sop = u.dagger() @ JonesVector(1.0, 0.0)
    dev = DeviceParams(noise_sigma=0.0)
    rng = np.random.default_rng(15)
    trace = run_lock(bind_objective(sop, dev, rng), AnnealConfig(), TPS, rng)
    assert abs(trace.initial_er_db - 28.0) < 1e-6
    assert np.all(np.abs(trace.er_db - trace.initial_er_db) <= 2.0)


@pytest.mark.skipif(gc.get_threshold()[0] < 700,
                    reason="a generation-0 threshold below CPython's 700")
@pytest.mark.parametrize("model", [
    None, DisturbanceModel(kind="drift", drift_rate=0.01),
    DisturbanceModel(kind="jump", jump_at=250,
                     jump_magnitude=math.pi / 2)],
    ids=("static", "drift", "jump"))
def test_a_lock_runs_no_garbage_collection(model):
    # the loop's inputs are flat lists of floats, which the collector does
    # not track, so only the 500 candidate tuples and the trace count
    # towards the generation-0 threshold of 700
    rng = np.random.default_rng(17)
    sop, dev = random_sop(rng), DeviceParams()
    objective = (bind_objective(sop, dev, rng) if model is None else
                 DisturbedObjective(sop, dev, model, rng))
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        run_lock(objective, AnnealConfig(), dev.tps, rng)
    finally:
        gc.callbacks.remove(count)
    assert starts == []


@pytest.mark.parametrize("drawn_for", [11, 13])
def test_run_lock_rejects_draws_of_another_length(drawn_for):
    # zip would cut the loop at the shorter of the schedule and the columns
    rng = np.random.default_rng(3)
    sop, dev = random_sop(rng), DeviceParams()
    drawn = anneal._draw(rng, drawn_for)
    with pytest.raises(ValueError, match=f"{drawn_for} iterations, not 12"):
        run_lock(bind_objective(sop, dev, rng), AnnealConfig(m0=2, n0=6),
                 dev.tps, drawn)


def test_run_lock_fixed_zero_step_is_constant():
    _, objective, rng = _noiseless_objective(16)
    trace = run_lock(objective, AnnealConfig(), TPS, rng,
                     StepSchedule(0.0))
    assert np.all(trace.i_px == trace.i_px[0])
    assert np.all(trace.i_max == trace.i_max[0])


def test_voltage_domain_step_values():
    # phase steps quantize to volts at V_MAX, where the gain is largest
    def tick(st):
        return phase_step_to_voltage_step(st, V_MAX)
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
    {"t0": 0.0}, {"m0": 0}, {"n0": 0}, {"m0": -1}, {"n0": -1}, {"t0": -1e-5},
    # the last outer loop's temperature underflows to 0
    {"t0": 5e-324, "m0": 2}, {"t0": 1.7e308, "m0": 2100},
    {"m0": 1100, "n0": 1},
])
def test_anneal_config_validation(kwargs):
    with pytest.raises(ValueError):
        AnnealConfig(**kwargs)


@pytest.mark.parametrize("t0", [1e-5, 1.7e308])
def test_huge_m0_is_checked_in_constant_memory(t0):
    # the check stops at the first zero temperature, which halving reaches
    # within about 2,100 loops even from 1.7e308, the slowest start, so a
    # billion outer loops are never listed
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="temperature to 0.0;"):
            AnnealConfig(t0=t0, m0=10 ** 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_cooling_is_a_constant_halving():
    assert [f.name for f in dataclasses.fields(AnnealConfig)] == [
        "t0", "m0", "n0"]
    with pytest.raises(TypeError):
        AnnealConfig(cooling_p=0.5)
    for t0 in (1e-5, 1e-3):
        cfg = AnnealConfig(t0=t0)
        temps, t = [], t0
        for _ in range(cfg.m0):
            temps += [t] * cfg.n0
            t = t * 0.5
        assert cfg.temperature.tobytes() == np.array(temps).tobytes()


def test_temperature_schedule_is_one_read_only_array_per_config():
    cfg = AnnealConfig()
    with pytest.raises(ValueError):
        cfg.temperature[0] = 1.0
    assert AnnealConfig().temperature is cfg.temperature
    _, objective, rng = _noiseless_objective(18)
    assert run_lock(objective, AnnealConfig(), TPS, rng).temperature is (
        cfg.temperature)
    hot = AnnealConfig(t0=1e-3).temperature
    assert hot[0] == 1e-3 and cfg.temperature[0] == 1e-5
    # a sweep over configs keeps only the last few schedules
    for m0 in range(1, 20):
        AnnealConfig(m0=m0).temperature
    assert anneal._schedule.cache_info().currsize <= 4


def test_anneal_config_default_init_phase_is_half_span():
    sop, objective, rng = _noiseless_objective(19)
    trace = run_lock(objective, AnnealConfig(m0=1, n0=1), TPS, rng)
    # the initial evaluation happens at half the span on every stage
    start = bind_objective(sop, DeviceParams.ideal(), None)((SPAN / 2.0,) * 4)
    assert trace.initial_sample == start
