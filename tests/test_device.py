import math

import numpy as np
import pytest

from polarlock import (AnnealConfig, DeviceParams, JonesVector, PhaseQuad,
                       TpsParams, bind_objective, dpc_transform, measure,
                       oracle_best, phase_step_to_voltage_step,
                       power_to_phase, random_sop, run_lock,
                       thermal_step_response, voltage_to_phase,
                       voltage_to_power)

TPS = TpsParams()
SQ2 = 1.0 / math.sqrt(2.0)


# --- electrical calibration -------------------------------------------------

def test_voltage_to_power_zero():
    assert voltage_to_power(0.0, TPS) == 0.0


def test_voltage_to_power_at_full_drive():
    # direct V^2/R: 100 / 1970 = 50.76 mW
    assert voltage_to_power(10.0, TPS) == pytest.approx(0.050761421319796954,
                                                        rel=1e-12)


def test_voltage_to_power_mid_drive():
    assert voltage_to_power(5.6, TPS) == pytest.approx(0.01591878172588832,
                                                       rel=1e-12)


@pytest.mark.parametrize("v", [-0.1, 10.01, 100.0])
def test_voltage_to_power_rejects_out_of_range(v):
    with pytest.raises(ValueError):
        voltage_to_power(v, TPS)


def test_power_to_phase_zero_power_gives_bias():
    assert power_to_phase(0.0, TPS) == 0.93


def test_power_to_phase_full_span():
    # 164.85 * 0.05056 + 0.93 = 9.2648 rad, just under the nominal 3*pi span
    theta = power_to_phase(0.05056, TPS)
    assert theta == pytest.approx(9.264816, rel=1e-12)
    assert abs(theta - 3.0 * math.pi) / (3.0 * math.pi) < 0.02


def test_power_to_phase_half_span():
    assert power_to_phase(0.02528, TPS) == pytest.approx(5.097408, rel=1e-12)


def test_power_to_phase_rejects_negative():
    with pytest.raises(ValueError):
        power_to_phase(-1e-6, TPS)


def test_calibrations_monotone():
    v = np.linspace(0.0, TPS.v_max, 200)
    p = np.array([voltage_to_power(x, TPS) for x in v])
    assert np.all(np.diff(p) > 0)
    theta = np.array([power_to_phase(x, TPS) for x in p])
    assert np.all(np.diff(theta) > 0)


def test_phase_step_to_voltage_step_values():
    # R dtheta / (2 c V); the 0.16 / 0.008 rad steps land within 5% of the
    # 0.1 V / 0.005 V drive ticks
    dv = phase_step_to_voltage_step(0.16, 10.0, TPS)
    assert dv == pytest.approx(0.09560206248104337, rel=1e-12)
    assert abs(dv - 0.1) / 0.1 < 0.05
    dv = phase_step_to_voltage_step(0.008, 10.0, TPS)
    assert dv == pytest.approx(0.004780103124052169, rel=1e-12)
    assert abs(dv - 0.005) / 0.005 < 0.05
    assert phase_step_to_voltage_step(0.16, 5.0, TPS) == pytest.approx(
        0.19120412496208675, rel=1e-12)


def test_phase_step_singular_at_zero_voltage():
    with pytest.raises(ValueError):
        phase_step_to_voltage_step(0.1, 0.0, TPS)


@pytest.mark.parametrize("dtheta", [0.01, 0.005])
def test_voltage_step_linearizes_phase_response(dtheta):
    # applying the returned dV at v = 8 V must move the phase by dtheta
    # within 2% relative error
    v = 8.0
    dv = phase_step_to_voltage_step(dtheta, v, TPS)
    got = voltage_to_phase(v + dv, TPS) - voltage_to_phase(v, TPS)
    assert abs(got - dtheta) / dtheta < 0.02


# --- cascade transform -------------------------------------------------------

def test_dpc_transform_identity_at_zero():
    m = dpc_transform(PhaseQuad(0.0, 0.0, 0.0, 0.0))
    assert m.m00 == 1.0 and m.m11 == 1.0 and m.m01 == 0.0 and m.m10 == 0.0


def test_dpc_transform_unitary():
    rng = np.random.default_rng(0)
    for _ in range(300):
        phases = PhaseQuad(*rng.uniform(0.0, TPS.phase_max, size=4))
        assert dpc_transform(phases).unitarity_defect() <= 1e-12


def test_dpc_transform_stage_order():
    # one stage at a time must reproduce the individual retarders
    from polarlock import make_m0, make_m45
    m = dpc_transform(PhaseQuad(1.1, 0.0, 0.0, 0.0))
    ref = make_m0(1.1)
    assert abs(m.m00 - ref.m00) <= 1e-15 and abs(m.m11 - ref.m11) <= 1e-15
    m = dpc_transform(PhaseQuad(0.0, 0.0, 0.0, 2.2))
    ref = make_m45(2.2)
    assert abs(m.m01 - ref.m01) <= 1e-15


def test_dpc_transform_reaches_circular_input():
    # the closed-form oracle finds a phase setting steering (1, i)/sqrt(2)
    # into the x port almost perfectly
    sop = JonesVector(SQ2, 1j * SQ2)
    best, _ = oracle_best(sop, DeviceParams.ideal())
    assert best >= 0.9999


# --- detector model ----------------------------------------------------------

def test_measure_symmetric_split():
    dev = DeviceParams(noise_sigma=0.0)
    i_px, i_py = measure(JonesVector(SQ2, SQ2), PhaseQuad(0, 0, 0, 0), dev,
                         rng=None)
    assert i_px == pytest.approx(0.5, abs=1e-15)
    assert i_py == pytest.approx(0.5, abs=1e-15)


def test_measure_floor_sets_static_extinction():
    dev = DeviceParams(noise_sigma=0.0)  # 28 dB floor
    i_px, i_py = measure(JonesVector(1.0, 0.0), PhaseQuad(0, 0, 0, 0), dev,
                         rng=None)
    assert i_px == pytest.approx(1.0, abs=1e-15)
    assert i_py == pytest.approx(0.001584893192461114, rel=1e-12)


def test_measure_noise_standard_deviation():
    # Monte-Carlo check: sample std of i_px within 10% of the configured sigma
    dev = DeviceParams()
    rng = np.random.default_rng(11)
    sop = JonesVector(SQ2, SQ2)
    phases = PhaseQuad(1.0, 2.0, 3.0, 4.0)
    vals = np.array([measure(sop, phases, dev, rng)[0]
                     for _ in range(10_000)])
    assert abs(vals.std(ddof=1) - 5e-4) / 5e-4 < 0.10


def test_measure_energy_conserved_without_floor_or_noise():
    dev = DeviceParams.ideal()
    rng = np.random.default_rng(12)
    for _ in range(100):
        i_px, i_py = measure(random_sop(rng),
                             PhaseQuad(*rng.uniform(0, TPS.phase_max, 4)),
                             dev, rng=None)
        assert abs(i_px + i_py - 1.0) <= 1e-12


def test_measure_noiseless_er_never_exceeds_floor():
    dev = DeviceParams(noise_sigma=0.0)
    rng = np.random.default_rng(13)
    for _ in range(200):
        i_px, i_py = measure(random_sop(rng),
                             PhaseQuad(*rng.uniform(0, TPS.phase_max, 4)),
                             dev, rng=None)
        er = 10.0 * math.log10(i_px / i_py)
        assert er <= 28.0 + 1e-9


def test_measure_noisy_device_requires_rng():
    with pytest.raises(ValueError, match="rng"):
        measure(JonesVector(1.0, 0.0), PhaseQuad(0, 0, 0, 0), DeviceParams(),
                rng=None)


def test_measure_deterministic_per_seed():
    dev = DeviceParams()
    sop = JonesVector(SQ2, SQ2)
    phases = PhaseQuad(0.5, 1.5, 2.5, 3.5)
    rng1 = np.random.default_rng(99)
    rng2 = np.random.default_rng(99)
    s1 = [measure(sop, phases, dev, rng1) for _ in range(200)]
    s2 = [measure(sop, phases, dev, rng2) for _ in range(200)]
    assert s1 == s2


@pytest.mark.parametrize("dev", [DeviceParams(), DeviceParams.ideal()],
                         ids=["noisy", "noiseless"])
def test_measure_readings_are_python_floats(dev):
    sample = measure(JonesVector(SQ2, SQ2), PhaseQuad(0.5, 1.5, 2.5, 3.5),
                     dev, np.random.default_rng(3))
    assert type(sample) is tuple and len(sample) == 2
    assert type(sample[0]) is float and type(sample[1]) is float
    assert repr(sample).count("np.") == 0


def test_measure_noisy_reading_draws_one_normal_pair():
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    measure(JonesVector(1.0, 0.0), PhaseQuad(0, 0, 0, 0), DeviceParams(), rng)
    ref.normal(size=2)
    assert rng.random() == ref.random()


# --- thermal step response ---------------------------------------------------

def _crossing_time(v_from, v_to, frac, t_hi=200e-6):
    """Bisection for the time at which the phase crosses ``frac`` of its
    swing; independent of the closed-form settling expression."""
    phi0 = voltage_to_phase(v_from, TPS)
    phi1 = voltage_to_phase(v_to, TPS)
    target = phi0 + frac * (phi1 - phi0)
    sign = 1.0 if phi1 >= phi0 else -1.0
    lo, hi = 0.0, t_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sign * (thermal_step_response(v_from, v_to, mid, TPS) - target) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_thermal_initial_and_steady_state():
    assert thermal_step_response(0.0, 5.6, 0.0, TPS) == pytest.approx(
        voltage_to_phase(0.0, TPS), rel=1e-12)
    assert thermal_step_response(0.0, 5.6, 1.0, TPS) == pytest.approx(
        voltage_to_phase(5.6, TPS), abs=1e-9)


def test_thermal_rise_time_10_90():
    t10 = _crossing_time(0.0, 5.6, 0.10)
    t90 = _crossing_time(0.0, 5.6, 0.90)
    assert (t90 - t10) == pytest.approx(11e-6, rel=1e-6)


def test_thermal_fall_time_10_90():
    t10 = _crossing_time(5.6, 0.0, 0.10)
    t90 = _crossing_time(5.6, 0.0, 0.90)
    assert (t90 - t10) == pytest.approx(5.9e-6, rel=1e-6)


def test_thermal_rejects_negative_time():
    with pytest.raises(ValueError):
        thermal_step_response(0.0, 5.6, -1e-9, TPS)


# --- parameter validation ----------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"resistance": 0.0}, {"c_slope": -1.0}, {"theta_bias": 7.0},
    {"v_max": 0.0}, {"phase_max": -1.0}, {"tau_rise": 0.0},
])
def test_tps_validation(kwargs):
    with pytest.raises(ValueError):
        TpsParams(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"static_er_db": 0.0}, {"noise_sigma": -1e-4},
    {"static_er_db": -3.0}, {"noise_sigma": -math.inf},
    {"noise_sigma": 1e295},
])
def test_device_validation(kwargs):
    with pytest.raises(ValueError):
        DeviceParams(**kwargs)


def test_noise_at_its_bound_keeps_every_er_finite():
    # a noise_sigma of 1e300 gives some of these locks an infinite ER
    dev = DeviceParams(noise_sigma=1e294)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        trace = run_lock(bind_objective(random_sop(rng), dev, rng),
                         AnnealConfig(m0=2, n0=10), dev.tps, rng)
        assert np.all(np.isfinite(trace.er_db))


@pytest.mark.parametrize("make, field, value", [
    (TpsParams, "resistance", math.nan),
    (TpsParams, "c_slope", math.inf),
    (TpsParams, "theta_bias", math.nan),
    (TpsParams, "v_max", math.inf),
    (TpsParams, "phase_max", math.nan),
    (TpsParams, "tau_rise", math.inf),
    (TpsParams, "tau_fall", math.nan),
    (DeviceParams, "static_er_db", math.nan),
    (DeviceParams, "static_er_db", math.inf),
    (DeviceParams, "noise_sigma", math.nan),
    (DeviceParams, "noise_sigma", math.inf),
    (AnnealConfig, "t0", math.inf),
    (AnnealConfig, "t0", math.nan),
    (AnnealConfig, "cooling_p", math.nan),
])
def test_non_finite_parameter_raises_naming_field(make, field, value):
    # the config file's parser rejects these too; a library caller must not
    # get a device or loop that silently drops a floor or noise
    with pytest.raises(ValueError, match=field):
        make(**{field: value})
