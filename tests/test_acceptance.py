"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure next to its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s``.  The whole module takes
a few minutes; the ensemble and oracle fixtures are shared across tests.
"""

import math
import time

import numpy as np
import pytest

from polarlock import (AnnealConfig, DeviceParams, DisturbanceModel,
                       ExperimentConfig, JonesVector, PhaseQuad, StepSchedule,
                       bind_objective, dpc_transform, measure,
                       oracle_best, phase_step_to_voltage_step,
                       power_to_phase, random_sop, relock_experiment,
                       run_experiment, run_identity_checks, run_lock,
                       thermal_step_response, voltage_to_phase)
from polarlock.device import PHASE_SPAN


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def fig5_ensemble():
    """200 seeds x (variable, fixed 0.16, fixed 0.008) at the reference
    noise and extinction floor; the package defaults are exactly this
    experiment."""
    cfg = ExperimentConfig()
    assert cfg.trials == 200
    assert cfg.device.noise_sigma == 5e-4
    assert cfg.device.static_er_db == 28.0
    t0 = time.perf_counter()
    table = run_experiment(cfg)
    return table, time.perf_counter() - t0


@pytest.fixture(scope="module")
def oracle_controller_trials():
    """(oracle best, controller best) over 100 random SOPs, noiseless."""
    dev = DeviceParams.ideal()
    cfg = AnnealConfig()
    pairs = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        sop = random_sop(rng)
        best, _ = oracle_best(sop, dev)
        trace = run_lock(bind_objective(sop, dev, rng), cfg, dev.tps, rng)
        pairs.append((best, trace.best_intensity))
    return pairs


def test_c1_algebraic_identity_suite():
    t0 = time.perf_counter()
    checks = run_identity_checks()
    elapsed = time.perf_counter() - t0
    worst = max(c.defect for c in checks)
    ok = all(c.passed for c in checks) and elapsed < 1.0
    report("C1 algebraic identities", ok,
           f"max defect {worst:.2e} vs 1e-12, runtime {elapsed:.2f}s < 1s")


def test_c2_actuator_arithmetic():
    dv_big = phase_step_to_voltage_step(0.16, 10.0)
    dv_small = phase_step_to_voltage_step(0.008, 10.0)
    theta = power_to_phase(0.05056)
    ok = (abs(dv_big - 0.1) / 0.1 < 0.05
          and abs(dv_small - 0.005) / 0.005 < 0.05
          and abs(theta - 9.27) / 9.27 < 0.005
          and abs(theta - 3.0 * math.pi) / (3.0 * math.pi) < 0.02)
    report("C2 actuator arithmetic", ok,
           f"dV(0.16rad)={dv_big:.4f}V vs 0.1V, dV(0.008rad)={dv_small*1e3:.3f}mV "
           f"vs 5mV, theta(50.56mW)={theta:.3f}rad vs 3pi within 2%")


def test_c3_oracle_reachability_and_controller_optimality(
        oracle_controller_trials):
    oracle_vals = np.array([o for o, _ in oracle_controller_trials])
    ratios = np.array([c / o for o, c in oracle_controller_trials])
    n_good = int(np.sum(ratios >= 0.999))
    ok = bool(np.all(oracle_vals >= 1.0 - 1e-6)) and n_good >= 95
    report("C3 oracle optimality", ok,
           f"min oracle {oracle_vals.min():.9f} >= 1-1e-6, "
           f"controller >= 0.999*oracle in {n_good}/100 trials (need >= 95)")


def test_c4_step_strategy_reproduction(fig5_ensemble):
    table, elapsed = fig5_ensemble
    med_var = table.median_er_curve("variable")
    med_big = table.median_er_curve("fixed(0.16)")
    med_small = table.median_er_curve("fixed(0.008)")
    cross_var = table.first_crossing("variable")
    cross_small = table.first_crossing("fixed(0.008)")

    ok_a = cross_var is not None and cross_var <= 100
    ok_b = med_var[499] - med_big[499] >= 1.0
    ok_c = (med_var[99] - med_small[99] >= 3.0
            and (cross_small is None or cross_small >= 300))
    ok_time = elapsed < 60.0
    report("C4 step-strategy ensemble", ok_a and ok_b and ok_c and ok_time,
           f"variable crosses 25dB at iter {cross_var} (<=100); "
           f"iter500 medians var={med_var[499]:.2f} vs fixed0.16="
           f"{med_big[499]:.2f} (gap >= 1dB); iter100 var={med_var[99]:.2f} "
           f"vs fixed0.008={med_small[99]:.2f} (gap >= 3dB); "
           f"fixed0.008 crossing {cross_small} (>=300 or none); "
           f"runtime {elapsed:.1f}s < 60s")


def test_c4_convergence_ordering_property(fig5_ensemble):
    # ensemble medians: variable dominates both baselines at iteration 100,
    # and at iteration 500 within a 1 dB allowance
    table, _ = fig5_ensemble
    med_var = table.median_er_curve("variable")
    med_big = table.median_er_curve("fixed(0.16)")
    med_small = table.median_er_curve("fixed(0.008)")
    assert med_var[99] >= med_big[99]
    assert med_var[99] >= med_small[99]
    assert med_var[499] >= med_big[499] - 1.0
    assert med_var[499] >= med_small[499] - 1.0


def test_c4_summary_crossing_range(fig5_ensemble):
    # the emitted summary reports the 25 dB crossing near the ~100-iteration
    # mark for the variable schedule
    from polarlock import summarize
    table, _ = fig5_ensemble
    text = summarize(table)
    line = [l for l in text.splitlines()
            if l.startswith("variable.crossing_25db: ")][0]
    crossing = int(line.split(": ")[1])
    assert 50 <= crossing <= 200


def test_c5_extinction_ratio_ceiling():
    dev = DeviceParams(noise_sigma=0.0)
    rng = np.random.default_rng(50)

    worst_noiseless = -math.inf
    states = []
    for _ in range(200):
        sop = random_sop(rng)
        phases = PhaseQuad(*rng.uniform(0.0, PHASE_SPAN, size=4))
        states.append((sop, phases))
    for _ in range(30):  # aligned states sit exactly on the floor
        phases = PhaseQuad(*rng.uniform(0.0, PHASE_SPAN, size=4))
        sop = dpc_transform(phases).dagger() @ JonesVector(1.0, 0.0)
        states.append((sop, phases))
    for sop, phases in states:
        i_px, i_py = measure(sop, phases, dev, rng=None)
        worst_noiseless = max(worst_noiseless,
                              10.0 * math.log10(i_px / i_py))

    noisy = DeviceParams()
    worst_avg = -math.inf
    for sop, phases in states[-40:]:
        samples = [measure(sop, phases, noisy, rng) for _ in range(100)]
        mean_px = np.mean([i_px for i_px, _ in samples])
        mean_py = np.mean([i_py for _, i_py in samples])
        worst_avg = max(worst_avg, 10.0 * math.log10(mean_px / mean_py))

    ok = worst_noiseless <= 28.0 + 1e-9 and worst_avg <= 28.5
    report("C5 extinction-ratio ceiling", ok,
           f"noiseless max {worst_noiseless:.6f}dB <= 28+1e-9; "
           f"100-sample-averaged max {worst_avg:.3f}dB <= 28.5")


def _crossing_time(v_from, v_to, frac):
    phi0 = voltage_to_phase(v_from)
    phi1 = voltage_to_phase(v_to)
    target = phi0 + frac * (phi1 - phi0)
    sign = 1.0 if phi1 >= phi0 else -1.0
    lo, hi = 0.0, 500e-6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sign * (thermal_step_response(v_from, v_to, mid) - target) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_c6_thermal_transition_times():
    rise = _crossing_time(0.0, 5.6, 0.90) - _crossing_time(0.0, 5.6, 0.10)
    fall = _crossing_time(5.6, 0.0, 0.90) - _crossing_time(5.6, 0.0, 0.10)
    ok = abs(rise - 11e-6) / 11e-6 < 0.01 and abs(fall - 5.9e-6) / 5.9e-6 < 0.01
    report("C6 thermal response", ok,
           f"10-90% rise {rise*1e6:.3f}us vs 11us +-1%, "
           f"fall {fall*1e6:.3f}us vs 5.9us +-1%")


def test_c7_relock_after_quarter_turn_jump():
    model = DisturbanceModel(kind="jump", jump_at=250,
                             jump_magnitude=math.pi / 2.0)
    dev = DeviceParams()
    cfg = AnnealConfig()
    recovered = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        _, rec = relock_experiment(dev, cfg, model, rng)
        if rec is not None and rec <= 200:
            recovered += 1
    ok = recovered >= 90
    report("C7 re-lock", ok,
           f"recovered to >=20dB within 200 iterations in {recovered}/100 "
           f"seeds (need >= 90)")


def test_c8_end_to_end_determinism(tmp_path):
    cfg = ExperimentConfig(
        anneal=AnnealConfig(m0=4, n0=25),
        variants=(StepSchedule.default(), StepSchedule(0.16)),
        trials=4,
    )
    paths = [tmp_path / name for name in
             ("a.csv", "b.csv", "serial.csv", "parallel.csv")]
    run_experiment(cfg).write_csv(paths[0])
    run_experiment(cfg).write_csv(paths[1])
    run_experiment(cfg, max_workers=1).write_csv(paths[2])
    run_experiment(cfg, max_workers=4).write_csv(paths[3])
    same_rerun = paths[0].read_bytes() == paths[1].read_bytes()
    same_parallel = paths[2].read_bytes() == paths[3].read_bytes()
    ok = same_rerun and same_parallel
    report("C8 determinism", ok,
           f"rerun identical: {same_rerun}; parallel == serial: {same_parallel}")
