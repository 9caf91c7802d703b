"""Micro-timing table: microseconds per call of the public leaf functions,
each timed in isolation at representative seeded inputs, as the median of
repeated blocks after one warm-up block."""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from polarlock import anneal, device, disturbance, jones, oracle

_BLOCK_S = 0.02     # target duration of one timed block
_REPEATS = 7


def _us_per_call(fn, args, repeats: int, block_s: float) -> float:
    n = 1
    while True:  # calibrate; this block also serves as warm-up
        t0 = perf_counter()
        for _ in range(n):
            fn(*args)
        if perf_counter() - t0 >= block_s:
            break
        n *= 2
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(n):
            fn(*args)
        samples.append((perf_counter() - t0) / n)
    return 1e6 * statistics.median(samples)


def micro_table(seed: int, tiny: bool = False) -> dict[str, float]:
    """Metric name -> microseconds per call."""
    rng = np.random.default_rng(seed)
    params = device.DeviceParams()
    phase_max = params.tps.phase_max
    sop = jones.random_sop(rng)
    phases = device.PhaseQuad(*rng.uniform(0.0, phase_max, size=4))
    m_a, m_b = jones.make_m0(1.3), jones.make_m45(0.7)
    axis = (0.0, 0.6, 0.8)
    drift = disturbance.DisturbanceModel(kind="drift", drift_rate=0.01)
    objective = disturbance.DisturbedObjective(sop, params, drift, rng)
    schedule = anneal.StepSchedule.default()

    cases = {
        "device.measure_micro_us": (device.measure, (sop, phases, params, rng)),
        "device.dpc_transform_us": (device.dpc_transform, (phases,)),
        "anneal.propose_us": (anneal.propose, (phases, 0.08, rng, phase_max)),
        # a worse reading, so the rng draw and the exponential are timed
        "anneal.accept_us": (anneal.accept, (0.90, 0.91, 1e-2, rng)),
        "anneal.step_for_gap_us": (anneal.step_for_gap, (0.005, schedule)),
        "disturbance.objective_call_us": (objective, (phases,)),
        "disturbance.rotate_sop_us": (disturbance.rotate_sop,
                                      (sop, axis, 0.01)),
        "jones.random_sop_us": (jones.random_sop, (rng,)),
        "jones.make_m0_us": (jones.make_m0, (1.3,)),
        "jones.make_m45_us": (jones.make_m45, (1.3,)),
        "jones.matmul_us": (m_a.__matmul__, (m_b,)),
        "oracle.port_intensity_us": (oracle.port_intensity, (sop, phases)),
    }
    repeats = 3 if tiny else _REPEATS
    block_s = _BLOCK_S / 10 if tiny else _BLOCK_S
    return {name: _us_per_call(fn, args, repeats, block_s)
            for name, (fn, args) in cases.items()}
