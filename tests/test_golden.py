"""Golden bit-identity tests: SHA-256 digests of complete lock traces and of
the CSV artifacts for fixed seeds.

Any change to the arithmetic of the cascade, the order of rng draws, the
proposal rule, the trace bookkeeping or the CSV formatting changes a digest.
A deliberate change of output must update these digests and say why.
"""

import hashlib
import math
import struct

import numpy as np
import pytest

from polarlock import (AnnealConfig, DeviceParams, DisturbanceModel,
                       ExperimentConfig, StepSchedule, bind_objective,
                       random_sop, relock_experiment, run_experiment,
                       run_lock, summarize)
from polarlock.disturbance import DisturbedObjective

_TRACE_ARRAYS = ("iteration", "temperature", "step_rad", "phases", "i_px",
                 "i_py", "er_db", "accepted", "i_max")


def trace_digest(trace) -> str:
    """The iteration numbers counted from 1 and every array of the trace
    (dtype, shape and bytes), then the lock point and the initial reading
    as float64."""
    h = hashlib.sha256()
    for name in _TRACE_ARRAYS:
        arr = (np.arange(1, len(trace) + 1, dtype=np.int64)
               if name == "iteration"
               else np.ascontiguousarray(getattr(trace, name)))
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    h.update(struct.pack("<4d", *(float(x) for x in trace.best_phases)))
    h.update(struct.pack("<dq", float(trace.best_intensity),
                         int(trace.best_iteration)))
    h.update(struct.pack("<2d", *(float(x) for x in trace.initial_sample)))
    return h.hexdigest()


def _bound_run(seed: int, acfg: AnnealConfig):
    device = DeviceParams()
    rng = np.random.default_rng(seed)
    sop = random_sop(rng)
    return run_lock(bind_objective(sop, device, rng), acfg, device.tps, rng)


def test_golden_noisy_phase_mode():
    trace = _bound_run(11, AnnealConfig())
    assert trace_digest(trace) == (
        "376865e7662ac26e85088fa5ddaf59974e35401fbe8ac49c4192345aae389f39")


def test_golden_noisy_phase_mode_seed_30():
    # seed 30's input SOP has a sum of squares that a BLAS dot product
    # rounds differently on some kernels; the plain sum makes it one trace
    trace = _bound_run(30, AnnealConfig())
    assert trace_digest(trace) == (
        "576afc4baee6eed2cf179d2699ed72e2d2cfc8870b1d19ea6bcaddb7f2848c09")


def test_golden_drift_objective():
    device = DeviceParams()
    rng = np.random.default_rng(13)
    sop = random_sop(rng)
    model = DisturbanceModel(kind="drift", drift_rate=0.01)
    objective = DisturbedObjective(sop, device, model, rng)
    trace = run_lock(objective, AnnealConfig(), device.tps, rng)
    assert trace_digest(trace) == (
        "c9d885a8ea02b9f0696adb46df05ee69e72986669b688e5ba7d0a1990d8c6eb1")


def test_golden_relock_jump():
    model = DisturbanceModel(kind="jump", jump_at=250,
                             jump_magnitude=math.pi / 2.0)
    trace, recovery = relock_experiment(DeviceParams(), AnnealConfig(), model,
                                        np.random.default_rng(14))
    assert recovery == 52
    assert trace_digest(trace) == (
        "9f675921c424edd8b397df3b32766bbbe7189f3c790e945f88da03f9b3e51134")


@pytest.fixture(scope="module")
def small_table():
    cfg = ExperimentConfig(
        anneal=AnnealConfig(m0=3, n0=20),
        variants=(StepSchedule.default(), StepSchedule(0.16)),
        trials=4, base_seed=21)
    return run_experiment(cfg, max_workers=1)


def _file_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_rows_csv(small_table, tmp_path):
    path = tmp_path / "rows.csv"
    small_table.write_csv(str(path))
    assert _file_digest(path) == (
        "8ec597a7a84ae1293184658034c5e59347adb60ce6c808e3f313d02cad017167")


def test_golden_aggregate_csv(small_table, tmp_path):
    path = tmp_path / "aggregate.csv"
    small_table.write_aggregate_csv(str(path))
    assert _file_digest(path) == (
        "83f65b671f2cb1bad41fc062be0f8ac7d27f922385bff81a27f956ac73148724")


def test_golden_rows_csv_default_schedule(tmp_path):
    # the default config (10 x 50 iterations, the three default variants)
    # at 3 trials: every step and temperature the default run writes
    path = tmp_path / "rows.csv"
    run_experiment(ExperimentConfig(trials=3), max_workers=1).write_csv(
        str(path))
    assert _file_digest(path) == (
        "a45501caae56414b3c6d0fb5e4f8a5be6a144d5e83c64a9ff86345343a1666b9")


def test_golden_hot_temperature():
    # at the paper's t0 = 1e-5 the loop accepts about 0.1% of the readings
    # that fell, so the digests above barely read its Metropolis rule; at
    # 1e-3 it accepts about 9%, and the loop's temperature scaled by 1.001
    # moves this digest
    h = hashlib.sha256()
    for seed in range(20):
        trace = _bound_run(seed, AnnealConfig(t0=1e-3))
        for name in ("accepted", "phases"):
            arr = np.ascontiguousarray(getattr(trace, name))
            h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
            h.update(arr.tobytes())
    assert h.hexdigest() == (
        "a37d4eb0b64ea72f6f8e7900d46e2dda2fb39a5530fd038f17fd656eacaff55d")


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_summary(small_table):
    # both a crossing and a variant whose median never reaches 25 dB
    assert _text_digest(summarize(small_table)) == (
        "bdbc429de13f92d96e651aabea214d87baad0ba54a232ffb7fbd428c907cba32")


def test_golden_summary_default_schedule():
    table = run_experiment(ExperimentConfig(trials=3), max_workers=1)
    assert _text_digest(summarize(table)) == (
        "7a06625e113102bbe3298b2ba90e63ba847b956ea88d06d6ba05bcdf709ac327")
