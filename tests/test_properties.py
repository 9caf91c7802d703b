"""Property tests of the lock kernel's invariants and of the numpy stream
identities its rng draw order relies on."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polarlock import (DeviceParams, JonesVector, PhaseQuad, StepSchedule,
                       dpc_transform, load_experiment_config, measure,
                       port_intensity, propose, step_for_gap)
from polarlock.config import KEYS
from polarlock.device import _cascade

_phase = st.floats(allow_nan=False, allow_infinity=False)
_component = st.floats(-1e100, 1e100)
_seed = st.integers(0, 2 ** 63)


@st.composite
def _sops(draw):
    return JonesVector(complex(draw(_component), draw(_component)),
                       complex(draw(_component), draw(_component)))


@st.composite
def _quads(draw, phase=_phase):
    return PhaseQuad(*(draw(phase) for _ in range(4)))


@given(_sops(), _quads())
def test_cascade_equals_matrix_chain_exactly(sop, phases):
    ref = dpc_transform(phases) @ sop
    assert _cascade(sop, phases) == (ref.ex, ref.ey)


@given(_sops(), _quads())
def test_port_intensity_matches_matrix_chain(sop, phases):
    ref = dpc_transform(phases) @ sop
    assert port_intensity(sop, phases) == ref.ex.real ** 2 + ref.ex.imag ** 2


@given(_sops(), _quads())
def test_ideal_measure_matches_matrix_chain(sop, phases):
    ref = dpc_transform(phases) @ sop
    sample = measure(sop, phases, DeviceParams.ideal(), None)
    assert sample.i_px == ref.ex.real * ref.ex.real + ref.ex.imag * ref.ex.imag
    assert sample.i_py == ref.ey.real * ref.ey.real + ref.ey.imag * ref.ey.imag


@given(_quads(st.floats(-1e6, 1e6)), st.floats(0.0, 1e6),
       st.floats(0.1, 100.0), _seed)
def test_propose_stays_in_range(start, step, phase_max, seed):
    out = propose(start, step, np.random.default_rng(seed), phase_max)
    assert all(0.0 <= x <= phase_max for x in out)


@given(_seed)
def test_block_uniforms_equal_scalar_uniforms(seed):
    block, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    assert block.random(8).tolist() == [scalar.random() for _ in range(8)]
    assert block.random() == scalar.random()


@given(_seed, st.floats(1e-12, 1e3))
def test_scalar_normals_equal_normal_pair(seed, sigma):
    pair, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = pair.normal(0.0, sigma, size=2).tolist()
    got = [scalar.normal(0.0, sigma), scalar.normal(0.0, sigma)]
    assert got == expected
    assert all(type(x) is float for x in got)
    assert pair.random() == scalar.random()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cascade_rejects_nonfinite_phase(bad):
    with pytest.raises(ValueError, match="finite"):
        _cascade(JonesVector(1.0, 0.0), PhaseQuad(0.1, 0.2, bad, 0.4))


@st.composite
def _schedules(draw):
    n = draw(st.integers(1, 5))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    # a multi-entry table needs positive steps, a single entry one >= 0
    step = st.floats(0.0, 1e6, exclude_min=n > 1)
    thresholds = draw(st.sets(finite, min_size=n, max_size=n))
    steps = draw(st.sets(step, min_size=n, max_size=n))
    return StepSchedule(tuple(zip(sorted(thresholds, reverse=True),
                                  sorted(steps, reverse=True))))


@given(_schedules(), st.floats(allow_nan=False), st.floats(allow_nan=False))
def test_step_for_gap_non_decreasing_in_gap(schedule, a, b):
    lo, hi = min(a, b), max(a, b)
    assert step_for_gap(lo, schedule) <= step_for_gap(hi, schedule)


_POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)
_NON_NEGATIVE = st.floats(0.0, allow_infinity=False)

# valid values of every float and int key, given defaults for the rest: the
# temperature bounds keep the last outer loop's temperature above 0 at the
# default cooling and m0, and phase_max holds the largest default step
_VALID = {
    "tps.resistance": _POSITIVE,
    "tps.c_slope": _POSITIVE,
    "tps.theta_bias": st.floats(0.0, 2.0 * math.pi, exclude_max=True),
    "tps.v_max": _POSITIVE,
    "tps.phase_max": st.floats(0.16, allow_infinity=False),
    "tps.tau_rise": _POSITIVE,
    "tps.tau_fall": _POSITIVE,
    "device.static_er_db": _POSITIVE,
    "device.noise_sigma": _NON_NEGATIVE,
    "device.coupling_loss_db": _NON_NEGATIVE,
    "device.on_chip_loss_db": _NON_NEGATIVE,
    "device.detector_saturation": _POSITIVE,
    "anneal.t0": st.floats(1e-300, allow_infinity=False),
    "anneal.m0": st.integers(1, 1000),
    "anneal.n0": st.integers(1, 10 ** 9),
    "anneal.cooling_p": st.floats(1e-30, 1.0, exclude_max=True),
    "anneal.init_phase": _NON_NEGATIVE,
    "disturbance.drift_rate": _NON_NEGATIVE,
    "disturbance.jump_at": st.integers(0, 10 ** 9),
    "disturbance.jump_magnitude": st.floats(0.0, math.pi),
    "experiment.trials": st.integers(1, 10 ** 9),
    "experiment.base_seed": st.integers(0, 2 ** 63),
}
_NUMERIC_KEYS = sorted(key for key, (_, _, parse) in KEYS.items()
                       if parse.__name__ in ("_float", "_float_or_none",
                                             "_int"))


@pytest.mark.parametrize("key", _NUMERIC_KEYS)
@given(data=st.data())
def test_config_override_sets_field_exactly(key, data):
    x = data.draw(_VALID[key])
    cfg = load_experiment_config(overrides={key: repr(x)})
    section, field, _ = KEYS[key]
    owner = {"tps": cfg.device.tps, "device": cfg.device,
             "anneal": cfg.anneal, "disturbance": cfg.disturbance,
             "experiment": cfg}[section]
    got = getattr(owner, field)
    assert got == x and repr(got) == repr(x)
