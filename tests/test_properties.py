"""Property tests of the lock kernel's invariants and of the numpy stream
identities its rng draw order relies on."""

import contextlib
import dataclasses
import functools
import io
import locale
import math
import os
import tempfile
from itertools import count
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from polarlock import (AnnealConfig, DeviceParams, DisturbanceModel,
                       ExperimentConfig, JonesVector, PhaseQuad, StepSchedule,
                       bind_objective, dpc_transform,
                       load_experiment_config, measure, port_intensity,
                       random_sop, rotate_sop, run_lock)
from polarlock import cli
from polarlock.anneal import (_STEPS, _draw, _er_db, _er_db_array, _move,
                              _signed, propose, step_for_gap)
from polarlock.disturbance import DisturbedObjective
from polarlock.config import KEYS
from polarlock.device import PHASE_SPAN, TpsParams
from polarlock.harness import (_NUMBER, _WORD, ResultsTable, _g9_words,
                               run_experiment)
from polarlock.jones import _unit
from reference import (_FIELDS, _four_product_cascade, _move_reference,
                       _reference_aggregate_csv, _reference_cascade,
                       _reference_measure, _reference_rotate_sop,
                       _reference_rows_csv, _reference_run_lock,
                       _reference_step)

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
    assert _reference_cascade(sop, phases) == (ref.ex, ref.ey)


# phases where a sine or cosine of the half phase is exactly 0 or 1, or
# nearly so, beside arbitrary finite ones
_EDGE_PHASES = (0.0, -0.0, math.pi / 2, math.pi, 2 * math.pi, 3 * math.pi,
                -math.pi, 5e-324, 1e-300)


@given(_sops(), _quads(st.sampled_from(_EDGE_PHASES) | _phase))
def test_cascade_second_row_equals_four_product_reference(sop, phases):
    # _reference_cascade derives the second row from the first (special
    # unitary); only the sign of a zero may differ, and == does not see it
    assert (_reference_cascade(sop, phases)
            == _four_product_cascade(sop, phases))


_DEVICES = (DeviceParams.ideal(), DeviceParams(noise_sigma=0.0),
            DeviceParams())


@pytest.mark.kernel_variant
@pytest.mark.parametrize("device", _DEVICES, ids=("ideal", "floor", "noisy"))
@given(sop=_sops(), phases=_quads(st.sampled_from(_EDGE_PHASES) | _phase),
       noise=st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)))
@example(sop=JonesVector(0.6, 0.8j), phases=PhaseQuad(0.0, 0.0, 0.0, 0.0),
         noise=(0.0, 0.0))
@example(sop=JonesVector(0.6, 0.8j), phases=PhaseQuad(*(PHASE_SPAN,) * 4),
         noise=(0.5, -0.5))
@example(sop=JonesVector(complex(-0.0, 0.6), complex(0.8, -0.0)),
         phases=PhaseQuad(0.1, 0.2, 0.3, 0.4), noise=(-1.0, 1.0))
@example(sop=JonesVector(complex(0.6, 0.0), complex(0.0, 0.8)),
         phases=PhaseQuad(0.1 + 2 * math.pi, 0.2, 0.3 - 2 * math.pi, 0.4),
         noise=(2.0, -3.0))
def test_measure_equals_complex_reference_bit_for_bit(device, sop, phases,
                                                      noise):
    # SOPs up to 1e100 a component keep the port powers finite, where the
    # reference and measure both read; the noise row is the one a lock
    # passes, and a noiseless device ignores it
    got = measure(sop, phases, device, None, noise)
    want = _reference_measure(sop, phases, device, None, noise)
    assert all(type(x) is float for x in got)
    assert _bits(got) == _bits(want)


_signed_component = st.sampled_from((0.0, -0.0)) | _component


@st.composite
def _rotations(draw):
    """(sop, axis, angle): an unnormalized SOP whose parts may be signed
    zeros, or a random_sop draw; a unit or a non-unit axis, whose
    components may be signed zeros too; an angle in [-2 pi, 2 pi]."""
    if draw(st.booleans()):
        sop = random_sop(np.random.default_rng(draw(_seed)))
    else:
        sop = JonesVector(
            complex(draw(_signed_component), draw(_signed_component)),
            complex(draw(_signed_component), draw(_signed_component)))
    axis = [draw(st.sampled_from((0.0, -0.0)) | st.floats(-10.0, 10.0))
            for _ in range(3)]
    if draw(st.booleans()):
        axis = _unit(axis)
    angle = draw(st.sampled_from((0.0, -0.0, math.pi, -math.pi))
                 | st.floats(-2.0 * math.pi, 2.0 * math.pi))
    return sop, tuple(axis), angle


@pytest.mark.kernel_variant
@given(_rotations())
@example((JonesVector(complex(-0.0, 0.0), complex(0.0, -0.0)),
          (0.0, -0.0, 1.0), 0.0))
@example((JonesVector(complex(0.6, -0.0), complex(-0.0, 0.8)),
          (-0.0, 0.0, -0.0), math.pi))
@example((JonesVector(complex(-0.0, -0.0), complex(-0.0, -0.0)),
          (1.0, 1.0, 1.0), -2.0 * math.pi))
def test_rotate_equals_complex_reference_bit_for_bit(rotation):
    sop, axis, angle = rotation
    e_x, e_y = _reference_rotate_sop(sop, axis, angle)
    got = rotate_sop(sop, axis, angle)
    assert all(type(x) is float for x in got._parts)
    assert _bits(got._parts) == _bits((e_x.real, e_x.imag,
                                       e_y.real, e_y.imag))


@pytest.mark.kernel_variant
def test_random_sop_equals_complex_reference():
    # random_sop stores _unit's tuple; it built complex(a, b), complex(c, d)
    for seed in range(1000):
        a, b, c, d = _unit(np.random.default_rng(seed).normal(size=4)
                           .tolist())
        e_x, e_y = complex(a, b), complex(c, d)
        got = random_sop(np.random.default_rng(seed))
        assert _bits(got._parts) == _bits((e_x.real, e_x.imag,
                                           e_y.real, e_y.imag))


@given(_sops(), _quads())
# here x ** 2 (glibc pow) and x * x round |out_x|^2 one bit apart
@example(JonesVector(complex(-0.377895113124183, -0.4681392957654845),
                     complex(-0.7350941338882376, -0.31253399424727996)),
         PhaseQuad(1.6036808864520427, 0.46624315369871205,
                   9.091677228237652, 1.3170135298017456))
def test_port_intensity_matches_matrix_chain(sop, phases):
    ref = dpc_transform(phases) @ sop
    assert (port_intensity(sop, phases)
            == ref.ex.real * ref.ex.real + ref.ex.imag * ref.ex.imag)


@given(_sops(), _quads())
def test_ideal_measure_matches_matrix_chain(sop, phases):
    ref = dpc_transform(phases) @ sop
    i_px, i_py = measure(sop, phases, DeviceParams.ideal(), None)
    assert i_px == ref.ex.real * ref.ex.real + ref.ex.imag * ref.ex.imag
    assert i_py == ref.ey.real * ref.ey.real + ref.ey.imag * ref.ey.imag


@given(_quads(st.floats(-1e6, 1e6)), st.floats(0.0, 1e6),
       st.floats(0.1, 100.0), _seed)
def test_propose_stays_in_range(start, step, phase_max, seed):
    out = propose(start, step, np.random.default_rng(seed), phase_max)
    assert all(0.0 <= x <= phase_max for x in out)


def _bits(xs):
    return [x.hex() for x in xs]  # tells -0.0 from 0.0, as the row file does


def _edge_phases(hi):
    return (0.0, -0.0, hi, math.nextafter(0.0, 1.0),
            math.nextafter(0.0, -1.0), math.nextafter(hi, 0.0),
            math.nextafter(hi, math.inf))


# u below, at and above the 0.5 that picks the direction; r nonzero, so
# that the direction shows
_EDGE_U = (0.0, math.nextafter(0.5, 0.0), 0.5, 0.9)
_R = (0.7, 0.3, math.nextafter(1.0, 0.0), 0.05)


@pytest.mark.kernel_variant
@pytest.mark.parametrize("hi", [3 * math.pi, 1.0])
def test_unrolled_move_at_the_edges(hi):
    # each component meets each edge phase and each edge uniform
    edges = _edge_phases(hi)
    for i in range(len(edges)):
        s_p = tuple(edges[(i + k) % len(edges)] for k in range(4))
        for j in range(len(_EDGE_U)):
            draws = [x for k in range(4)
                     for x in (_R[k], _EDGE_U[(j + k) % len(_EDGE_U)])]
            for step in (0.0, -0.0, 0.3, 2.0 * hi):
                signed = _signed(np.array(draws)).tolist()
                assert (_bits(_move(s_p, step, signed, hi))
                        == _bits(_move_reference(s_p, step, draws, hi)))


@st.composite
def _moves(draw):
    hi = draw(st.sampled_from((3 * math.pi, 1.0)) | st.floats(1e-3, 1e3))
    phase = st.sampled_from(_edge_phases(hi)) | st.floats(-1.0, hi + 1.0)
    s_p = tuple(draw(phase) for _ in range(4))
    step = draw(st.sampled_from((0.0, -0.0)) | st.floats(0.0, 2.0 * hi))
    uniform = st.sampled_from(_EDGE_U) | st.floats(0.0, 1.0, exclude_max=True)
    return s_p, step, [draw(uniform) for _ in range(9)], hi


@pytest.mark.kernel_variant
@given(_moves())
def test_unrolled_move_equals_per_component_reference(move):
    s_p, step, draws, hi = move
    got = _move(s_p, step, _signed(np.array(draws)).tolist(), hi)
    assert _bits(got) == _bits(_move_reference(s_p, step, draws, hi))
    assert all(0.0 <= x <= hi for x in got)


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


@pytest.mark.kernel_variant
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cascade_rejects_nonfinite_phase(bad):
    sop = JonesVector(1.0, 0.0)
    for stage in range(4):
        phases = PhaseQuad(*(bad if k == stage else 0.1 * (k + 1)
                             for k in range(4)))
        for read in (lambda: measure(sop, phases, DeviceParams.ideal(), None),
                     lambda: port_intensity(sop, phases),
                     lambda: measure(sop, phases, DeviceParams(), None,
                                     (0.0, 0.0))):
            with pytest.raises(ValueError, match="finite"):
                read()


@pytest.mark.kernel_variant
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cascade_rejects_nonfinite_sop(bad):
    # a NaN or infinite component would otherwise read as a NaN or infinite
    # intensity; the error names the SOP as well as the phases
    phases = PhaseQuad(0.1, 0.2, 0.3, 0.4)
    cfg = AnnealConfig(m0=3, n0=7)
    for part in range(4):
        xs = [bad if k == part else x
              for k, x in enumerate((0.6, 0.0, 0.8, 0.0))]
        sop = JonesVector(complex(xs[0], xs[1]), complex(xs[2], xs[3]))
        rng = np.random.default_rng(part)
        for read in (lambda: measure(sop, phases, DeviceParams(), None,
                                     (0.0, 0.0)),
                     lambda: port_intensity(sop, phases),
                     lambda: run_lock(bind_objective(sop, DeviceParams(), rng),
                                      cfg, TpsParams(), rng)):
            with pytest.raises(ValueError, match="SOP must be finite") as e:
                read()
            assert repr(sop) in str(e.value)


@pytest.mark.kernel_variant
def test_sop_whose_port_powers_overflow_is_rejected_as_nonfinite():
    # the field stays finite here, but its squares overflow: the readings
    # would be (inf, inf), which look like a reading and are not one
    sop = JonesVector(1e200 + 0j, 0j)
    phases = PhaseQuad(1.0, 2.0, 3.0, 4.0)
    cfg = AnnealConfig(m0=3, n0=7)
    rng = np.random.default_rng(0)
    for read in (lambda: measure(sop, phases, DeviceParams.ideal(), None),
                 lambda: measure(sop, phases, DeviceParams(), None,
                                 (0.0, 0.0)),
                 lambda: port_intensity(sop, phases),
                 lambda: run_lock(bind_objective(sop, DeviceParams(), rng),
                                  cfg, TpsParams(), rng)):
        with pytest.raises(ValueError, match="SOP must be finite") as e:
            read()
        assert repr(sop) in str(e.value)


@given(_seed, _quads(st.floats(0.0, PHASE_SPAN)), st.integers(0, 3),
       st.sampled_from((-2.0 * math.pi, 2.0 * math.pi)))
def test_a_full_turn_of_one_stage_keeps_both_readings(seed, phases, stage,
                                                      turn):
    # M0(t + 2 pi) = -M0(t) and M45(t + 2 pi) = -M45(t): the field only
    # changes sign, so the readings move by rounding alone
    sop = random_sop(np.random.default_rng(seed))
    turned = PhaseQuad(*(t + turn if k == stage else t
                         for k, t in enumerate(phases)))
    ideal = DeviceParams.ideal()
    before = measure(sop, phases, ideal, None)
    after = measure(sop, turned, ideal, None)
    assert all(abs(a - b) <= 1e-14 for a, b in zip(before, after))


def _schedules():
    return st.just(StepSchedule.default()) | st.builds(
        StepSchedule, st.floats(0.0, 1e6))


@given(_schedules(), st.floats(allow_nan=False), st.floats(allow_nan=False))
def test_step_for_gap_non_decreasing_in_gap(schedule, a, b):
    lo, hi = min(a, b), max(a, b)
    assert step_for_gap(lo, schedule) <= step_for_gap(hi, schedule)


class _Reading(float):
    """A reading whose gap, ``1.0 - reading`` as the lock loop computes it,
    is exactly ``gap``.  A float subclass's reflected subtraction runs before
    float's own, so gaps that no float r gives as 1.0 - r (0.1, 0.01 and
    0.001 among them) reach the loop's step lookup."""

    def __new__(cls, gap):
        reading = super().__new__(cls, 1.0 - gap)
        reading.gap = gap
        return reading

    def __rsub__(self, other):
        return self.gap if other == 1.0 else float(other) - float(self)


_THRESHOLDS = (1.0, 0.1, 0.01, 0.001, 0.0)
_EDGE_GAPS = tuple(g for t in _THRESHOLDS for g in (
    t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf))) + (
    -0.5, -1e300, 1.5, 1e300, math.inf, -math.inf, math.nan)


def _loop_steps(schedule, gaps):
    """The steps ``run_lock`` takes after readings with the given gaps."""
    readings = iter([_Reading(g) for g in gaps] + [_Reading(0.5)])

    def objective(phases, noise, channel):
        return next(readings), 1.0  # i_px / 1.0 cannot overflow in er_db

    cfg = AnnealConfig(m0=1, n0=len(gaps))
    trace = run_lock(objective, cfg, TpsParams(), np.random.default_rng(0),
                     schedule)
    return trace.step_rad.tolist()


@pytest.mark.parametrize("schedule", [
    StepSchedule.default(), StepSchedule(0.16), StepSchedule(0.0)],
    ids=lambda s: s.label)
def test_loop_step_lookup_at_the_edges(schedule):
    # iteration i looks up the gap of the reading before it
    want = [step_for_gap(g, schedule) for g in _EDGE_GAPS]
    assert _loop_steps(schedule, _EDGE_GAPS) == want
    assert want == [_reference_step(g, schedule) for g in _EDGE_GAPS]


@settings(max_examples=60, deadline=None)
@given(_schedules(), st.lists(st.sampled_from(_EDGE_GAPS) | st.floats(),
                              min_size=1, max_size=40))
def test_loop_step_lookup_equals_step_for_gap(schedule, gaps):
    want = [step_for_gap(g, schedule) for g in gaps]
    assert _loop_steps(schedule, gaps) == want
    assert want == [_reference_step(g, schedule) for g in gaps]


def _trace_bytes(trace):
    """Every field of a trace as bytes, or as ``float.hex`` strings, which
    tell -0.0 from 0.0."""
    arrays = [getattr(trace, name) for name in (
        "temperature", "step_rad", "i_px", "i_py", "er_db", "accepted",
        "phases")]
    return ([(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
            [_bits(c) for c in trace.candidates], type(trace.best_phases),
            _bits(trace.best_phases), trace.best_intensity.hex(),
            trace.best_iteration, _bits(trace.initial_sample))


def _model(kind, cfg, rate, jump_at, magnitude):
    return (DisturbanceModel(kind="drift", drift_rate=rate)
            if kind == "drift" else
            DisturbanceModel(kind="jump", jump_magnitude=magnitude,
                             jump_at=jump_at % cfg.total_iterations)
            if kind == "jump" else DisturbanceModel())


def _objective(sop, device, model, rng):
    """The objective a harness trial locks: ``measure`` bound to the SOP
    on a static channel, else a ``DisturbedObjective``."""
    return (bind_objective(sop, device, rng) if model.kind == "static"
            else DisturbedObjective(sop, device, model, rng))


def _lock_with(run, model, device, cfg, schedule, seed, wrap=None,
               tps=None):
    """One lock by ``run`` as a harness trial runs it, with ``wrap`` applied
    to its objective and ``tps`` in place of the device's, if given: its
    trace's bytes and the generator's state after it."""
    rng = np.random.default_rng(seed)
    objective = _objective(random_sop(rng), device, model, rng)
    trace = run(wrap(objective) if wrap else objective, cfg,
                tps or device.tps, rng, schedule)
    return _trace_bytes(trace), rng.bit_generator.state


_LOCK_SCHEDULES = (StepSchedule(), StepSchedule(0.16), StepSchedule(0.008),
                   StepSchedule(0.0), StepSchedule(3.0))


@pytest.mark.kernel_variant
@pytest.mark.parametrize("kind", ["static", "drift", "jump"])
@settings(deadline=None)
@given(seed=_seed, schedule=st.sampled_from(_LOCK_SCHEDULES),
       device=st.sampled_from(_DEVICES), t0=st.sampled_from((1e-5, 1e-3)),
       m0=st.integers(1, 4), n0=st.integers(1, 30),
       rate=st.floats(1e-3, 1.0), jump_at=st.integers(0, 119),
       magnitude=st.floats(0.0, math.pi))
@example(seed=0, schedule=StepSchedule(), device=DeviceParams(), t0=1e-5,
         m0=10, n0=50, rate=0.01, jump_at=250, magnitude=math.pi / 2)
def test_run_lock_equals_reference_loop_bit_for_bit(kind, seed, schedule,
                                                    device, t0, m0, n0, rate,
                                                    jump_at, magnitude):
    # as a harness trial locks its variants: one draw and one objective
    # lock under every schedule, the first twice, each as the reference
    # loop locks on the schedule's own generator; a lock on a fresh
    # generator equals it too, end state included
    cfg = AnnealConfig(t0=t0, m0=m0, n0=n0)
    model = _model(kind, cfg, rate, jump_at, magnitude)
    want = {s: _lock_with(_reference_run_lock, model, device, cfg, s, seed)
            for s in _LOCK_SCHEDULES}
    rng = np.random.default_rng(seed)
    sop = random_sop(rng)
    drawn = _draw(rng, cfg.total_iterations)
    assert rng.bit_generator.state == want[schedule][1]

    def drawn_bytes():
        return (_bits(drawn.noise0), [_bits(c) for c in drawn.cols],
                drawn.channel.tobytes())
    before = drawn_bytes()
    objective = _objective(sop, device, model, rng)
    for s in _LOCK_SCHEDULES[:1] + _LOCK_SCHEDULES:
        got = run_lock(objective, cfg, device.tps, drawn, s)
        assert _trace_bytes(got) == want[s][0]
    assert _lock_with(run_lock, model, device, cfg, schedule,
                      seed) == want[schedule]
    assert drawn_bytes() == before


def _rising(objective):
    """``objective`` with i_px readings that rise from 0 towards 0.5: the
    lock accepts every candidate, and the variable schedule keeps its first
    step."""
    calls = count(1)

    def rising(phases, noise=None, channel=None):
        return 0.5 - 0.5 / next(calls), objective(phases, noise, channel)[1]
    return rising


@pytest.mark.kernel_variant
@pytest.mark.parametrize("kind", ["static", "drift"])
@pytest.mark.parametrize("schedule,hi", [
    (StepSchedule(2.0), PHASE_SPAN), (StepSchedule(3.0), PHASE_SPAN),
    (StepSchedule(), 1.0)], ids=["fixed(2)", "fixed(3)", "variable-span-1"])
@settings(max_examples=20, deadline=None)
@given(seed=_seed)
def test_run_lock_at_the_edges_equals_reference_loop_bit_for_bit(
        kind, schedule, hi, seed):
    # with every candidate accepted, steps of 2 and 3 rad, or of 0.16 rad
    # on a 1 rad span, walk the held phases out of the band where the loop
    # moves by the plain sum, so that it reflects through _move; the band's
    # lower edge is the largest step, not the smallest
    cfg, tps = AnnealConfig(m0=2, n0=50), SimpleNamespace(phase_max=hi)
    model = (DisturbanceModel(kind="drift", drift_rate=0.01)
             if kind == "drift" else DisturbanceModel())
    want = _lock_with(_reference_run_lock, model, DeviceParams(), cfg,
                      schedule, seed, _rising, tps)
    got = _lock_with(run_lock, model, DeviceParams(), cfg, schedule, seed,
                     _rising, tps)
    assert got == want
    arrays, cands = got[0][:2]
    assert np.frombuffer(arrays[5][2], bool).all()  # accepted
    held = [(hi / 2.0,) * 4] + [tuple(map(float.fromhex, c))
                                for c in cands[:-1]]
    lo = max(schedule.steps)
    assert any(min(x) <= lo or max(x) >= hi - lo for x in held)


_BAND_D = (0.0, -0.0, math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0))
_BAND_SCHEDULES = (StepSchedule(),) + tuple(
    StepSchedule(s) for s in _STEPS + (0.0, 2.0, 3.0))


@st.composite
def _band_moves(draw):
    """A schedule, a state whose phases sit on or one ulp off the edges of
    the schedule's band (lo, top), one of its steps, and signed steps of
    either zero or of the largest magnitude a uniform gives."""
    schedule = draw(st.sampled_from(_BAND_SCHEDULES))
    lo = max(schedule.steps)
    top = PHASE_SPAN - lo
    phase = st.sampled_from([y for x in (lo, top) for y in (
        math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))])
    s_p = tuple(draw(phase | st.just(PHASE_SPAN / 2.0)) for _ in range(4))
    step = draw(st.sampled_from(schedule.steps))
    return lo, top, s_p, step, tuple(draw(st.sampled_from(_BAND_D))
                                     for _ in range(4))


@pytest.mark.kernel_variant
@settings(max_examples=300)
@given(_band_moves())
def test_plain_move_in_the_band_equals_move(move):
    # run_lock's band test and plain move: a state that passes the test
    # moves by x + st*d to _move's phases, bit for bit
    lo, top, (x1, x2, x3, x4), step, (d1, d2, d3, d4) = move
    if (lo < x1 < top and lo < x2 < top and lo < x3 < top
            and lo < x4 < top):
        plain = (x1 + step * d1, x2 + step * d2, x3 + step * d3,
                 x4 + step * d4)
        assert _bits(plain) == _bits(_move((x1, x2, x3, x4), step,
                                           (d1, d2, d3, d4), PHASE_SPAN))


_POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)
_NON_NEGATIVE = st.floats(0.0, allow_infinity=False)

# valid values of every float and int key, given defaults for the rest and
# the disturbance kind that reads the key (_KIND_OF): the temperature bounds
# keep the last outer loop's temperature above 0 at the default m0, and
# jump_at stays below the default run length
_VALID = {
    "device.static_er_db": _POSITIVE,
    "device.noise_sigma": st.floats(0.0, 1e294),
    "anneal.t0": st.floats(1e-300, allow_infinity=False),
    "anneal.m0": st.integers(1, 1000),
    "anneal.n0": st.integers(1, 10 ** 9),
    "disturbance.drift_rate": _NON_NEGATIVE,
    "disturbance.jump_at": st.integers(0, AnnealConfig().total_iterations - 1),
    "disturbance.jump_magnitude": st.floats(0.0, math.pi),
    "experiment.trials": st.integers(1, 10 ** 9),
    "experiment.base_seed": st.integers(0, 2 ** 63),
}
_KIND_OF = {"disturbance.drift_rate": "drift", "disturbance.jump_at": "jump",
            "disturbance.jump_magnitude": "jump"}
_NUMERIC_KEYS = sorted(key for key, (_, _, parse) in KEYS.items()
                       if parse.__name__ in ("_float", "_float_or_none",
                                             "_int"))


@pytest.mark.parametrize("key", _NUMERIC_KEYS)
@given(data=st.data())
def test_config_override_sets_field_exactly(key, data):
    x = data.draw(_VALID[key])
    over = {key: repr(x)}
    if key in _KIND_OF:
        over["disturbance.kind"] = _KIND_OF[key]
    cfg = load_experiment_config(overrides=over)
    section, field, _ = KEYS[key]
    owner = {"device": cfg.device, "anneal": cfg.anneal,
             "disturbance": cfg.disturbance, "experiment": cfg}[section]
    got = getattr(owner, field)
    assert got == x and repr(got) == repr(x)


def _last_loop_temperature(t0: float, m0: int) -> float:
    """The reference rule: the last of m0 outer-loop temperatures, t0
    halved m0 - 1 times, listed one by one."""
    temps = [t0]
    for _ in range(m0 - 1):
        temps.append(temps[-1] * 0.5)
    return temps[-1]


@given(t0=st.floats(5e-324, 1.7e308), m0=st.integers(1, 3000))
@example(t0=5e-324, m0=1)  # the first boundary: m0 = 2
@example(t0=5e-324, m0=2)
@example(t0=1.7e308, m0=2099)  # the last: m0 = 2100
@example(t0=1.7e308, m0=2100)
def test_temperature_check_equals_list_rule(t0, m0):
    try:
        AnnealConfig(t0=t0, m0=m0)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == (_last_loop_temperature(t0, m0) > 0.0)


# --- trace fields derived after the loop --------------------------------------

# readings at the edges of the dB conversion: zero, the 1e-12 floor,
# subnormals, and readings above 1 (noise on a fully lit port)
_reading = st.one_of(
    st.sampled_from([0.0, 1e-12, 5e-324, 2.2250738585072014e-308, 1.0, 1.5]),
    st.floats(0.0, 1e-300), st.floats(0.0, 2.0), st.floats(0.0, 1e300))


@given(st.lists(st.tuples(_reading, _reading), max_size=60))
def test_er_db_array_equals_scalar_er_db(pairs):
    px = np.array([a for a, _ in pairs], dtype=float)
    py = np.array([b for _, b in pairs], dtype=float)
    with np.errstate(over="ignore"):  # 1e300 / 1e-12 is inf, as in Python
        got = _er_db_array(px, py).tolist()
    assert got == [_er_db(a, b) for a, b in pairs]


@settings(max_examples=60, deadline=None)
@given(seed=_seed, ideal=st.booleans(),
       kind=st.sampled_from(["static", "drift", "jump"]),
       schedule=st.sampled_from([StepSchedule.default(),
                                 StepSchedule(0.16),
                                 StepSchedule(0.0)]),
       m0=st.integers(1, 4), n0=st.integers(1, 40))
def test_derived_trace_fields_equal_per_iteration_definitions(
        seed, ideal, kind, schedule, m0, n0):
    device = DeviceParams.ideal() if ideal else DeviceParams()
    cfg = AnnealConfig(m0=m0, n0=n0)
    n = m0 * n0
    rng = np.random.default_rng(seed)
    objective = _objective(random_sop(rng), device,
                           _model(kind, cfg, 0.05, n // 2, math.pi / 2), rng)
    evaluated = []

    def spy(phases, *rows):
        evaluated.append(tuple(phases))
        return objective(phases, *rows)
    trace = run_lock(spy, cfg, device.tps, rng, schedule)

    # every evaluated point lies in the span, starting from its middle
    init = PHASE_SPAN / 2.0
    assert evaluated[0] == (init,) * 4
    assert evaluated[1:] == [tuple(p) for p in trace.phases.tolist()]
    assert trace.phases.min() >= 0.0 and trace.phases.max() <= PHASE_SPAN

    px, py = trace.i_px.tolist(), trace.i_py.tolist()
    assert trace.er_db.tolist() == [_er_db(a, b) for a, b in zip(px, py)]
    assert len(trace) == n
    temperatures, t = [], cfg.t0
    for _ in range(m0):
        temperatures += [t] * n0
        t *= 0.5
    assert trace.temperature.tolist() == temperatures

    # the running best, tracked one iteration at a time from the initial
    # reading at the initial phases
    best_phases = (init,) * 4
    best, best_iteration, i_max = trace.initial_sample[0], 0, []
    for it, (x, phases) in enumerate(zip(px, trace.phases.tolist()), 1):
        if x > best:
            best, best_iteration, best_phases = x, it, tuple(phases)
        i_max.append(best)
    assert trace.i_max.tolist() == i_max
    assert trace.best_intensity == best
    assert type(trace.best_intensity) is float
    assert trace.best_iteration == best_iteration
    assert tuple(trace.best_phases) == best_phases


# --- the stream contract ------------------------------------------------------

_SCHEDULES = (StepSchedule.default(), StepSchedule(0.16),
              StepSchedule(0.008))
_KINDS = ("static", "drift", "jump")


class RecordingRng:
    """Forwards draws to a generator and records each (method, shape, values);
    ``frozen`` set, any further draw fails the test."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []
        self.frozen = False

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            assert not self.frozen, f"rng.{name} called after the blocks"
            out = method(*args, **kwargs)
            self.draws.append((name, np.shape(out), np.asarray(out).tolist()))
            return out
        return draw


@settings(max_examples=25, deadline=None)
@given(base=st.integers(0, 2 ** 32), trials=st.integers(1, 4),
       data=st.data())
def test_trial_depends_only_on_its_seed(base, trials, data):
    variants = tuple(data.draw(st.lists(st.sampled_from(_SCHEDULES),
                                        min_size=1, unique=True)))
    v = data.draw(st.integers(0, len(variants) - 1))
    k = data.draw(st.integers(0, trials - 1))
    small = AnnealConfig(m0=2, n0=15)
    table = run_experiment(ExperimentConfig(
        anneal=small, variants=variants, trials=trials, base_seed=base), 1)
    alone = run_experiment(ExperimentConfig(
        anneal=small, variants=(variants[v],), trials=1, base_seed=base + k),
        1)
    for name in _FIELDS:
        assert np.array_equal(getattr(table, name)[v, k],
                              getattr(alone, name)[0, 0])


@settings(max_examples=25, deadline=None)
@given(seed=_seed, n0=st.integers(1, 30))
def test_blocks_do_not_depend_on_noise_channel_or_schedule(seed, n0):
    # every draw of a trial, blocks included, is the same whatever the
    # device noise, the channel and the schedule; none comes after them
    cfg = AnnealConfig(m0=2, n0=n0)
    runs = []
    # (noise_sigma, kind, schedule, jump_at); jump_at 0 is the initial
    # evaluation
    for sigma, kind, schedule, jump_at in [(0.0, "static", _SCHEDULES[0], 0),
                                           (5e-4, "drift", _SCHEDULES[1], 0),
                                           (5e-3, "jump", _SCHEDULES[2], n0),
                                           (5e-4, "jump", _SCHEDULES[0], 0)]:
        rng = RecordingRng(seed)
        device = DeviceParams(noise_sigma=sigma)
        objective = _objective(random_sop(rng), device, _model(
            kind, cfg, 0.05, jump_at, math.pi / 2), rng)

        def frozen_objective(phases, *rows, objective=objective, rng=rng):
            rng.frozen = True
            return objective(phases, *rows)
        run_lock(frozen_objective, cfg, device.tps, rng, schedule)
        runs.append(rng.draws)
    n = cfg.total_iterations
    assert [(name, shape) for name, shape, _ in runs[0]] == [
        ("normal", (4,)), ("random", (n, 9)),
        ("standard_normal", (n + 1, 2)), ("standard_normal", (n, 3))]
    assert all(run == runs[0] for run in runs[1:])


@settings(max_examples=25, deadline=None)
@given(seed=_seed, kind=st.sampled_from(_KINDS),
       sigma=st.sampled_from([0.0, 5e-4]),
       schedule=st.sampled_from(_SCHEDULES), n0=st.integers(1, 30))
def test_generator_ends_in_one_state(seed, kind, sigma, schedule, n0):
    cfg = AnnealConfig(m0=2, n0=n0)

    def end_state(kind, sigma, schedule):
        rng = np.random.default_rng(seed)
        device = DeviceParams(noise_sigma=sigma)
        objective = _objective(random_sop(rng), device, _model(
            kind, cfg, 0.05, n0, math.pi / 2), rng)
        run_lock(objective, cfg, device.tps, rng, schedule)
        return rng.bit_generator.state

    assert end_state(kind, sigma, schedule) == end_state(
        "static", 0.0, _SCHEDULES[0])


@settings(max_examples=25, deadline=None)
@given(seed=_seed, kind=st.sampled_from(_KINDS),
       sigma=st.sampled_from([0.0, 5e-4]), n0=st.integers(1, 30))
def test_wrapped_objective_gives_the_bare_trace(seed, kind, sigma, n0):
    cfg = AnnealConfig(m0=2, n0=n0)

    def trace(wrap):
        rng = np.random.default_rng(seed)
        device = DeviceParams(noise_sigma=sigma)
        objective = _objective(random_sop(rng), device, _model(
            kind, cfg, 0.05, n0, math.pi / 2), rng)
        if wrap:
            inner = objective

            def objective(phases, *rows):
                return inner(phases, *rows)
        return run_lock(objective, cfg, device.tps, rng)

    bare, wrapped = trace(False), trace(True)
    for name in _FIELDS + ("phases",):
        assert np.array_equal(getattr(bare, name), getattr(wrapped, name))
    assert bare.initial_sample == wrapped.initial_sample


# --- the row writer ----------------------------------------------------------

def _written_rows_csv(table) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        table.write_csv(path)
        with open(path, newline="") as f:
            return f.read()


@st.composite
def _anneal_configs(draw):
    m0, n0 = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    # the smallest t0 whose last outer loop stays above 0 after halving,
    # beside arbitrary ones
    t0 = draw(st.just(math.ldexp(1.0, -1074 + m0 - 1))
              | st.floats(1e-300, 1e-2))
    return AnnealConfig(t0=t0, m0=m0, n0=n0)


@pytest.mark.kernel_variant
@settings(max_examples=25, deadline=None)
@given(acfg=_anneal_configs(), trials=st.integers(1, 3),
       base=st.integers(0, 2 ** 32),
       variants=st.lists(st.sampled_from(_SCHEDULES + (
           StepSchedule(0.0), StepSchedule(math.ulp(1.5 * math.pi)))),
           min_size=1, max_size=4, unique_by=lambda v: v.label))
def test_write_csv_equals_one_format_per_row(acfg, trials, base, variants):
    table = run_experiment(ExperimentConfig(
        anneal=acfg, variants=tuple(variants), trials=trials, base_seed=base),
        1)
    assert _written_rows_csv(table) == _reference_rows_csv(table)


# values whose strings a cache keyed by float equality would merge or miss
_ODD_FLOATS = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
               -5e-324, 0.1, 0.16, 1e300)


@pytest.mark.kernel_variant
@settings(max_examples=50, deadline=None)
@given(data=st.data(), n_variants=st.integers(1, 3), trials=st.integers(1, 3),
       n=st.integers(1, 6))
def test_write_csv_keeps_every_value_apart(data, n_variants, trials, n):
    # arbitrary values, not only those a lock gives: -0.0 and 0.0, and each
    # NaN, must keep their own strings
    value = st.sampled_from(_ODD_FLOATS) | st.floats()
    shape = (n_variants, trials, n)

    def block(elements, dtype=float):
        flat = data.draw(st.lists(elements, min_size=n_variants * trials * n,
                                  max_size=n_variants * trials * n))
        return np.array(flat, dtype).reshape(shape)

    temperature = np.array(data.draw(st.lists(value, min_size=n,
                                              max_size=n)), float)
    table = ResultsTable(tuple(f"v{i}" for i in range(n_variants)),
                         temperature, block(value), block(value),
                         block(value), block(value), block(st.booleans(), bool))
    assert _written_rows_csv(table) == _reference_rows_csv(table)


@pytest.mark.kernel_variant
def test_write_csv_keeps_the_longest_lead_columns_whole():
    # -1.23456789e-100 is the longest '%.9g' form, 16 characters, and the
    # iteration count reaches five digits
    n = 10 ** 4
    zeros = np.zeros((1, 1, n))
    table = ResultsTable(("v",), np.full(n, -1.23456789e-100), zeros, zeros,
                         zeros, zeros, zeros.astype(bool))
    # as lines: a failing diff of two 10**4-line strings takes minutes
    assert (_written_rows_csv(table).splitlines(True)
            == _reference_rows_csv(table).splitlines(True))


def _g9(values) -> list[str]:
    """The writer's float kernel on ``values``, one string per value."""
    x = np.asarray(values, float)
    out = np.zeros((x.size, _NUMBER), _WORD)
    _g9_words(x, out)
    cells = out.tobytes().translate(None, b"\0").decode().split(",")
    assert cells.pop() == "" and len(cells) == x.size
    return cells


def _percent_g9(values) -> list[str]:
    return ["%.9g" % v for v in np.asarray(values, float).tolist()]


# the ends of the fixed-notation range, and values whose rounding carries
# into the next decade
_G9_EDGES = [math.nextafter(1e-4, 0.0), 1e-4, math.nextafter(1e-4, 1.0),
             math.nextafter(1e9, 0.0), 1e9, math.nextafter(1e9, math.inf),
             9.9999999995e-5, 99999999.95, 999999999.5, 9.9999999996,
             -9.9999999996]


@given(st.lists(st.floats(), min_size=1, max_size=40))
@example(_G9_EDGES)
# halfway decimals at the top of a decade whose scaled product rounds across
# 999999999.5 or 99999999.5 while the exact one does not
@example([9.99999995e-05, 0.009999999995, 0.00999999995, 0.9999999995,
          9.999999995, 9.99999995, 999.9999995, 9999.99995, 99999.99995,
          999999.995, 9999999.95])
@example([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
          -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
# one bit pattern throughout, as a fixed step's column, and values that are
# equal as floats but not as bits
@pytest.mark.kernel_variant
@example([0.16] * 3)
@example([-0.0] * 3)
@example([0.0, -0.0, 0.0])
@example([math.nan, -math.nan])
def test_g9_kernel_equals_percent_format(values):
    assert _g9(values) == _percent_g9(values)


@pytest.mark.kernel_variant
def test_g9_kernel_equals_percent_format_on_random_bits():
    rng = np.random.default_rng(20221)
    bits = rng.integers(0, 2 ** 64, 200_000, np.uint64, endpoint=False)
    assert _g9(bits.view(float)) == _percent_g9(bits.view(float))


@pytest.mark.kernel_variant
def test_g9_kernel_equals_percent_format_on_decimals():
    # nine-digit decimals in every decade that fixed notation reaches or
    # rounds into, and the ten-digit halfway points between them, which
    # Python settles
    rng = np.random.default_rng(20222)
    digits = rng.integers(10 ** 8, 10 ** 9, 200_000).astype(float)
    decade = rng.integers(-5, 10, digits.size)
    half = rng.random(digits.size) < 0.5
    digits = np.where(half, 10 * digits + 5, digits)
    shift = decade - 8 - half
    values = np.where(shift < 0, digits / 10.0 ** -np.minimum(shift, 0),
                      digits * 10.0 ** np.maximum(shift, 0))
    values[rng.random(values.size) < 0.5] *= -1
    assert _g9(values) == _percent_g9(values)
    # the only values whose first decade guess can miss: both signs of 200
    # ulps each side of every '%.9g' decade bound, 9.9999999995 * 10**(X-1)
    # for X = -4 ... 9, and of every power of ten from 1e-5 to 1e9
    centers = ([float(f"9.9999999995e{x - 1}") for x in range(-4, 10)]
               + [float(f"1e{k}") for k in range(-5, 10)])
    near = (np.array(centers).view(np.int64)[:, None]
            + np.arange(-200, 200)).ravel().view(float)
    near = np.concatenate((near, -near))
    assert near.size == 23_200
    assert _g9(near) == _percent_g9(near)


def _encodable(label: str) -> bool:
    try:
        label.encode(locale.getpreferredencoding(False))
    except UnicodeEncodeError:
        return False
    return True


# labels a StepSchedule never gives: non-ASCII, a NUL (the writer's padding
# byte), a newline (what the label is inserted after), commas
_labels = st.lists((st.sampled_from(["fixé(0.1)", "λ", "a\0b", "x\ny", ",,"])
                    | st.text(max_size=8)).filter(_encodable),
                   min_size=1, max_size=3, unique=True)


@pytest.mark.kernel_variant
@settings(max_examples=15, deadline=None)
@given(data=st.data(), labels=_labels, trials=st.integers(1, 2),
       n=st.integers(1, 4))
def test_writers_equal_text_mode_references(data, labels, trials, n):
    shape = (len(labels), trials, n)

    def block(elements, dtype=float):
        flat = data.draw(st.lists(elements, min_size=math.prod(shape),
                                  max_size=math.prod(shape)))
        return np.array(flat, dtype).reshape(shape)

    value = st.floats(-1e3, 1e3) | st.sampled_from(_ODD_FLOATS)
    table = ResultsTable(tuple(labels), np.array(data.draw(st.lists(
        value, min_size=n, max_size=n)), float), block(value), block(value),
        block(value), block(value), block(st.booleans(), bool))
    assert _written_rows_csv(table) == _reference_rows_csv(table)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "aggregate.csv")
        with np.errstate(invalid="ignore"):
            table.write_aggregate_csv(path)
            want = _reference_aggregate_csv(table)
        with open(path, newline="") as f:
            assert f.read() == want


# readings a lock can give, ties among them likely: both zeros, the ER
# floor and ceiling at +-120 dB that _DB_FLOOR sets, and their neighbours
_ER_READINGS = (0.0, -0.0, 120.0, -120.0, math.nextafter(120.0, 0.0),
                math.nextafter(-120.0, 0.0), 25.0, 5e-324)


@pytest.mark.kernel_variant
@settings(max_examples=50, deadline=None)
@given(data=st.data(), n_variants=st.integers(1, 3), trials=st.integers(1, 7),
       n=st.integers(1, 5))
def test_one_percentile_pass_equals_one_per_variant(data, n_variants, trials,
                                                    n):
    # the table's one np.percentile over every variant gives each variant's
    # curves bit for bit as a call on its own block does
    shape = (n_variants, trials, n)
    er = np.array(data.draw(st.lists(
        st.sampled_from(_ER_READINGS) | st.floats(-120.0, 120.0),
        min_size=math.prod(shape), max_size=math.prod(shape))),
        float).reshape(shape)
    zeros = np.zeros(shape)
    table = ResultsTable(tuple(f"v{i}" for i in range(n_variants)),
                         np.ones(n), zeros, zeros, zeros, er,
                         zeros.astype(bool))
    for v, label in enumerate(table.variant_order):
        want = np.percentile(er[v], [10.0, 50.0, 90.0], axis=0)
        iters, *curves = table.percentile_curves(label)
        assert iters.tolist() == list(range(1, n + 1))
        assert np.array(curves).tobytes() == want.tobytes()


# --- whole config files -------------------------------------------------------

_DEFAULT_STEP = 0.16  # the largest step of the default variants


def _text(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):  # variants; repr keeps every digit
        return ",".join("variable" if v == StepSchedule.default()
                        else f"fixed({v.step!r})" for v in value)
    return value if isinstance(value, str) else repr(value)


@st.composite
def _config_files(draw):
    """Key -> value for a random subset of KEYS, with values that are valid
    together (and with the defaults of the keys left out)."""
    m0, n0 = draw(st.integers(1, 20)), draw(st.integers(1, 50))
    kind = draw(st.sampled_from(["static", "drift", "jump"]))
    finite = dict(allow_nan=False, allow_infinity=False)
    positive = st.floats(0.0, exclude_min=True, **finite)
    non_negative = st.just(0.0) | st.floats(0.0, **finite)
    # a nonzero step of at least ulp(PHASE_SPAN / 2) moves the start point
    variant = st.one_of(
        st.just(StepSchedule.default()),
        st.builds(StepSchedule, st.just(0.0)
                  | st.floats(math.ulp(PHASE_SPAN / 2.0), _DEFAULT_STEP)))
    values = {
        "device.static_er_db": st.none() | positive,
        "device.noise_sigma": non_negative,
        "anneal.t0": st.floats(1e-200, 1e200),
        "anneal.m0": st.just(m0),
        "anneal.n0": st.just(n0),
        # each parameter is nonzero only under the kind that reads it, and
        # that kind is always in the file (below)
        "disturbance.kind": st.just(kind),
        "disturbance.drift_rate": non_negative if kind == "drift"
        else st.just(0.0),
        # below the run length whether or not m0 and n0 are in the file
        "disturbance.jump_at": st.integers(0, min(m0, 10) * min(n0, 50) - 1)
        if kind == "jump" else st.just(0),
        "disturbance.jump_magnitude": st.floats(0.0, math.pi)
        if kind == "jump" else st.just(0.0),
        "experiment.variants": st.lists(variant, min_size=1, max_size=4,
                                        unique_by=lambda v: v.label
                                        ).map(tuple),
        "experiment.trials": st.integers(1, 10 ** 9),
        "experiment.base_seed": st.integers(0, 2 ** 63),
        "experiment.output": st.from_regex(r"[A-Za-z0-9_./-]{1,20}",
                                           fullmatch=True),
    }
    assert set(values) == set(KEYS)
    chosen = {key: draw(values[key]) for key in sorted(KEYS)
              if draw(st.booleans())}
    if kind != "static":
        chosen["disturbance.kind"] = kind
    return chosen


def _assert_fields_equal(got, want):
    assert type(got) is type(want)
    if dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            if f.compare:
                _assert_fields_equal(getattr(got, f.name),
                                     getattr(want, f.name))
    elif isinstance(want, tuple):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_fields_equal(a, b)
    else:
        assert got == want and repr(got) == repr(want)


@settings(max_examples=150, deadline=None)
@given(_config_files(), st.randoms())
def test_config_file_round_trips(values, random):
    sections = {"device": {}, "anneal": {}, "disturbance": {},
                "experiment": {}}
    for key, value in values.items():
        section, field, _ = KEYS[key]
        sections[section][field] = value
    try:
        want = ExperimentConfig(
            device=DeviceParams(**sections["device"]),
            anneal=AnnealConfig(**sections["anneal"]),
            disturbance=DisturbanceModel(**sections["disturbance"]),
            **sections["experiment"])
    except ValueError:
        assume(False)  # e.g. a t0 and m0 that cool to 0

    lines = ["# generated config", ""]
    lines += [f"{key} = {_text(value)}" for key, value in values.items()]
    random.shuffle(lines)
    fd, path = tempfile.mkstemp(suffix=".cfg")
    try:
        with os.fdopen(fd, "w") as f:
            f.write("\n".join(lines) + "\n")
        got = load_experiment_config(path)
    finally:
        os.remove(path)
    assert got == want
    _assert_fields_equal(got, want)


# --- the command line ---------------------------------------------------------

_SMALL_INT = st.integers(-2, 3)
_EXTREME_FLOAT = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, -1.0, 1e300,
                                  -1e300, 1.7976931348623157e308])
# values that most keys refuse to parse or to accept
_MALFORMED = st.sampled_from(["", "abc", "nan", "-inf", "1e999", "0x10",
                              "1,2", "1 2", "none", "fixed(", "1.5.2"])
# sizes far beyond any host's memory, which the size check must refuse
# before the first lock
_HUGE = st.sampled_from([10 ** 12, 2 ** 63])


def _cli_values(key: str):
    """Well-formed, extreme and malformed value strings for one key.  A
    well-formed run stays small: m0 * n0 <= 50 and at most 3 trials."""
    well = {
        "device.static_er_db": st.just(None) | st.floats(1.0, 60.0),
        "device.noise_sigma": st.floats(0.0, 1e-2),
        "anneal.t0": st.floats(1e-8, 1e-2),
        "anneal.m0": st.integers(1, 5),
        "anneal.n0": st.integers(1, 10),
        "disturbance.kind": st.sampled_from(["static", "drift", "jump",
                                             "Drift"]),
        "disturbance.drift_rate": st.floats(0.0, 0.1),
        "disturbance.jump_at": st.integers(0, 49),
        "disturbance.jump_magnitude": st.floats(0.0, math.pi),
        "experiment.variants": st.sampled_from(
            ["variable", "fixed(0.16)", "variable, fixed(0.008)",
             "fixed(0), fixed(-0)", "variable, fixed(100)"]),
        "experiment.trials": st.integers(1, 3),
        "experiment.base_seed": st.integers(0, 2 ** 64),
        "experiment.output": st.sampled_from(["out.csv", "sub/out.csv",
                                              ".", "nowhere/x/y.csv"]),
    }[key].map(_text)
    if key in ("anneal.m0", "anneal.n0", "disturbance.jump_at",
               "experiment.trials", "experiment.base_seed"):
        extreme = (_SMALL_INT | _HUGE).map(str)
    elif key in ("disturbance.kind", "experiment.variants",
                 "experiment.output"):
        extreme = st.text(max_size=6)
    else:
        extreme = _EXTREME_FLOAT.map(repr)
    # well-formed three times in five, so that most calls reach a run
    return st.one_of(well, well, well, extreme, _MALFORMED)


@st.composite
def _cli_calls(draw):
    """(argv, config file text) for one ``polarlock`` call."""
    keys = draw(st.lists(st.sampled_from(sorted(KEYS)), max_size=5,
                         unique=True))
    # a small run unless the drawn keys say otherwise
    lines = {"anneal.m0": "2", "anneal.n0": "5", "experiment.trials": "2"}
    lines.update((k, draw(_cli_values(k))) for k in keys)
    text = "".join(f"{k} = {v}\n" for k, v in lines.items())
    if draw(st.booleans()):
        text += draw(st.sampled_from(["no equals sign\n", "bogus.key = 1\n",
                                      "anneal.m0 = 1\n"]))
    command = draw(st.sampled_from(["run", "sweep", "validate", "oracle"]))
    argv = [command]
    if command == "validate":
        return argv, text
    if command == "oracle":
        if draw(st.booleans()):
            argv += ["--sop", draw(st.sampled_from(
                ["1,0,0,0", "0,0,0,0", "1e300,1e300,1,0", "1,2,3", "a,b,c,d",
                 "nan,0,1,0"]))]
        return argv + ["--seed", str(draw(_SMALL_INT))], text
    argv += ["--config", "cfg"]
    if command == "sweep":
        key = draw(st.sampled_from(sorted(KEYS) + ["n0", "mode", "bogus"]))
        full = key if key in KEYS else f"anneal.{key}"
        values = draw(st.lists(_cli_values(full) if full in KEYS
                               else st.just("1"), min_size=1, max_size=2))
        argv += ["--key", key, "--values", ",".join(values)]
    for flag, value in (("--trials", st.integers(1, 3) | _SMALL_INT | _HUGE),
                        ("--seed", st.integers(0, 9) | _SMALL_INT)):
        if draw(st.booleans()):
            argv += [flag, str(draw(value))]
    if draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from(["o.csv", "sub/o.csv", "sub",
                                                "", "x/"]))]
    return argv, text


# the host memory the size check sees, whatever the host reports
_EIGHT_GIB = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 21}
# validate reads no input, so its identity suite runs once for all examples
_IDENTITY_CHECKS = functools.cache(cli.run_identity_checks)


def _reported_numbers(command: str, folder: str, stdout: str):
    """The numbers a successful call reports: the values of every summary
    file for run and sweep, of stdout's lines for oracle and validate."""
    texts = [stdout] if command in ("oracle", "validate") else [
        Path(folder, name).read_text() for name in os.listdir(folder)
        if name.endswith("_summary.txt")]
    for line in "".join(texts).splitlines():
        value = line.split(": ", 1)[1].removeprefix("max defect ").split()[0]
        if value != "none":
            yield float(value)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(call=_cli_calls())
def test_cli_exits_cleanly_on_any_input(call, tmp_path):
    argv, text = call
    real_run = cli.run_experiment

    def small_run(cfg, max_workers=1):
        # an input that reaches a lock must be a small one
        assert cfg.trials <= 3 and cfg.anneal.total_iterations <= 50
        return real_run(cfg, max_workers)

    folder = tempfile.mkdtemp(dir=tmp_path)
    os.mkdir(os.path.join(folder, "sub"))
    Path(folder, "cfg").write_text(text)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(folder)  # relative output paths land in the example's folder
    try:
        with mock.patch.object(cli, "run_experiment", small_run), \
                mock.patch.object(os, "sysconf", _EIGHT_GIB.__getitem__), \
                mock.patch.object(cli, "run_identity_checks",
                                  _IDENTITY_CHECKS), \
                mock.patch.dict(os.environ, {"POLARLOCK_THREADS": "1"}), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            # any other exception is the traceback, and fails the test
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    assert code in ((0, 1, 2) if argv[0] == "validate" else (0, 1))
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert all(math.isfinite(v) for v in
                   _reported_numbers(argv[0], folder, out.getvalue()))
