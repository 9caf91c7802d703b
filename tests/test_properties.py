"""Property tests of the lock kernel's invariants and of the numpy stream
identities its rng draw order relies on."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polarlock import (DeviceParams, JonesVector, PhaseQuad, dpc_transform,
                       measure, port_intensity, propose)
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
    assert all(0.0 <= x <= phase_max for x in out.as_tuple())


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
