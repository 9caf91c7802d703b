import copy
import dataclasses
import math
import pickle
import struct

import numpy as np
import pytest

from polarlock import (ALGEBRA_TOL, COUPLER_IN, COUPLER_OUT, JonesMatrix,
                       JonesVector, make_m0, make_m45, random_sop, to_stokes)
from polarlock.jones import _unit

SQ2 = 1.0 / math.sqrt(2.0)
SPAN = 3.0 * math.pi
IDENTITY = JonesMatrix(1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)


def max_matrix_diff(a: JonesMatrix, b: JonesMatrix) -> float:
    return max(abs(a.m00 - b.m00), abs(a.m01 - b.m01),
               abs(a.m10 - b.m10), abs(a.m11 - b.m11))


def test_m0_zero_is_identity():
    assert max_matrix_diff(make_m0(0.0), IDENTITY) == 0.0


def test_m0_pi_is_diag_minus_i_plus_i():
    m = make_m0(math.pi)
    assert m.m00 == pytest.approx(-1j, abs=1e-15)
    assert m.m11 == pytest.approx(1j, abs=1e-15)
    assert m.m01 == 0 and m.m10 == 0


def test_m0_unitary():
    assert make_m0(1.234).unitarity_defect() <= ALGEBRA_TOL


def test_m45_zero_is_identity():
    assert max_matrix_diff(make_m45(0.0), IDENTITY) == 0.0


def test_m45_pi_swaps_with_minus_i():
    m = make_m45(math.pi)
    assert abs(m.m00) <= 1e-15 and abs(m.m11) <= 1e-15
    assert m.m01 == pytest.approx(-1j, abs=1e-15)
    assert m.m10 == pytest.approx(-1j, abs=1e-15)


def test_m45_equals_coupler_sandwich():
    d = 0.7
    sandwich = COUPLER_OUT @ make_m0(d) @ COUPLER_IN
    assert max_matrix_diff(make_m45(d), sandwich) <= ALGEBRA_TOL


def test_m45_coupler_decomposition_random():
    rng = np.random.default_rng(0)
    for d in rng.uniform(0.0, SPAN, size=1000):
        sandwich = COUPLER_OUT @ make_m0(d) @ COUPLER_IN
        assert max_matrix_diff(make_m45(d), sandwich) <= ALGEBRA_TOL


@pytest.mark.parametrize("op", [make_m0, make_m45])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_retarder_rejects_nonfinite(op, bad):
    with pytest.raises(ValueError):
        op(bad)


def test_apply_identity():
    v = JonesVector(1.0, 0.0)
    out = IDENTITY @ v
    assert out.ex == 1.0 and out.ey == 0.0


def test_apply_m45_pi_converts_horizontal_to_vertical():
    out = make_m45(math.pi) @ JonesVector(1.0, 0.0)
    assert abs(out.ex) <= 1e-15
    assert out.ey == pytest.approx(-1j, abs=1e-15)
    # same SOP as plain vertical despite the -i global factor
    assert out.same_sop(JonesVector(0.0, 1.0), tol=1e-12)


def test_apply_preserves_norm_for_unitaries():
    rng = np.random.default_rng(1)
    for _ in range(200):
        m = make_m45(rng.uniform(0, SPAN)) @ make_m0(rng.uniform(0, SPAN))
        v = random_sop(rng)
        assert abs((m @ v).norm() - 1.0) <= ALGEBRA_TOL


def test_products_of_retarders_unitary():
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = IDENTITY
        for _ in range(4):
            m = make_m0(rng.uniform(0, SPAN)) @ m
            m = make_m45(rng.uniform(0, SPAN)) @ m
        assert m.unitarity_defect() <= ALGEBRA_TOL


def test_stokes_horizontal():
    s = to_stokes(JonesVector(1.0, 0.0))
    assert (s.s0, s.s1, s.s2, s.s3) == (1.0, 1.0, 0.0, -0.0)


def test_stokes_diagonal():
    s = to_stokes(JonesVector(SQ2, SQ2))
    assert s.s1 == pytest.approx(0.0, abs=1e-15)
    assert s.s2 == pytest.approx(1.0, abs=1e-15)
    assert s.s3 == pytest.approx(0.0, abs=1e-15)


def test_stokes_circular_sign_convention():
    # (1, i)/sqrt(2) sits at the s3 = -1 pole in this package's convention
    s = to_stokes(JonesVector(SQ2, 1j * SQ2))
    assert s.s1 == pytest.approx(0.0, abs=1e-15)
    assert s.s2 == pytest.approx(0.0, abs=1e-15)
    assert s.s3 == pytest.approx(-1.0, abs=1e-15)


def test_stokes_zero_vector_rejected():
    with pytest.raises(ValueError):
        to_stokes(JonesVector(0.0, 0.0))


def test_stokes_pure_state_on_sphere():
    rng = np.random.default_rng(3)
    for _ in range(500):
        s = to_stokes(random_sop(rng))
        assert abs(s.s1 ** 2 + s.s2 ** 2 + s.s3 ** 2 - s.s0 ** 2) <= ALGEBRA_TOL


def test_stokes_global_phase_invariant():
    rng = np.random.default_rng(4)
    for _ in range(200):
        v = random_sop(rng)
        z = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        a = to_stokes(v)
        b = to_stokes(JonesVector(v.ex * z, v.ey * z))
        assert abs(a.s1 - b.s1) <= ALGEBRA_TOL
        assert abs(a.s2 - b.s2) <= ALGEBRA_TOL
        assert abs(a.s3 - b.s3) <= ALGEBRA_TOL


def test_random_sop_deterministic_per_seed():
    a = random_sop(np.random.default_rng(42))
    b = random_sop(np.random.default_rng(42))
    assert a == b


def test_random_sop_normalized():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        assert abs(random_sop(rng).norm() - 1.0) <= ALGEBRA_TOL


class ZeroRng:
    """Generator stand-in whose every draw is zeros; counts its draws."""

    def __init__(self):
        self.draws = 0

    def normal(self, size):
        self.draws += 1
        return np.zeros(size)


def test_random_sop_falls_back_without_redrawing():
    # a zero draw has no direction: the first axis stands in, and no second
    # draw is taken, so the block of normals keeps its shape
    assert _unit([0.0, 0.0, 0.0]) == (1.0, 0.0, 0.0)
    assert _unit([3e-13, 0.0, -4e-13, 0.0]) == (1.0, 0.0, 0.0, 0.0)
    rng = ZeroRng()
    assert random_sop(rng) == JonesVector(1.0, 0.0)
    assert rng.draws == 1


def test_random_sop_uniform_on_sphere():
    # Monte-Carlo estimate of the sphere mean: 1e5 draws, tolerance 0.02
    rng = np.random.default_rng(6)
    acc = np.zeros(3)
    n = 100_000
    for _ in range(n):
        s = to_stokes(random_sop(rng))
        acc += (s.s1, s.s2, s.s3)
    assert np.all(np.abs(acc / n) < 0.02)


def test_same_sop_distinguishes_states():
    v = JonesVector(1.0, 0.0)
    assert v.same_sop(JonesVector(1j, 0.0))
    assert not v.same_sop(JonesVector(SQ2, SQ2))


# --- the stored parts ----------------------------------------------------------

def _part_bits(*xs):
    return [struct.pack("<d", x) for x in xs]  # tells -0.0 and NaNs apart


@pytest.mark.parametrize("ex,ey", [
    (complex(0.6, -0.8), complex(-0.0, 1e-300)),
    (0.6, -0.0),
    (1, 0),
    (np.complex128(0.6 - 0.8j), np.float64(-0.0)),
    (np.float32(0.5), np.int64(-3)),
])
def test_jones_vector_value_from_complex_float_int_and_numpy(ex, ey):
    v = JonesVector(ex, ey)
    assert v._parts == (ex.real, ex.imag, ey.real, ey.imag)
    assert type(v.ex) is complex and type(v.ey) is complex
    assert _part_bits(v.ex.real, v.ex.imag, v.ey.real, v.ey.imag) == \
        _part_bits(*v._parts)
    assert (v.ex, v.ey) == (complex(ex), complex(ey))


def test_jones_vector_value_components_round_trip_by_bytes():
    nan = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_DEAD_BEEF))[0]
    for ex, ey in [(complex(-0.0, -0.0), complex(0.0, -0.0)),
                   (complex(nan, -0.0), complex(-0.0, math.nan)),
                   (complex(-math.inf, 5e-324), complex(1e308, nan))]:
        v = JonesVector(ex, ey)
        assert _part_bits(v.ex.real, v.ex.imag, v.ey.real, v.ey.imag) == \
            _part_bits(ex.real, ex.imag, ey.real, ey.imag)


def test_jones_vector_value_equality_and_hash():
    # == compares the components as complex numbers did: -0.0 == 0.0, and a
    # real component equals the complex one with a zero imaginary part
    values = [0.0, -0.0, 1, 1.0, 1 + 0j, complex(1, -0.0), 0.5j, 2.5,
              np.float64(2.5), np.complex128(0.5j)]
    for a in values:
        for b in values:
            for c in (0.0, 1j):
                u, w = JonesVector(a, c), JonesVector(b, c)
                assert (u == w) == (a == b)
                if u == w:
                    assert hash(u) == hash(w)
    assert JonesVector(1.0, 0.0) != JonesVector(0.0, 1.0)
    assert JonesVector(1.0, 0.0) != (1.0, 0.0)


def test_jones_vector_value_repr_is_the_complex_pair():
    # the string printed before the vector stored its parts
    assert repr(random_sop(np.random.default_rng(0))) == (
        "JonesVector(ex=(0.1865168763949313-0.19597346002732666j), "
        "ey=(0.950047103190218+0.15561606441711276j))")
    assert repr(JonesVector(1.0, 0)) == "JonesVector(ex=(1+0j), ey=0j)"


def test_jones_vector_value_pickle_and_copy_round_trip():
    v = JonesVector(complex(0.6, -0.0), complex(-0.0, 0.8))
    for w in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
        assert type(w) is JonesVector and w == v
        assert _part_bits(*w._parts) == _part_bits(*v._parts)


def test_jones_vector_value_is_immutable():
    v = random_sop(np.random.default_rng(1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        v._parts = (1.0, 0.0, 0.0, 0.0)
    # ex and ey are properties, not fields: CPython's frozen slots dataclass
    # (3.10 to 3.12 at least) refuses any name but a field's with TypeError
    for name in ("ex", "ey"):
        with pytest.raises(TypeError):
            setattr(v, name, 1.0)
    assert v == random_sop(np.random.default_rng(1))
