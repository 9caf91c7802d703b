import math

import numpy as np
import pytest

from polarlock import (ALGEBRA_TOL, COUPLER_IN, COUPLER_OUT, JonesMatrix,
                       JonesVector, extinction_ratio_db, make_m0,
                       make_m45, random_sop, to_stokes)

SQ2 = 1.0 / math.sqrt(2.0)
SPAN = 3.0 * math.pi


def max_matrix_diff(a: JonesMatrix, b: JonesMatrix) -> float:
    return max(abs(a.m00 - b.m00), abs(a.m01 - b.m01),
               abs(a.m10 - b.m10), abs(a.m11 - b.m11))


def test_m0_zero_is_identity():
    assert max_matrix_diff(make_m0(0.0), JonesMatrix.identity()) == 0.0


def test_m0_pi_is_diag_minus_i_plus_i():
    m = make_m0(math.pi)
    assert m.m00 == pytest.approx(-1j, abs=1e-15)
    assert m.m11 == pytest.approx(1j, abs=1e-15)
    assert m.m01 == 0 and m.m10 == 0


def test_m0_unitary():
    assert make_m0(1.234).unitarity_defect() <= ALGEBRA_TOL


def test_m45_zero_is_identity():
    assert max_matrix_diff(make_m45(0.0), JonesMatrix.identity()) == 0.0


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
    out = JonesMatrix.identity() @ v
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
        m = JonesMatrix.identity()
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


def test_random_sop_uniform_on_sphere():
    # Monte-Carlo estimate of the sphere mean: 1e5 draws, tolerance 0.02
    rng = np.random.default_rng(6)
    acc = np.zeros(3)
    n = 100_000
    for _ in range(n):
        s = to_stokes(random_sop(rng))
        acc += (s.s1, s.s2, s.s3)
    assert np.all(np.abs(acc / n) < 0.02)


def test_extinction_ratio_values():
    assert extinction_ratio_db(0.4, 0.4) == 0.0
    assert extinction_ratio_db(1.0, 10.0 ** -2.8) == pytest.approx(28.0, abs=1e-12)
    assert extinction_ratio_db(1.0, 10.0 ** -2.5) == pytest.approx(25.0, abs=1e-12)


@pytest.mark.parametrize("i_px,i_py", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
def test_extinction_ratio_rejects_nonpositive(i_px, i_py):
    with pytest.raises(ValueError):
        extinction_ratio_db(i_px, i_py)


def test_same_sop_distinguishes_states():
    v = JonesVector(1.0, 0.0)
    assert v.same_sop(JonesVector(1j, 0.0))
    assert not v.same_sop(JonesVector(SQ2, SQ2))
