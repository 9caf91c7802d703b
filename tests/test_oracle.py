import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from polarlock import (DeviceParams, JonesVector, oracle_best,
                       port_intensity, random_sop)

SQ2 = 1.0 / math.sqrt(2.0)
IDEAL = DeviceParams.ideal()

EDGE_SOPS = [
    JonesVector(1.0, 0.0),                      # x
    JonesVector(0.0, 1.0),                      # y
    JonesVector(SQ2, 1j * SQ2),                 # circular
    JonesVector(SQ2, -1j * SQ2),                # circular, other hand
    JonesVector(0.0, cmath.exp(0.7j)),          # ex = 0 with a phase on ey
    JonesVector(cmath.exp(-2.1j), 0.0),         # ey = 0 with a phase on ex
]


def grid_max(sop: JonesVector, span: float, n: int = 16) -> float:
    """Brute-force maximum of |out_x|^2 over an n^4 grid on [0, span]^4.

    Built from the retarder matrices directly, independent of the package's
    cascade code: M0(d) = diag(e^{-id/2}, e^{id/2}) and
    M45(d) = [[cos(d/2), -i sin(d/2)], [-i sin(d/2), cos(d/2)]], applied
    in the order M0, M45, M0, M45, one broadcast axis per stage.
    """
    g = np.linspace(0.0, span, n)
    e, c, s = np.exp(-0.5j * g), np.cos(0.5 * g), np.sin(0.5 * g)

    def m0(x, y):
        e_ = e.reshape((n,) + (1,) * x.ndim)
        return e_ * x, np.conj(e_) * y

    def m45(x, y):
        c_ = c.reshape((n,) + (1,) * x.ndim)
        s_ = s.reshape((n,) + (1,) * x.ndim)
        return c_ * x - 1j * s_ * y, -1j * s_ * x + c_ * y

    x, y = np.array(sop.ex), np.array(sop.ey)
    x, y = m45(*m0(*m45(*m0(x, y))))
    return float(np.max(np.abs(x) ** 2))


@pytest.mark.parametrize("sop", EDGE_SOPS + [random_sop(np.random.default_rng(s))
                                             for s in range(8)])
def test_oracle_at_least_coarse_grid(sop):
    best, _ = oracle_best(sop, IDEAL)
    reference = grid_max(sop, IDEAL.tps.phase_max)
    assert reference > 0.9          # the grid is a meaningful reference
    assert best >= reference - 1e-12


_component = st.one_of(st.just(0.0),
                       st.floats(-1.0, 1.0, allow_subnormal=False))


@given(_component, _component, _component, _component)
def test_oracle_property_arbitrary_sop(a, b, c, d):
    raw = JonesVector(complex(a, b), complex(c, d))
    assume(raw.norm() >= 1e-6)
    sop = raw.normalized()
    best, phases = oracle_best(sop, IDEAL)
    span = IDEAL.tps.phase_max
    assert all(0.0 <= t <= span for t in phases)
    assert best >= 1.0 - 1e-12
    assert port_intensity(sop, phases) == best
