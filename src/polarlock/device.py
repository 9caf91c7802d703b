"""Chip model: thermo-optic phase shifters, the four-stage retarder cascade,
the grating-coupler polarization splitter with a finite static extinction
ratio, and noisy detectors.

The electrical model of one heater is P = V^2 / R and theta = c P +
theta_bias, i.e. the phase is linear in dissipated power and quadratic in
drive voltage.  Linearizing the composition gives the voltage increment that
realizes a small phase increment at operating point V:

    dV = R dtheta / (2 c V)

which shrinks as V grows; its value at V_MAX is the safest (smallest)
quantization step for a drive updated in fixed voltage ticks.

``measure``, which every lock evaluation calls, forms ``dpc_transform``'s
field in plain float arithmetic, equal to the matrix chain's up to the sign
of a zero; its docstring gives the argument.
"""

from __future__ import annotations

import math
import operator
from math import cos, isfinite, sin
from dataclasses import field
from typing import ClassVar, NamedTuple

from .jones import JonesMatrix, JonesVector, _frozen, make_m0, make_m45

#: the controllable span of one heater, radians
PHASE_SPAN = 3.0 * math.pi

#: the measured calibration of the fabricated heater: a 0-10 V drive moves
#: its phase from the zero-power bias to about 9.30 rad
RESISTANCE = 1970.0     # ohm
C_SLOPE = 164.85        # rad per watt
THETA_BIAS = 0.93       # rad at zero power
V_MAX = 10.0            # volt
TAU_RISE = 11e-6        # s, 10-90% rise time
TAU_FALL = 5.9e-6       # s, 10-90% fall time

# first-order step response: a 10-90% transition time t maps to the
# exponential time constant t / ln 9
_LN9 = math.log(9.0)


def _check_field(params, name: str, positive: bool) -> None:
    """Raise ValueError naming field ``name`` of ``params`` unless it is a
    finite number, > 0 when ``positive``, else >= 0."""
    value = getattr(params, name)
    if not ((0.0 < value if positive else 0.0 <= value) and value < math.inf):
        raise ValueError(f"{name} must be a finite number "
                         f"{'> 0' if positive else '>= 0'}, got {value!r}")


def _check_int(params, name: str) -> None:
    """Raise ValueError naming field ``name`` of ``params`` unless it is an
    integer, a Python or a numpy one (``operator.index`` takes it)."""
    value = getattr(params, name)
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@_frozen
class TpsParams:
    """The heater as a lock reads it: ``phase_max``, the span ``PHASE_SPAN``
    that each stage phase searches.  Like the calibration, it is a constant,
    so the class holds no field."""

    phase_max: ClassVar[float] = PHASE_SPAN   # rad


class PhaseQuad(NamedTuple):
    """The four controllable stage phases, the annealer's search point; a
    plain tuple, so any 4-tuple of floats serves wherever one is expected."""

    theta1: float
    theta2: float
    theta3: float
    theta4: float


@_frozen
class DeviceParams:
    """Full simulated-device parameter block.

    ``static_er_db`` is the hardware extinction-ratio ceiling of the
    polarization splitter (None disables the floor entirely);
    ``noise_sigma`` lumps detector electronics and source power fluctuation
    into one additive Gaussian deviation per reading.  Intensities are
    normalized to unit input power.  ``tps`` is always ``TpsParams()``, not
    an argument.
    """

    tps: TpsParams = field(default=TpsParams(), init=False, repr=False)
    static_er_db: float | None = 28.0
    noise_sigma: float = 5e-4
    # 10^(-static_er_db/10), the splitter's floor on i_py / i_px, or None
    _py_floor: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.static_er_db is not None:
            _check_field(self, "static_er_db", positive=True)
        _check_field(self, "noise_sigma", positive=False)
        # numpy's normals stay below 14 in size: no reading's ER can overflow
        if self.noise_sigma > 1e294:
            raise ValueError("noise_sigma must be <= 1e294, got "
                             f"{self.noise_sigma!r}")
        object.__setattr__(self, "_py_floor", None if self.static_er_db is None
                           else 10.0 ** (-self.static_er_db / 10.0))

    @classmethod
    def ideal(cls) -> "DeviceParams":
        """Noise-free device with no extinction-ratio floor."""
        return cls(static_er_db=None, noise_sigma=0.0)


def voltage_to_power(v: float) -> float:
    """Heater power V^2 / R in watts; ``v`` must lie in [0, V_MAX]."""
    if not 0.0 <= v <= V_MAX:
        raise ValueError(f"voltage {v} outside drive range [0, {V_MAX}]")
    return v * v / RESISTANCE


def power_to_phase(p: float) -> float:
    """Linear heater calibration theta = c P + theta_bias (radians)."""
    if p < 0.0:
        raise ValueError(f"power must be >= 0, got {p}")
    return C_SLOPE * p + THETA_BIAS


def voltage_to_phase(v: float) -> float:
    """Composition of the two calibrations above."""
    return power_to_phase(voltage_to_power(v))


def phase_step_to_voltage_step(dtheta: float, v: float) -> float:
    """Voltage increment realizing phase increment ``dtheta`` at operating
    point ``v``: R dtheta / (2 c V).  Singular at v = 0 (use the minimum
    operating voltage instead)."""
    if v <= 0.0:
        raise ValueError("voltage step is singular at v = 0; "
                         "evaluate at the minimum operating voltage")
    return RESISTANCE * dtheta / (2.0 * C_SLOPE * v)


def dpc_transform(phases: PhaseQuad) -> JonesMatrix:
    """Transfer matrix of the four-stage cascade.

    Stage order seen by the light is 0deg, 45deg, 0deg, 45deg, so the
    product is M45(t4) @ M0(t3) @ M45(t2) @ M0(t1).
    """
    t1, t2, t3, t4 = phases
    return make_m45(t4) @ make_m0(t3) @ make_m45(t2) @ make_m0(t1)


def measure(input_sop: JonesVector, phases: PhaseQuad, params: DeviceParams,
            rng, noise=None) -> tuple[float, float]:
    """Simulate one detector reading pair for a given input SOP and phase
    setting: a plain tuple of i_px (maximized port), i_py (minimized port).

    The ideal port powers are those of ``dpc_transform(phases) @
    input_sop``; the minimized port is then floored at i_px *
    10^(-static_er_db/10) (finite splitter extinction), Gaussian noise of
    deviation ``noise_sigma`` is added per detector, and the readings are
    clamped at zero.

    The noise is ``noise_sigma`` times a pair of standard normals, i_px's
    first: ``noise`` when given (a lock passes its pre-drawn row), else, on
    a bare call, one ``rng.standard_normal(2)`` (the same stream and bits as
    ``rng.normal(0.0, noise_sigma, 2)``).  A noiseless device reads neither,
    and ``rng`` may then be None.  Readings are Python floats in every case.

    The field is formed in real float arithmetic on the SOP's four parts,
    and equals the matrix chain's (M45(t4) @ M0(t3), then @ M45(t2), @
    M0(t1), @ sop) up to the sign of a zero, which no reading sees:

    * each complex product is CPython's, (a+bi)(c+di) = (ac - bd) +
      (ad + bc)i, written out term by term in the chain's order;
    * the terms left out multiply an exact zero: the M0 stages' zero
      off-diagonals, and the zero imaginary part of the M45 diagonal and
      real part of its off-diagonal.  For finite phases each is a signed
      zero, and adding one changes at most the sign of a zero;
    * cmath.exp(-0.5j * t) is cos and sin of -0.5 t times exp(0.0) == 1.0;
    * negation is exact, so signs move freely between factors and sums;
    * the cascade is special unitary, so its second row is (-conj(b01),
      conj(b00)) of its first (b00, b01).  That is exact too: each factor
      of the chain's second row is the conjugate, or the negated conjugate,
      of one in its first row, and conj(x) * conj(y) == conj(x * y).

    A NaN or infinite phase or SOP component, or an SOP whose port powers
    overflow, raises ValueError naming both.  One test of i_px + i_py finds
    them all: the trig raises on an infinite phase, which then stands as
    NaN, and a NaN or an infinity propagates through every product and sum.
    """
    t1, t2, t3, t4 = phases
    try:
        # M0(t) = diag(c + s i, c - s i), c, s = cos, sin of -0.5 t, and
        # M45(t) = [[c, -s i], [-s i, c]], c, s = cos, sin of 0.5 t
        h = -0.5 * t1
        c1, s1 = cos(h), sin(h)
        h = -0.5 * t3
        c3, s3 = cos(h), sin(h)
        h = 0.5 * t2
        c2, s2 = cos(h), sin(h)
        h = 0.5 * t4
        c4, s4 = cos(h), sin(h)
    except ValueError:
        c1 = s1 = c2 = s2 = c3 = s3 = c4 = s4 = math.nan
    # the first row of M45(t4) @ M0(t3): (a + b i, -(c + d i))
    a, b = c4 * c3, c4 * s3
    c, d = s4 * s3, s4 * c3
    # @ M45(t2): (ur + ui i, vr - v i)
    ur, ui = a * c2 - d * s2, b * c2 + c * s2
    vr, v = b * s2 - c * c2, a * s2 + d * c2
    # @ M0(t1): (b00r + b00i i, b01r - g i)
    b00r, b00i = ur * c1 - ui * s1, ur * s1 + ui * c1
    b01r, g = vr * c1 - v * s1, vr * s1 + v * c1
    # @ sop
    xr, xi, yr, yi = input_sop._parts
    e = (b00r * xr - b00i * xi) + (b01r * yr + g * yi)
    f = (b00r * xi + b00i * xr) + (b01r * yi - g * yr)
    i_px = e * e + f * f
    e = (b00r * yr + b00i * yi) - (b01r * xr - g * xi)
    f = (b00r * yi - b00i * yr) - (b01r * xi + g * xr)
    i_py = e * e + f * f
    if not isfinite(i_px + i_py):
        raise ValueError("stage phases and input SOP must be finite, and "
                         f"so must their port powers, got {phases!r} and "
                         f"{input_sop!r}")

    floor = params._py_floor
    if floor is not None:
        floor = i_px * floor
        if floor > i_py:
            i_py = floor

    sigma = params.noise_sigma
    if sigma > 0.0:
        if noise is None:
            if rng is None:
                raise ValueError("measure needs an rng when noise_sigma > 0")
            noise = rng.standard_normal(2).tolist()
        z_px, z_py = noise
        i_px += sigma * z_px
        i_py += sigma * z_py

    if i_px < 0.0:
        i_px = 0.0
    if i_py < 0.0:
        i_py = 0.0
    return i_px, i_py


def thermal_step_response(v_from: float, v_to: float, t: float) -> float:
    """Phase at time ``t`` after stepping the drive from ``v_from`` to
    ``v_to`` at t = 0.

    First-order settling between the two steady-state phases; the
    exponential time constant is the 10-90% transition time divided by
    ln 9, with the rise constant used when the phase increases and the fall
    constant when it decreases.
    """
    if t < 0.0:
        raise ValueError("time must be >= 0")
    phi0 = voltage_to_phase(v_from)
    phi1 = voltage_to_phase(v_to)
    t1090 = TAU_RISE if phi1 >= phi0 else TAU_FALL
    tau = t1090 / _LN9
    return phi1 + (phi0 - phi1) * math.exp(-t / tau)
