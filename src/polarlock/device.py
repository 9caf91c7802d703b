"""Chip model: thermo-optic phase shifters, the four-stage retarder cascade,
the grating-coupler polarization splitter with a finite static extinction
ratio, and noisy detectors.

The electrical model of one heater is P = V^2 / R and theta = c P +
theta_bias, i.e. the phase is linear in dissipated power and quadratic in
drive voltage.  Linearizing the composition gives the voltage increment that
realizes a small phase increment at operating point V:

    dV = R dtheta / (2 c V)

which shrinks as V grows; its value at V_max is the safest (smallest)
quantization step for a drive updated in fixed voltage ticks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .jones import JonesMatrix, JonesVector, make_m0, make_m45

#: default full controllable span of one heater, radians
PHASE_SPAN = 3.0 * math.pi

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


@dataclass(frozen=True, slots=True)
class TpsParams:
    """Electrical and dynamic constants of one thermal phase shifter.

    Defaults are the measured values of the fabricated heater: 1.97 kOhm
    resistance, 164.85 rad/W phase-per-power slope with a 0.93 rad zero-power
    offset, a 0-10 V drive producing roughly a 3*pi span, and 11 us / 5.9 us
    10-90% rise and fall times.
    """

    resistance: float = 1970.0      # ohm
    c_slope: float = 164.85         # rad per watt
    theta_bias: float = 0.93        # rad at zero power
    v_max: float = 10.0             # volt
    phase_max: float = PHASE_SPAN   # rad
    tau_rise: float = 11e-6         # s, 10-90% rise time
    tau_fall: float = 5.9e-6        # s, 10-90% fall time

    def __post_init__(self):
        for name in ("resistance", "c_slope", "v_max", "phase_max",
                     "tau_rise", "tau_fall"):
            _check_field(self, name, positive=True)
        if not 0.0 <= self.theta_bias < 2.0 * math.pi:
            raise ValueError("theta_bias must lie in [0, 2*pi)")


class PhaseQuad(NamedTuple):
    """The four controllable stage phases, the annealer's search point; a
    plain tuple, so any 4-tuple of floats serves wherever one is expected."""

    theta1: float
    theta2: float
    theta3: float
    theta4: float

    @classmethod
    def uniform(cls, theta: float) -> "PhaseQuad":
        return cls(theta, theta, theta, theta)


@dataclass(frozen=True, slots=True)
class DeviceParams:
    """Full simulated-device parameter block.

    ``static_er_db`` is the hardware extinction-ratio ceiling of the
    polarization splitter (None disables the floor entirely);
    ``noise_sigma`` lumps detector electronics and source power fluctuation
    into one additive Gaussian deviation per reading.  Intensities are
    normalized to unit input power.
    """

    tps: TpsParams = TpsParams()
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
    def ideal(cls, tps: TpsParams = TpsParams()) -> "DeviceParams":
        """Noise-free device with no extinction-ratio floor."""
        return cls(tps=tps, static_er_db=None, noise_sigma=0.0)


def voltage_to_power(v: float, tps: TpsParams) -> float:
    """Heater power V^2 / R in watts; ``v`` must lie in [0, v_max]."""
    if not 0.0 <= v <= tps.v_max:
        raise ValueError(f"voltage {v} outside drive range [0, {tps.v_max}]")
    return v * v / tps.resistance


def power_to_phase(p: float, tps: TpsParams) -> float:
    """Linear heater calibration theta = c P + theta_bias (radians)."""
    if p < 0.0:
        raise ValueError(f"power must be >= 0, got {p}")
    return tps.c_slope * p + tps.theta_bias


def voltage_to_phase(v: float, tps: TpsParams) -> float:
    """Composition of the two calibrations above."""
    return power_to_phase(voltage_to_power(v, tps), tps)


def phase_step_to_voltage_step(dtheta: float, v: float, tps: TpsParams) -> float:
    """Voltage increment realizing phase increment ``dtheta`` at operating
    point ``v``: R dtheta / (2 c V).  Singular at v = 0 (use the minimum
    operating voltage instead)."""
    if v <= 0.0:
        raise ValueError("voltage step is singular at v = 0; "
                         "evaluate at the minimum operating voltage")
    return tps.resistance * dtheta / (2.0 * tps.c_slope * v)


def dpc_transform(phases: PhaseQuad) -> JonesMatrix:
    """Transfer matrix of the four-stage cascade.

    Stage order seen by the light is 0deg, 45deg, 0deg, 45deg, so the
    product is M45(t4) @ M0(t3) @ M45(t2) @ M0(t1).
    """
    t1, t2, t3, t4 = phases
    return make_m45(t4) @ make_m0(t3) @ make_m45(t2) @ make_m0(t1)


def _cascade(sop: JonesVector, phases: PhaseQuad) -> tuple[complex, complex]:
    """Output field (ex, ey) of ``dpc_transform(phases) @ sop`` in scalar
    complex arithmetic, without building the matrices.

    The first row (b00, b01) is formed in the same order as the matrix
    chain: M45(t4) @ M0(t3), then @ M45(t2), then @ M0(t1).  The terms left
    out are those multiplying the exact zero off-diagonals of the M0 stages;
    for finite phases such a term is a signed zero, and adding it changes at
    most the sign of a zero.  The cascade is special unitary, so its second
    row is (-conj(b01), conj(b00)), and forming it so is exact too: each
    factor of the chain's second row is the conjugate, or the negated
    conjugate, of one in its first row (c2 and c4 are real, s2 and s4
    imaginary); negating or conjugating is exact; conj(x) * conj(y) ==
    conj(x * y) holds exactly; and IEEE sums and products commute.  So the
    result equals the matrix chain's, except at most in the sign of a zero,
    which no reading sees.
    """
    t1, t2, t3, t4 = phases
    if not (math.isfinite(t1) and math.isfinite(t2)
            and math.isfinite(t3) and math.isfinite(t4)):
        raise ValueError(f"stage phases must be finite, got {phases!r}")
    # the stage elements, exactly as make_m0 and make_m45 build them
    p1 = cmath.exp(-0.5j * t1)
    p3 = cmath.exp(-0.5j * t3)
    c2 = math.cos(0.5 * t2)
    s2 = -1.0j * math.sin(0.5 * t2)
    c4 = math.cos(0.5 * t4)
    s4 = -1.0j * math.sin(0.5 * t4)
    # the first row of M45(t4) @ M0(t3), then @ M45(t2), then @ M0(t1)
    a00 = c4 * p3
    a01 = s4 * p3.conjugate()
    b00 = (a00 * c2 + a01 * s2) * p1
    b01 = (a00 * s2 + a01 * c2) * p1.conjugate()
    # @ sop
    ex, ey = sop.ex, sop.ey
    return b00 * ex + b01 * ey, b00.conjugate() * ey - b01.conjugate() * ex


def measure(input_sop: JonesVector, phases: PhaseQuad, params: DeviceParams,
            rng, noise=None) -> tuple[float, float]:
    """Simulate one detector reading pair for a given input SOP and phase
    setting: a plain tuple of i_px (maximized port), i_py (minimized port).

    The ideal port powers come from the cascade transform; the minimized
    port is then floored at i_px * 10^(-static_er_db/10) (finite splitter
    extinction), Gaussian noise of deviation ``noise_sigma`` is added per
    detector, and the readings are clamped at zero.

    The noise is ``noise_sigma`` times a pair of standard normals, i_px's
    first: ``noise`` when given (a lock passes its pre-drawn row), else, on
    a bare call, one ``rng.standard_normal(2)`` (the same stream and bits as
    ``rng.normal(0.0, noise_sigma, 2)``).  A noiseless device reads neither,
    and ``rng`` may then be None.  Readings are Python floats in every case.
    """
    e_x, e_y = _cascade(input_sop, phases)
    i_px = e_x.real * e_x.real + e_x.imag * e_x.imag
    i_py = e_y.real * e_y.real + e_y.imag * e_y.imag

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


def thermal_step_response(v_from: float, v_to: float, t: float,
                          tps: TpsParams) -> float:
    """Phase at time ``t`` after stepping the drive from ``v_from`` to
    ``v_to`` at t = 0.

    First-order settling between the two steady-state phases; the
    exponential time constant is the 10-90% transition time divided by
    ln 9, with the rise constant used when the phase increases and the fall
    constant when it decreases.
    """
    if t < 0.0:
        raise ValueError("time must be >= 0")
    phi0 = voltage_to_phase(v_from, tps)
    phi1 = voltage_to_phase(v_to, tps)
    t1090 = tps.tau_rise if phi1 >= phi0 else tps.tau_fall
    tau = t1090 / _LN9
    return phi1 + (phi0 - phi1) * math.exp(-t / tau)
