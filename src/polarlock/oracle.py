"""Closed-form optimality reference: the stage phases that steer an input
SOP fully into the maximized port.

On the Poincare sphere a 0-deg stage rotates the SOP about s1 and a 45-deg
stage rotates it about s2, so the first two stages alone reach any SOP
exactly.  M0(theta1) sets the relative phase arg(ey) - arg(ex) to pi/2,
which puts the SOP on the s2 = 0 great circle; M45 rotates along that
circle, and theta2 = 2 atan2(|ey|, |ex|) takes the SOP to the x state, all
power in the maximized port.  The last two stages stay at zero.

This is independent of the annealing controller, so it serves as an
oracle for it.
"""

from __future__ import annotations

import cmath
import math

from .device import DeviceParams, PhaseQuad, measure
from .jones import JonesVector


def port_intensity(sop: JonesVector, phases: PhaseQuad) -> float:
    """Ideal port power |out_x|^2: ``measure``'s i_px on the ideal device."""
    return measure(sop, phases, DeviceParams.ideal(), None)[0]


def oracle_best(sop: JonesVector, device: DeviceParams
                ) -> tuple[float, PhaseQuad]:
    """Globally maximize the ideal maximized-port power for one input SOP.

    Returns ``(port_intensity(sop, phases), phases)`` for the closed-form
    phases described in the module docstring.  Requires a noiseless device
    (the oracle is a ground-truth reference, not a simulation).
    """
    if device.noise_sigma != 0.0:
        raise ValueError("oracle_best requires a noiseless device")
    d = 0.0
    if sop.ex != 0 and sop.ey != 0:
        d = cmath.phase(sop.ey) - cmath.phase(sop.ex)
    theta1 = (0.5 * math.pi - d) % (2.0 * math.pi)
    theta2 = 2.0 * math.atan2(abs(sop.ey), abs(sop.ex))
    phases = PhaseQuad(theta1, theta2, 0.0, 0.0)
    return port_intensity(sop, phases), phases
