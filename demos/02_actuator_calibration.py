#!/usr/bin/env python3
"""Characterize the simulated thermal phase shifter: the quadratic
voltage-to-power law, the linear power-to-phase calibration, the voltage
quantization steps it implies, and the first-order thermal settling."""

import numpy as np

from polarlock import (phase_step_to_voltage_step, thermal_step_response,
                       voltage_to_phase, voltage_to_power)
from polarlock.device import (C_SLOPE, RESISTANCE, TAU_FALL, THETA_BIAS,
                              V_MAX)

print("=" * 70)
print(f"Heater: R = {RESISTANCE:.0f} ohm, slope = {C_SLOPE} rad/W, "
      f"bias = {THETA_BIAS} rad")
print("=" * 70)
print(f"{'V (V)':>6} {'P (mW)':>9} {'theta (rad)':>12} {'theta/pi':>9}")
for v in np.linspace(0.0, V_MAX, 11):
    p = voltage_to_power(v)
    theta = voltage_to_phase(v)
    print(f"{v:6.1f} {p*1e3:9.2f} {theta:12.3f} {theta/np.pi:9.3f}")

print("\nVoltage ticks that realize a given phase step (dV = R dtheta / 2cV):")
print(f"{'dtheta (rad)':>13} {'dV @ 10V (mV)':>14} {'dV @ 5V (mV)':>13}")
for dtheta in (0.16, 0.08, 0.03, 0.008):
    dv10 = phase_step_to_voltage_step(dtheta, 10.0) * 1e3
    dv5 = phase_step_to_voltage_step(dtheta, 5.0) * 1e3
    print(f"{dtheta:13.3f} {dv10:14.2f} {dv5:13.2f}")
print("The two drive ticks used by the fixed-step baselines, 0.1 V and "
      "0.005 V,\ncorrespond to the 0.16 rad and 0.008 rad schedule entries "
      "at full drive.")

print("\nThermal settling after a 0 -> 5.6 V step (10-90% rise time 11 us):")
phi0 = voltage_to_phase(0.0)
phi1 = voltage_to_phase(5.6)
print(f"{'t (us)':>7} {'phase (rad)':>12} {'fraction of swing':>18}")
for t_us in (0.0, 2.0, 5.0, 11.0, 20.0, 40.0):
    phi = thermal_step_response(0.0, 5.6, t_us * 1e-6)
    print(f"{t_us:7.1f} {phi:12.4f} {(phi - phi0) / (phi1 - phi0):18.4f}")
print(f"(falling edge uses the faster {TAU_FALL*1e6:.1f} us constant)")
