#!/usr/bin/env python3
"""Walk through the Jones-calculus kernel: retarder matrices, the
coupler-sandwich identity behind the on-chip 45-deg stage, and Stokes
diagnostics on the Poincare sphere."""

import math

import numpy as np

from polarlock import (COUPLER_IN, COUPLER_OUT, JonesVector,
                       extinction_ratio_db, make_m0, make_m45, random_sop,
                       to_stokes)

SQ2 = 1.0 / math.sqrt(2.0)

print("=" * 70)
print("Retarder building blocks")
print("=" * 70)
for delta in (0.0, math.pi / 2, math.pi):
    m = make_m0(delta)
    print(f"\nM0(delta={delta:.3f}):")
    print(np.round(m.as_array(), 4))

print("\nThe 45-deg retarder is a phase stage between two 50/50 couplers:")
delta = 0.7
lhs = make_m45(delta).as_array()
rhs = (COUPLER_OUT @ make_m0(delta) @ COUPLER_IN).as_array()
print(f"max elementwise difference at delta={delta}: {abs(lhs - rhs).max():.2e}")

print("\n" + "=" * 70)
print("States and Stokes diagnostics")
print("=" * 70)
named = {
    "horizontal": JonesVector(1.0, 0.0),
    "vertical": JonesVector(0.0, 1.0),
    "diagonal +45": JonesVector(SQ2, SQ2),
    "circular (1,i)/sqrt2": JonesVector(SQ2, 1j * SQ2),
}
for name, v in named.items():
    s = to_stokes(v)
    print(f"{name:22s} -> (s1, s2, s3) = "
          f"({s.s1:+.3f}, {s.s2:+.3f}, {s.s3:+.3f})")

print("\nA half-wave 45-deg stage swaps the ports (up to global phase):")
out = make_m45(math.pi) @ JonesVector(1.0, 0.0)
print(f"M45(pi) @ (1, 0) = ({out.ex:.3f}, {out.ey:.3f}); "
      f"same SOP as vertical: {out.same_sop(JonesVector(0.0, 1.0))}")

print("\nExtinction ratio arithmetic:")
for ratio_db in (0.0, 25.0, 28.0):
    i_py = 10.0 ** (-ratio_db / 10.0)
    print(f"  i_py = i_px * 10^({-ratio_db/10:.2f}) -> "
          f"{extinction_ratio_db(1.0, i_py):.1f} dB")

print("\nRandom SOPs are uniform on the sphere (mean Stokes ~ 0):")
rng = np.random.default_rng(0)
acc = np.zeros(3)
n = 20000
for _ in range(n):
    s = to_stokes(random_sop(rng))
    acc += (s.s1, s.s2, s.s3)
print(f"  mean over {n} draws: {np.round(acc / n, 4)}")
