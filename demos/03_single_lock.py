#!/usr/bin/env python3
"""One locking run, end to end: draw a random input SOP, lock it onto the
x port with the variable-step annealer, and show how the step schedule and
extinction ratio evolve."""

import numpy as np

from polarlock import (AnnealConfig, DeviceParams, bind_objective,
                       port_intensity, random_sop, run_lock)

SEED = 7

dev = DeviceParams()          # 28 dB static floor, 5e-4 detector noise
cfg = AnnealConfig()          # variable schedule, 10 x 50 iterations
rng = np.random.default_rng(SEED)
sop = random_sop(rng)

print(f"input SOP: ex = {sop.ex:.4f}, ey = {sop.ey:.4f}")
trace = run_lock(bind_objective(sop, dev, rng), cfg, dev.tps, rng)
i_px0, _ = trace.initial_sample
print(f"initial reading: i_px = {i_px0:.4f} "
      f"(ER {trace.initial_er_db:+.2f} dB)\n")

print(f"{'iter':>5} {'step (rad)':>11} {'i_px':>8} {'ER (dB)':>8} {'best':>9}")
for k in (1, 5, 10, 20, 40, 70, 100, 150, 250, 500):
    i = k - 1
    print(f"{k:5d} {trace.step_rad[i]:11.3f} {trace.i_px[i]:8.4f} "
          f"{trace.er_db[i]:8.2f} {trace.i_max[i]:9.5f}")

print(f"\nbest reading {trace.best_intensity:.6f} at iteration "
      f"{trace.best_iteration}")
print(f"lock point: {np.round(trace.best_phases, 4)} rad")
print(f"true (noise-free) intensity there: "
      f"{port_intensity(sop, trace.best_phases):.6f}")
print(f"acceptance rate over the run: {trace.accepted.mean():.2f}")
print(f"final extinction ratio sample: {trace.final_er_db:.2f} dB "
      f"(hardware ceiling is 28 dB)")
