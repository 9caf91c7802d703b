#!/usr/bin/env python3
"""Compare the variable-step schedule against the two fixed-step baselines
on a seeded ensemble: the large fixed step locks fast but plateaus low, the
small one locks slowly, and the gap-driven schedule gets both right.

Writes the full per-iteration table and percentile curves next to this
script; any plotting tool can consume the CSVs.
"""

import os

from polarlock import ExperimentConfig, run_experiment, summarize
from dataclasses import replace

TRIALS = 40   # the acceptance-grade run uses 200; 40 keeps this quick

cfg = replace(ExperimentConfig(), trials=TRIALS,
              output_path=os.path.join(os.path.dirname(__file__) or ".",
                                       "step_strategy.csv"))
print(f"running {TRIALS} trials x {[v.label for v in cfg.variants]} ...")
table = run_experiment(cfg)

print(f"\nmedian ER (dB) across {TRIALS} seeds:")
checkpoints = (25, 50, 100, 200, 350, 500)
header = "".join(f"{k:>9}" for k in checkpoints)
print(f"{'iteration':>14}{header}")
for label in table.variant_order:
    med = table.median_er_curve(label)
    row = "".join(f"{med[k - 1]:9.2f}" for k in checkpoints)
    print(f"{label:>14}{row}")

print("\n25 dB crossings of the median curve:")
for label in table.variant_order:
    crossing = table.first_crossing(label)
    print(f"  {label:14s}: {crossing if crossing else 'not within the run'}")

table.write_csv(cfg.output_path)
stem, ext = os.path.splitext(cfg.output_path)
table.write_aggregate_csv(f"{stem}_aggregate{ext}")
print(f"\nrows -> {cfg.output_path}")
print(f"percentile curves -> {stem}_aggregate{ext}")
print("\nsummary:\n" + summarize(table))
