#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny size (under a minute):

    python3 bench/smoke.py

Runs every workload untraced and traced with ``--tiny``, and checks that
the last output line is the JSON result with exactly the BENCHMARK.json
metrics and units, that every end-to-end metric of the workload and every
per-layer metric it reaches is printed with its unit, and that the
benchmark refuses to run from a directory without the package source.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

COMMON = {"setup_s": "s", "wall_s": "s", "lock_iters_per_s": "1/s",
          "trial_ms_p50": "ms", "trial_ms_tail": "ms", "peak_rss_mb": "MB",
          "failed_frac": "ratio", "final_er_db_p50": "dB"}
E2E = {
    "ensemble_static": {**COMMON, "crossing_25db_iter": "iterations"},
    "disturbed_channel": {**COMMON, "relock_iters_p50": "iterations",
                          "relock_miss_frac": "ratio"},
    "oracle_reference": {**COMMON, "oracle_shortfall_max": "1",
                         "controller_optimal_frac": "ratio"},
}
LAYER_ALL = {
    "anneal.run_lock_calls": "count", "anneal.iters": "count",
    "anneal.self_us_per_iter": "us", "anneal.accept_ratio": "ratio",
    "anneal.propose_us": "us", "anneal.accept_us": "us",
    "anneal.step_for_gap_us": "us", "device.measure_calls": "count",
    "device.measure_us": "us", "device.measure_share": "ratio",
    "device.dpc_transform_us": "us", "jones.make_m0_us": "us",
    "jones.make_m45_us": "us", "jones.matmul_us": "us",
    "jones.random_sop_us": "us", "disturbance.rotate_sop_calls": "count",
    "disturbance.relock_calls": "count",
    "oracle.port_intensity_calls": "count", "harness.write_rows_bytes": "bytes",
    "config.load_ms": "ms", "trace.overhead_s": "s",
    "device.measure_micro_us": "us", "disturbance.objective_call_us": "us",
    "disturbance.rotate_sop_us": "us", "oracle.port_intensity_us": "us",
}
LAYER = {
    "ensemble_static": {**LAYER_ALL, "harness.lock_s": "s",
                        "harness.write_rows_s": "s",
                        "harness.aggregate_s": "s"},
    "disturbed_channel": {**LAYER_ALL, "disturbance.advance_us": "us"},
    "oracle_reference": {**LAYER_ALL, "oracle.oracle_best_ms": "ms",
                         "oracle.grid_ms": "ms",
                         "oracle.refine_share": "ratio"},
}


def _fail(msg: str) -> None:
    print(f"smoke: FAIL {msg}")
    sys.exit(1)


def _printed_metrics(stdout: str) -> dict[str, str]:
    """name -> unit from lines 'metric NAME = VALUE UNIT [note]'."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if parts[:1] == ["metric"] and len(parts) >= 5 and parts[2] == "=":
            out[parts[1]] = parts[4]
    return out


def _run(workload: str, trace: int, spec: dict) -> None:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    tag = f"{workload} trace={trace}"
    if done.returncode != 0:
        _fail(f"{tag}: exit {done.returncode}\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        _fail(f"{tag}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        _fail(f"{tag}: not correct: {result}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        _fail(f"{tag}: attempted {result['attempted']!r}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        _fail(f"{tag}: JSON metrics {sorted(got)}")
    for m in wanted:
        entry = got[m["name"]]
        if entry["unit"] != m["unit"] or not isinstance(entry["value"], float):
            _fail(f"{tag}: {m['name']} -> {entry}")
    printed = _printed_metrics(done.stdout)
    expected = (LAYER if trace else E2E)[workload]
    for name, unit in expected.items():
        if printed.get(name) != unit:
            _fail(f"{tag}: metric {name} printed with unit "
                  f"{printed.get(name)!r}, expected {unit!r}")
    for m in wanted:
        if printed.get(m["name"]) != m["unit"]:
            _fail(f"{tag}: BENCHMARK.json metric {m['name']} not printed "
                  f"with unit {m['unit']}")
    print(f"smoke: ok {tag}: {len(printed)} metrics printed")


def _refuses_without_source() -> None:
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload",
             "ensemble_static", "--seed", "0", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        _fail(f"ran without package source: exit {done.returncode}")
    print(f"smoke: ok refuses to run without package source "
          f"(exit {done.returncode})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in E2E:
        for trace in (0, 1):
            _run(workload, trace, spec)
    _refuses_without_source()
    return 0


if __name__ == "__main__":
    sys.exit(main())
