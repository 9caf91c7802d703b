#!/usr/bin/env python3
"""polarlock benchmark: one workload, one serial process, closed loop.

    python3 bench/run.py --workload ensemble_static --seed 1 --seconds 20 --trace 0

Repeats the workload's seeded pass for ``--seconds`` seconds, checks every
pass for correctness and determinism, prints each metric by name with its
unit, and ends with one JSON line holding ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The full record of
a run goes to ``.bench_out/`` at the root of the checkout.  Exit code 0 when
every check passed, 1 when one failed, 2 when the package source is missing.
Workloads and metrics are described in README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("ensemble_static", "disturbed_channel", "oracle_reference")

#: fresh processes timed per run for setup_s, one before the first pass and
#: one after each pass, so that they spread over the run
SETUP_SAMPLES = 7
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: end-to-end metric -> (unit, workloads it applies to, or None for all)
E2E = {
    "setup_s": ("s", None),
    "wall_s": ("s", None),
    "lock_iters_per_s": ("1/s", None),
    "trial_ms_p50": ("ms", None),
    "trial_ms_tail": ("ms", None),
    "peak_rss_mb": ("MB", None),
    "failed_frac": ("ratio", None),
    "final_er_db_p50": ("dB", None),
    "crossing_25db_iter": ("iterations", {"ensemble_static"}),
    "relock_iters_p50": ("iterations", {"disturbed_channel"}),
    "relock_miss_frac": ("ratio", {"disturbed_channel"}),
    "oracle_shortfall_max": ("1", {"oracle_reference"}),
    "controller_optimal_frac": ("ratio", {"oracle_reference"}),
}

#: per-layer metric -> unit; the traced run prints those its workload reaches
LAYER_UNITS = {
    "harness.lock_s": "s", "harness.write_rows_s": "s",
    "harness.write_rows_bytes": "bytes", "harness.aggregate_s": "s",
    "anneal.run_lock_calls": "count", "anneal.iters": "count",
    "anneal.self_us_per_iter": "us", "anneal.accept_ratio": "ratio",
    "anneal.propose_us": "us", "anneal.accept_us": "us",
    "anneal.step_for_gap_us": "us",
    "device.measure_calls": "count", "device.measure_us": "us",
    "device.measure_share": "ratio", "device.dpc_transform_us": "us",
    "device.measure_micro_us": "us",
    "jones.make_m0_us": "us", "jones.make_m45_us": "us",
    "jones.matmul_us": "us", "jones.random_sop_us": "us",
    "disturbance.advance_us": "us", "disturbance.rotate_sop_calls": "count",
    "disturbance.relock_calls": "count",
    "disturbance.objective_call_us": "us", "disturbance.rotate_sop_us": "us",
    "oracle.oracle_best_ms": "ms", "oracle.port_intensity_calls": "count",
    "oracle.grid_ms": "ms", "oracle.refine_share": "ratio",
    "oracle.port_intensity_us": "us",
    "config.load_ms": "ms",
    "trace.overhead_s": "s",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True,
                   help="workload seed; the same seed gives the same inputs")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measurement time (a run always completes at least "
                        "the passes its tail percentile needs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting per-layer metrics")
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)  # one setup_s sample, in a child
    return p.parse_args(argv)


def _environment() -> dict:
    """Read-only facts about the host, taken before any work starts."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "loadavg_at_start": list(os.getloadavg()),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _code_digest() -> str:
    """SHA-256 of the package and benchmark sources: what 'same code' means
    when digests of different runs are compared."""
    h = hashlib.sha256()
    for path in sorted((SRC / "polarlock").glob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _setup_sample(args) -> tuple[float, float]:
    """Time the workload's setup (import, config resolution, input
    generation) in a fresh process: (host seconds, calibration scale)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    host, scale = done.stdout.split()[-2:]
    return float(host), float(scale)


def _setup_only(args) -> int:
    t0 = perf_counter()
    import workloads
    workloads.make(args.workload, args.seed, args.tiny, str(OUT))
    host = perf_counter() - t0
    speed = workloads.HostSpeed()
    for _ in range(5):
        speed.sample()
    print(f"setup_s {host!r} {speed.nominal / statistics.median(speed.blocks)!r}")
    return 0


def _run_passes(wl, clock, seconds: float, min_trials: int,
                between=None) -> list:
    """Repeat passes until ``seconds`` have passed and ``min_trials`` trials
    are done, calling ``between()`` after each pass.  A pass that raises
    ends the loop and counts as failed.

    Each pass's ``wall_s`` excludes the calibration blocks run inside it.
    """
    from workloads import PassResult
    passes = []
    trials = 0
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline or trials < min_trials:
        t0 = perf_counter()
        spent = clock.speed.spent if clock.speed else 0.0
        first = len(clock.ms)
        try:
            result = wl.run_pass()
        except Exception as exc:  # report the failure and stop the run
            traceback.print_exc()
            passes.append(PassResult(
                wall_s=perf_counter() - t0, trials=wl.trials_per_pass,
                evaluations=0, failed_trials=wl.trials_per_pass, digests={},
                sim={}, check=f"pass raised {type(exc).__name__}",
                check_detail=str(exc)))
            break
        if clock.speed:
            result.wall_s -= clock.speed.spent - spent
        result.trial_ids = range(first, len(clock.ms))
        passes.append(result)
        trials += result.trials
        if between:
            between()
    return passes


def _determinism(key: str, passes: list) -> tuple[bool, str, dict]:
    """All passes of this run, and every earlier run of the same code and
    seed recorded in .bench_out/digests.json, must give the same digests."""
    digests = passes[0].digests
    same = all(p.digests == digests for p in passes) and bool(digests)
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    previous = known.get(key)
    if same and previous is None:
        known[key] = digests
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
    agrees = previous is None or previous == digests
    detail = (f"{len(passes)} passes {'agree' if same else 'DISAGREE'}; "
              + ("first run of this code and seed" if previous is None
                 else f"{'matches' if agrees else 'DIFFERS FROM'} "
                      "the digests of an earlier run"))
    return same and agrees, detail, digests


def _plain_run(args, workloads, patches, workdir):
    """Untraced passes with calibrated timing, and setup samples taken in
    fresh processes before the first pass and after each pass.  Returns the
    workload, its clock, the passes and the setup samples."""
    wl = workloads.make(args.workload, args.seed, args.tiny, workdir)
    clock = workloads.TrialClock(workloads.HostSpeed(wl.reference))
    wl.install(patches, clock)
    min_trials = 0 if args.tiny else math.ceil(10 / (1 - wl.tail_pct / 100))
    n_setup = 1 if args.tiny else SETUP_SAMPLES
    setup: list[tuple[float, float]] = []

    def sample_setup():
        if len(setup) < n_setup:
            setup.append(_setup_sample(args))
    sample_setup()
    passes = _run_passes(wl, clock, args.seconds, min_trials, sample_setup)
    while len(setup) < n_setup:
        sample_setup()
    return wl, clock, passes, setup


def _traced_run(args, workloads, patches, workdir):
    """Untraced passes for half the time, then traced passes for the other
    half, then the micro-timing table.  Returns all passes and the
    per-layer metrics."""
    from micro import micro_table
    from tracing import Tracer
    clock = workloads.TrialClock()
    wl = workloads.make(args.workload, args.seed, args.tiny, workdir)
    wl.install(patches, clock)
    plain = _run_passes(wl, clock, args.seconds / 2, 0)
    patches.restore()
    tracer = Tracer(clock)
    tracer.install(patches)
    # set up again under the tracer, so config resolution is traced
    wl = workloads.make(args.workload, args.seed, args.tiny, workdir)
    wl.install(patches, clock)
    traced = _run_passes(wl, clock, args.seconds / 2, 0)
    patches.restore()
    layer = tracer.layer_metrics(
        len(traced), traced[0].layer.get("harness.write_rows_bytes", 0))
    layer.update(micro_table(args.seed, args.tiny))
    layer["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                 - statistics.median(p.wall_s for p in plain))
    tracer.write_csv(OUT / f"{args.workload}.spans.csv")
    return plain + traced, layer


def _end_to_end(passes, clock, setup, tail_pct, failed_frac):
    """End-to-end metrics with host times calibrated (see HostSpeed), the
    same host times uncalibrated, and how the tail was taken."""
    import numpy as np
    ms = np.asarray(clock.ms or [math.nan])
    cal_ms = ms * clock.speed.scales_at(clock.end or [0.0])
    # a pass's scale is that of its trials, weighted by their time
    cal = [float(cal_ms[p.trial_ids].sum() / ms[p.trial_ids].sum())
           if len(p.trial_ids) else math.nan for p in passes]
    tail = float(np.percentile(cal_ms, tail_pct))
    note = (f"p{tail_pct:g} of {cal_ms.size} trials, "
            f"{int(np.sum(cal_ms > tail))} beyond it")
    values = {
        "setup_s": statistics.median(h * c for h, c in setup),
        "wall_s": statistics.median(p.wall_s * c for p, c in zip(passes, cal)),
        "lock_iters_per_s": statistics.median(
            p.evaluations / (p.wall_s * c) for p, c in zip(passes, cal)),
        "trial_ms_p50": float(np.median(cal_ms)),
        "trial_ms_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": failed_frac,
        **passes[0].sim,
    }
    raw = {
        "setup_s": statistics.median(h for h, _ in setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "lock_iters_per_s": statistics.median(
            p.evaluations / p.wall_s for p in passes),
        "trial_ms_p50": float(np.median(ms)),
        "trial_ms_tail": float(np.percentile(ms, tail_pct)),
    }
    return values, raw, note


def _fmt(value) -> str:
    return "none" if value is None else repr(value)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "polarlock" / "__init__.py").is_file():
        print(f"run.py: package source not found under {SRC}; run the "
              "benchmark from the root of a full checkout", file=sys.stderr)
        return 2
    os.environ.pop("POLARLOCK_THREADS", None)
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        return _setup_only(args)

    env = _environment()
    OUT.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import numpy as np
    import workloads
    env["numpy"] = np.__version__
    print("env " + json.dumps(env, sort_keys=True))

    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    patches = workloads.Patches()
    try:
        if args.trace:
            passes, layer = _traced_run(args, workloads, patches, workdir)
        else:
            wl, clock, passes, setup = _plain_run(args, workloads, patches,
                                                  workdir)
    finally:
        patches.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    key = (f"{args.workload}:seed={args.seed}:{'tiny' if args.tiny else 'full'}"
           f":{_code_digest()}")
    det_ok, det_detail, digests = _determinism(key, passes)
    checks = [(p.check, p.check_detail) for p in passes]
    attempted = sum(p.trials for p in passes) + len(checks) + 1
    failed = (sum(p.failed_trials for p in passes)
              + sum(c is not None for c, _ in checks) + (not det_ok))
    correct = failed == 0

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "env": env, "digests": digests,
              "pass_wall_s": [p.wall_s for p in passes]}
    lines = [f"workload {args.workload} seed {args.seed}: {len(passes)} passes,"
             f" {sum(p.trials for p in passes)} trials"]
    failing = [(c, d) for c, d in checks if c is not None]
    check, detail = failing[0] if failing else ("ok", checks[0][1])
    lines.append(f"check correctness {check}: {detail}")
    lines.append(f"check determinism {'ok' if det_ok else 'FAILED'}: {det_detail}")
    for name, value in digests.items():
        lines.append(f"digest {name} sha256 {value}")

    if args.trace:
        values = layer
        wanted = spec["per_layer"]
        record["layer"] = layer
        for name in sorted(layer):
            lines.append(f"metric {name} = {_fmt(layer[name])} {LAYER_UNITS[name]}")
    else:
        values, raw, tail_note = _end_to_end(passes, clock, setup,
                                             wl.tail_pct, failed / attempted)
        record.update(metrics=values, host_time_uncalibrated=raw,
                      setup_samples=setup, trial_ms_tail_basis=tail_note)
        wanted = spec["end_to_end"]
        for name, (unit, where) in E2E.items():
            if where is None or args.workload in where:
                note = f"  ({tail_note})" if name == "trial_ms_tail" else ""
                lines.append(f"metric {name} = {_fmt(values.get(name))} {unit}{note}")
        for name, value in raw.items():
            lines.append(f"uncalibrated {name} = {value!r} {E2E[name][0]}")
    print("\n".join(lines))

    record.update(correct=correct, attempted=attempted, failed=failed)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in wanted}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
