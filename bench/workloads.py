"""The three benchmark workloads: seeded inputs, one pass of work, and the
correctness check every pass must satisfy.

A pass is a fixed unit of work determined by the seed alone, so every pass
of a run must give byte-identical results; the runner repeats passes for the
requested time and compares their digests.  Each workload calls into the
package through module attributes (``anneal.run_lock``, not a name imported
here), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import math
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from polarlock import anneal, cli, config, disturbance, harness, oracle
from polarlock.jones import random_sop

#: trial seeds of ``--seed n`` are ``n * SEED_STRIDE + k``
SEED_STRIDE = 10_000

# a reading above this (unit input power plus generous noise) is out of range
_MAX_INTENSITY = 1.01


class HostSpeed:
    """How fast the host runs right now, from a fixed reference block.

    A shared host can run the same code 30% slower for tens of seconds at a
    time.  Every ``INTERVAL_S``, between trials, the reference block is
    timed.  ``scales_at`` then converts host seconds measured at given
    moments into calibrated seconds: host seconds on a host where the block
    takes exactly its nominal time.  ``spent`` is the host time the blocks
    took, which callers subtract from what they timed around them.

    Two blocks cover the two kinds of work in the workloads: ``python``, a
    scalar interpreter loop, and ``numpy``, one step of the oracle's grid
    search on 64^3 complex arrays.  Neither uses package code, so no change
    to the package can move them.
    """

    NOMINAL_S = {"python": 1e-3, "numpy": 4e-3}
    INTERVAL_S = 0.05
    # fastest of three numpy blocks: a single one is sometimes slowed by
    # page faults of its own temporaries that the workload does not pay
    REPEATS = {"python": 1, "numpy": 3}

    def __init__(self, kind: str = "python"):
        self.nominal = self.NOMINAL_S[kind]
        self._block = _python_block if kind == "python" else _numpy_block()
        self._repeats = self.REPEATS[kind]
        self.times: list[float] = []
        self.blocks: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        best = math.inf
        for _ in range(self._repeats):
            t0 = perf_counter()
            self._block()
            t1 = perf_counter()
            best = min(best, t1 - t0)
            self.spent += t1 - t0
        self.times.append(t1)
        self.blocks.append(best)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= self.INTERVAL_S:
            self.sample()

    def scales_at(self, when) -> np.ndarray:
        """Scale at each moment: nominal time over the median of the five
        block timings centred on the first one taken at or after it."""
        n = len(self.blocks)
        if n == 0:
            return np.full(len(when), math.nan)
        med = np.array([statistics.median(self.blocks[max(i - 2, 0):i + 3])
                        for i in range(n)])
        idx = np.minimum(np.searchsorted(self.times, when), n - 1)
        return self.nominal / med[idx]


def _python_block() -> float:
    x = 0.0
    for i in range(10_000):
        x += (i * 0.5) ** 0.5
    return x


def _numpy_block():
    g = np.linspace(0.0, 3.0 * math.pi, 64)
    x = (np.exp(-0.5j * g)[:, None, None] * np.exp(0.3j * g)[None, :, None]
         * np.cos(g)[None, None, :])
    y = np.conj(x)

    def block() -> float:
        ox = 0.7 * x - 0.7j * y
        inten = ox.real ** 2 + ox.imag ** 2
        return float(inten.flat[int(np.argmax(inten))])
    return block


class TrialClock:
    """Host time and end moment of each trial, in call order, across all
    passes of a run.  With a ``HostSpeed`` it samples the host speed after
    each trial, outside the trial's own time.

    ``current`` is the id of the trial in progress (-1 between trials); the
    tracer stamps it on every span.
    """

    def __init__(self, speed: HostSpeed | None = None):
        self.ms: list[float] = []
        self.end: list[float] = []
        self.current = -1
        self.speed = speed

    def __call__(self, fn, *args, **kwargs):
        self.current = len(self.ms)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.ms.append((t1 - t0) * 1e3)
            self.end.append(t1)
            self.current = -1
            if self.speed:
                self.speed.maybe_sample()


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@dataclass
class PassResult:
    """What one pass did.  ``sim`` holds the simulated metrics, which depend
    on the seed only; ``check`` is None when the correctness check passed."""

    wall_s: float
    trials: int
    evaluations: int
    failed_trials: int
    digests: dict[str, str]
    sim: dict[str, float | None]
    check: str | None
    check_detail: str
    layer: dict[str, float] = field(default_factory=dict)
    trial_ids: range = range(0)     # this pass's trials in the TrialClock


def _trace_ok(trace, n_iter: int) -> bool:
    """A lock trace is valid when it is complete, finite and in range."""
    return (len(trace) == n_iter
            and bool(np.isfinite(trace.er_db).all())
            and bool(((trace.i_px >= 0.0) & (trace.i_px <= _MAX_INTENSITY)).all())
            and bool(((trace.i_py >= 0.0) & (trace.i_py <= _MAX_INTENSITY)).all()))


def _digest_trace(h, trace) -> None:
    for arr in (trace.i_px, trace.i_py, trace.er_db, trace.accepted):
        h.update(np.ascontiguousarray(arr).tobytes())


def _seeded_inputs(base: int, n: int):
    """(input SOP, generator positioned just after drawing it) per trial,
    the same stream layout as the acceptance fixtures."""
    out = []
    for k in range(n):
        rng = np.random.default_rng(base + k)
        out.append((random_sop(rng), rng))
    return out


def _base_seed(seed: int) -> int:
    return (seed % 2 ** 32) * SEED_STRIDE


class EnsembleStatic:
    """``polarlock run`` at the default config (three variants, static
    channel, 500 iterations), all three artifacts written.

    The default 200 trials are cut to 100 per pass to fit several passes in
    a run.  The C4 median bounds hold at 100 trials on every seed tried; the
    tightest is the 25 dB crossing staying at or above iteration 50.
    """

    name = "ensemble_static"
    tail_pct = 95.0
    reference = "python"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.trials = 20 if tiny else 100
        self.base = _base_seed(seed)
        self.cfg = config.load_experiment_config(None, {
            "experiment.trials": str(self.trials),
            "experiment.base_seed": str(self.base)})
        self.n_iter = self.cfg.anneal.total_iterations
        self.trials_per_pass = self.trials * len(self.cfg.variants)
        self.rows_path = os.path.join(workdir, "rows.csv")
        self._stem = os.path.splitext(self.rows_path)[0]
        self._hash = None
        self._bad = 0

    def install(self, patches: Patches, clock: TrialClock) -> None:
        """Time each lock where the harness looks up ``run_lock``."""
        def make(run_lock):
            def timed_run_lock(*args, **kwargs):
                trace = clock(run_lock, *args, **kwargs)
                self._bad += not _trace_ok(trace, self.n_iter)
                _digest_trace(self._hash, trace)
                return trace
            return timed_run_lock
        patches.wrap(harness, "run_lock", make)

    def run_pass(self) -> PassResult:
        self._hash = hashlib.sha256()
        self._bad = 0
        argv = ["run", "--trials", str(self.trials), "--seed", str(self.base),
                "--out", self.rows_path]
        out = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        wall = perf_counter() - t0

        with open(self.rows_path, "rb") as f:
            rows = f.read()
        summary = _parse_summary(out.getvalue())
        p50_at_100 = _aggregate_p50(f"{self._stem}_aggregate.csv", 100)
        check, detail = _check_c4(code, summary, p50_at_100)
        crossing = summary.get("variable.crossing_25db")
        if crossing is not None:
            crossing = int(crossing)
        return PassResult(
            wall_s=wall, trials=self.trials_per_pass,
            evaluations=self.trials_per_pass * (self.n_iter + 1),
            failed_trials=self._bad,
            digests={"rows_csv": hashlib.sha256(rows).hexdigest(),
                     "results": self._hash.hexdigest()},
            sim={"final_er_db_p50": summary.get("variable.median_final_er_db"),
                 "crossing_25db_iter": crossing},
            check=check, check_detail=detail,
            layer={"harness.write_rows_bytes": len(rows)})


def _parse_summary(text: str) -> dict[str, float | None]:
    """``key: value`` summary lines; 'none' reads as None."""
    out: dict[str, float | None] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep or key.startswith("rows written"):
            continue
        value = value.strip()
        out[key] = None if value == "none" else float(value)
    return out


def _aggregate_p50(path: str, iteration: int) -> dict[str, float]:
    with open(path, newline="") as f:
        return {row["variant"]: float(row["er_db_p50"])
                for row in csv.DictReader(f)
                if int(row["iteration"]) == iteration}


def _check_c4(code: int, s: dict, p50_100: dict) -> tuple[str | None, str]:
    """C4 bounds of the acceptance suite, read off the printed summary and
    the aggregate file."""
    cross_var = s.get("variable.crossing_25db")
    cross_small = s.get("fixed(0.008).crossing_25db")
    fin_var = s.get("variable.median_final_er_db", math.nan)
    fin_big = s.get("fixed(0.16).median_final_er_db", math.nan)
    fin_small = s.get("fixed(0.008).median_final_er_db", math.nan)
    at100 = [p50_100.get(k, math.nan)
             for k in ("variable", "fixed(0.16)", "fixed(0.008)")]
    detail = (f"exit {code}; variable crosses 25 dB at {cross_var} "
              f"(<=100, in [50, 200]); final var={fin_var:.2f} "
              f"fixed0.16={fin_big:.2f} fixed0.008={fin_small:.2f} dB "
              f"(var - fixed0.16 >= 1; var >= each - 1); iter100 "
              f"var={at100[0]:.2f} fixed0.16={at100[1]:.2f} "
              f"fixed0.008={at100[2]:.2f} dB (var - fixed0.008 >= 3; var >= "
              f"each); fixed0.008 crossing {cross_small} (>=300 or none)")
    ok = (code == 0
          and cross_var is not None and 50 <= cross_var <= 100
          and fin_var - fin_big >= 1.0
          and fin_var >= fin_small - 1.0
          and at100[0] - at100[2] >= 3.0
          and at100[0] >= at100[1]
          and (cross_small is None or cross_small >= 300))
    return (None if ok else "C4 bounds not met"), detail


class DisturbedChannel:
    """``variable`` controller against a disturbed channel, results in
    memory: half the trials re-lock after the C7 quarter-turn jump at
    iteration 250, half lock under continuous drift."""

    name = "disturbed_channel"
    tail_pct = 95.0
    reference = "python"
    drift_rate = 0.01       # rad of Stokes rotation per iteration
    relock_limit = 200      # C7: re-locked within this many iterations
    relock_pass_frac = 0.9  # C7: share of jump trials that must re-lock

    def __init__(self, seed: int, tiny: bool, workdir: str):
        half = 4 if tiny else 40
        jump = config.load_experiment_config(None, {
            "experiment.variants": "variable",
            "disturbance.kind": "jump",
            "disturbance.jump_at": "250",
            "disturbance.jump_magnitude": repr(math.pi / 2.0)})
        drift = config.load_experiment_config(None, {
            "experiment.variants": "variable",
            "disturbance.kind": "drift",
            "disturbance.drift_rate": repr(self.drift_rate)})
        self.device, self.acfg = jump.device, jump.anneal
        self.jump_model, self.drift_model = jump.disturbance, drift.disturbance
        self.n_iter = self.acfg.total_iterations
        base = _base_seed(seed)
        self.jump_inputs = _seeded_inputs(base, half)
        self.drift_inputs = _seeded_inputs(base + half, half)
        self.trials_per_pass = 2 * half
        self.clock = None

    def install(self, patches: Patches, clock: TrialClock) -> None:
        self.clock = clock

    def _drift_trial(self, sop, rng):
        objective = disturbance.DisturbedObjective(
            sop, self.device, self.drift_model, rng)
        return anneal.run_lock(objective, self.acfg, self.device.tps, rng)

    def run_pass(self) -> PassResult:
        h = hashlib.sha256()
        bad = 0
        finals, relocks = [], []
        t0 = perf_counter()
        for sop, rng in self.jump_inputs:
            trace, rec = self.clock(
                disturbance.relock_experiment, self.device, self.acfg,
                self.jump_model, copy.deepcopy(rng), input_sop=sop)
            bad += not _trace_ok(trace, self.n_iter)
            _digest_trace(h, trace)
            finals.append(trace.final_er_db)
            relocks.append(rec)
        for sop, rng in self.drift_inputs:
            trace = self.clock(self._drift_trial, sop, copy.deepcopy(rng))
            bad += not _trace_ok(trace, self.n_iter)
            _digest_trace(h, trace)
            finals.append(trace.final_er_db)
        wall = perf_counter() - t0

        h.update(repr(relocks).encode())
        got_back = [r for r in relocks if r is not None]
        missed = sum(r is None or r > self.relock_limit for r in relocks)
        need = math.ceil(self.relock_pass_frac * len(relocks))
        ok = len(relocks) - missed >= need
        detail = (f"re-locked to >= 20 dB within {self.relock_limit} "
                  f"iterations in {len(relocks) - missed}/{len(relocks)} "
                  f"jump trials (need >= {need})")
        return PassResult(
            wall_s=wall, trials=self.trials_per_pass,
            evaluations=self.trials_per_pass * (self.n_iter + 1),
            failed_trials=bad, digests={"results": h.hexdigest()},
            sim={"final_er_db_p50": statistics.median(finals),
                 "relock_iters_p50": (statistics.median(got_back)
                                      if got_back else None),
                 "relock_miss_frac": missed / len(relocks)},
            check=None if ok else "C7 recovery bound not met",
            check_detail=detail)


class OracleReference:
    """The C3 fixture: per seeded SOP, ``oracle_best`` on the ideal device,
    then one noiseless lock from the same stream."""

    name = "oracle_reference"
    tail_pct = 80.0
    reference = "numpy"
    reach_tol = 1e-6        # C3: oracle within this of unit intensity
    optimal_ratio = 0.999   # C3: controller best >= this x oracle best
    optimal_frac = 0.95     # C3: share of SOPs where it must be

    def __init__(self, seed: int, tiny: bool, workdir: str):
        n = 2 if tiny else 10
        cfg = config.load_experiment_config(None, {
            "device.static_er_db": "none", "device.noise_sigma": "0"})
        self.device, self.acfg = cfg.device, cfg.anneal
        self.n_iter = self.acfg.total_iterations
        self.inputs = _seeded_inputs(_base_seed(seed), n)
        self.trials_per_pass = n
        self.clock = None

    def install(self, patches: Patches, clock: TrialClock) -> None:
        self.clock = clock

    def _trial(self, sop, rng):
        best, _ = oracle.oracle_best(sop, self.device)
        trace = anneal.run_lock(anneal.bind_objective(sop, self.device, rng),
                                self.acfg, self.device.tps, rng)
        return best, trace

    def run_pass(self) -> PassResult:
        h = hashlib.sha256()
        bad = 0
        bests, ctrl, finals = [], [], []
        t0 = perf_counter()
        for sop, rng in self.inputs:
            best, trace = self.clock(self._trial, sop, copy.deepcopy(rng))
            bad += not (_trace_ok(trace, self.n_iter) and math.isfinite(best)
                        and 0.0 <= best <= 1.0 + 1e-9)
            _digest_trace(h, trace)
            bests.append(best)
            ctrl.append(trace.best_intensity)
            finals.append(trace.final_er_db)
        wall = perf_counter() - t0

        h.update(repr((bests, ctrl)).encode())
        shortfall = max(1.0 - b for b in bests)
        n_good = sum(c >= self.optimal_ratio * b for b, c in zip(bests, ctrl))
        need = math.ceil(self.optimal_frac * len(bests))
        ok = shortfall <= self.reach_tol and n_good >= need
        detail = (f"max oracle shortfall {shortfall:.3e} <= {self.reach_tol:g}; "
                  f"controller >= {self.optimal_ratio} x oracle in "
                  f"{n_good}/{len(bests)} SOPs (need >= {need})")
        return PassResult(
            wall_s=wall, trials=self.trials_per_pass,
            evaluations=self.trials_per_pass * (self.n_iter + 1),
            failed_trials=bad, digests={"results": h.hexdigest()},
            sim={"final_er_db_p50": statistics.median(finals),
                 "oracle_shortfall_max": shortfall,
                 "controller_optimal_frac": n_good / len(bests)},
            check=None if ok else "C3 bounds not met", check_detail=detail)


WORKLOADS = {w.name: w for w in (EnsembleStatic, DisturbedChannel,
                                 OracleReference)}


def make(name: str, seed: int, tiny: bool, workdir: str):
    """Set a workload up: config resolution and seeded input generation."""
    return WORKLOADS[name](seed, tiny, workdir)
