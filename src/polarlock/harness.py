"""Batch experiment runner: seeded trial ensembles across controller
variants, percentile statistics, CSV/summary artifacts, and the algebraic
identity suite.

Determinism contract: every trial derives its rng stream from
``base_seed + trial`` alone, so serial and parallel execution (and repeated
runs) produce byte-identical output.  Rows are always assembled in
(variant-order, trial, iteration) order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .anneal import (DEFAULT_SCHEDULE, AnnealConfig, StepSchedule, _fmt,
                     bind_objective, run_lock)
from .device import DeviceParams, dpc_transform
from .disturbance import DisturbanceModel, DisturbedObjective
from .jones import (ALGEBRA_TOL, COUPLER_IN, COUPLER_OUT, JonesVector,
                    make_m0, make_m45, random_sop, to_stokes)

#: CSV column order is part of the output contract
CSV_COLUMNS = ("variant", "trial", "iteration", "temperature", "step_rad",
               "i_px", "i_py", "er_db", "accepted")

# a row-file line: "variant,trial,", "iteration,temperature,", "step_rad,",
# then ``_fmt`` floats and 0/1 ``accepted``
_CSV_ROW = "%s%s%s%.9g,%.9g,%.9g,%d\n"

# the per-iteration fields kept from each trial, in CSV column order
_FIELDS = ("step_rad", "i_px", "i_py", "er_db", "accepted")

@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Everything one ensemble run needs; defaults reproduce the reference
    three-variant comparison at 200 trials.  Each variant is the step
    schedule its trials lock with, named by its ``label``."""

    device: DeviceParams = DeviceParams()
    anneal: AnnealConfig = AnnealConfig()
    disturbance: DisturbanceModel = DisturbanceModel()
    variants: tuple[StepSchedule, ...] = (DEFAULT_SCHEDULE,
                                          StepSchedule.fixed(0.16),
                                          StepSchedule.fixed(0.008))
    trials: int = 200
    base_seed: int = 0
    output_path: str = "results.csv"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        if not self.variants:
            raise ValueError("variant list must be non-empty")
        labels = [v.label for v in self.variants]
        if len(labels) != len({*labels}):
            raise ValueError("variant labels must be unique, "
                             f"got {', '.join(labels)}")
        self.disturbance.check_run_length(self.anneal.total_iterations)
        phase_max = self.device.tps.phase_max
        for label, v in zip(labels, self.variants):
            top = max(st for _, st in v.entries)
            if top > phase_max:
                raise ValueError(
                    f"variant {label}: phase step {top:g} rad exceeds the "
                    f"phase span tps.phase_max = {phase_max:g} rad")


@dataclass(slots=True)
class ResultsTable:
    """Per-iteration results of a whole ensemble as (variant, trial,
    iteration) blocks: ``er_db[v, t, i]`` is iteration i + 1 of trial t of
    ``variant_order[v]``, and likewise for every field but ``temperature``,
    the ``(iterations,)`` schedule all trials share."""

    variant_order: tuple[str, ...]
    temperature: np.ndarray
    step_rad: np.ndarray
    i_px: np.ndarray
    i_py: np.ndarray
    er_db: np.ndarray
    accepted: np.ndarray

    @property
    def trials(self) -> int:
        return self.er_db.shape[1]

    @property
    def iterations_per_trial(self) -> int:
        return self.er_db.shape[2]

    def __len__(self) -> int:
        return self.er_db.size

    def _index(self, label: str) -> int:
        """Block index of one variant."""
        if label not in self.variant_order[:len(self.er_db)]:
            raise ValueError(f"no rows for variant '{label}'")
        return self.variant_order.index(label)

    def percentile_curves(self, label: str
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(iteration, p10, p50, p90) ER curves across trials."""
        er = self.er_db[self._index(label)]
        p10, p50, p90 = np.percentile(er, [10.0, 50.0, 90.0], axis=0)
        iters = np.arange(1, self.iterations_per_trial + 1)
        return iters, p10, p50, p90

    def median_er_curve(self, label: str) -> np.ndarray:
        return np.median(self.er_db[self._index(label)], axis=0)

    def first_crossing(self, label: str, threshold_db: float) -> int | None:
        """First iteration at which the median ER reaches the threshold."""
        hits = np.nonzero(self.median_er_curve(label) >= threshold_db)[0]
        return int(hits[0]) + 1 if hits.size else None

    def acceptance_rate(self, label: str) -> float:
        return float(np.mean(self.accepted[self._index(label)]))

    def median_final_er(self, label: str) -> float:
        return float(np.median(self.er_db[self._index(label), :, -1]))

    def write_csv(self, path: str) -> None:
        """Rows in the documented column order, variant by variant, then
        trial by trial; floats at 9 significant digits; byte-identical for
        identical configs.  Each ``iteration,temperature,`` prefix is
        formatted once, and each step once per variant and bit pattern."""
        prefixes = ["%d,%.9g," % it
                    for it in enumerate(self.temperature.tolist(), 1)]
        with open(path, "w", newline="") as f:
            f.write(",".join(CSV_COLUMNS) + "\n")
            for label, step, *block in zip(
                    self.variant_order, *(getattr(self, n) for n in _FIELDS)):
                bits, which = np.unique(step.view(np.int64),
                                        return_inverse=True)
                steps = ["%.9g," % st for st in bits.view(float).tolist()]
                # one trial at a time keeps the Python copies of the rows small
                for t, (w, *cols) in enumerate(zip(
                        which.reshape(step.shape), *block)):
                    f.writelines(map(_CSV_ROW.__mod__, zip(
                        repeat(f"{label},{t},"), prefixes,
                        map(steps.__getitem__, w.tolist()),
                        *(c.tolist() for c in cols))))

    def write_aggregate_csv(self, path: str) -> None:
        with open(path, "w", newline="") as f:
            f.write("variant,iteration,er_db_p10,er_db_p50,er_db_p90\n")
            for label in self.variant_order:
                iters, p10, p50, p90 = self.percentile_curves(label)
                for i in range(len(iters)):
                    f.write(f"{label},{iters[i]},{_fmt(p10[i])},"
                            f"{_fmt(p50[i])},{_fmt(p90[i])}\n")


def _run_trial(cfg: ExperimentConfig, schedule: StepSchedule, trial: int):
    """One seeded trial; the rng stream depends only on base_seed + trial."""
    rng = np.random.default_rng(cfg.base_seed + trial)
    sop = random_sop(rng)
    if cfg.disturbance.kind == "static":
        objective = bind_objective(sop, cfg.device, rng)
    else:
        objective = DisturbedObjective(sop, cfg.device, cfg.disturbance, rng)
    return run_lock(objective, cfg.anneal, cfg.device.tps, rng, schedule)


def _run_job(args):
    trace = _run_trial(*args)
    return [getattr(trace, name) for name in _FIELDS]


def run_experiment(cfg: ExperimentConfig,
                   max_workers: int = 1) -> ResultsTable:
    """Run every (variant, trial) pair and assemble the results table.

    Trial seeds are ``base_seed + trial`` (shared across variants, making
    the comparison paired on input SOPs).  A ``max_workers`` above 1 runs
    trials in a process pool of at most one worker per job, with output
    identical to the serial order.
    """
    # built in (variant, trial) order, which both map paths keep
    jobs = [(cfg, schedule, trial)
            for schedule in cfg.variants
            for trial in range(cfg.trials)]

    # the pool forks all its workers at the first submit, so cap them
    workers = min(max_workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_job, jobs, chunksize=4))
    else:
        results = [_run_job(j) for j in jobs]

    shape = (len(cfg.variants), cfg.trials, cfg.anneal.total_iterations)
    return ResultsTable(tuple(v.label for v in cfg.variants),
                        cfg.anneal.temperature,
                        *(np.stack(col).reshape(shape)
                          for col in zip(*results)))


def summarize(table: ResultsTable) -> str:
    """Per-variant key figures as machine-parsable ``key: value`` lines."""
    if len(table) == 0:
        raise ValueError("results table is empty")
    lines = [f"trials: {table.trials}",
             f"iterations_per_trial: {table.iterations_per_trial}"]
    for label in table.variant_order:
        crossing = table.first_crossing(label, 25.0)
        lines.append(f"{label}.median_final_er_db: "
                     f"{_fmt(table.median_final_er(label))}")
        lines.append(f"{label}.crossing_25db: "
                     f"{crossing if crossing is not None else 'none'}")
        lines.append(f"{label}.acceptance_rate: "
                     f"{_fmt(table.acceptance_rate(label))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# algebraic identity suite (the CLI `validate` subcommand)

@dataclass(frozen=True, slots=True)
class IdentityCheck:
    name: str
    defect: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.defect <= self.tol


def _matrix_defect(a, b) -> float:
    return max(abs(a.m00 - b.m00), abs(a.m01 - b.m01),
               abs(a.m10 - b.m10), abs(a.m11 - b.m11))


def run_identity_checks(seed: int = 0, n: int = 1000) -> list[IdentityCheck]:
    """Exercise the algebraic identities on random inputs.

    Covers the coupler-sandwich decomposition of the 45-deg retarder,
    unitarity of the retarders and of random cascades, norm preservation,
    pure-state Stokes consistency, and global-phase invariance.  Needs
    ``seed >= 0`` and ``n >= 1``; each defect is held to ``ALGEBRA_TOL``.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    span = 3.0 * math.pi

    deltas = rng.uniform(0.0, span, size=n)
    d_dec = max(_matrix_defect(make_m45(d),
                               COUPLER_OUT @ make_m0(d) @ COUPLER_IN)
                for d in deltas)
    d_ret = max(max(make_m0(d).unitarity_defect(),
                    make_m45(d).unitarity_defect()) for d in deltas)

    quads = rng.uniform(0.0, span, size=(max(n // 4, 1), 4))
    cascades = [dpc_transform(q) for q in quads]
    d_cas = max(m.unitarity_defect() for m in cascades)

    d_norm = 0.0
    d_stokes = 0.0
    d_phase = 0.0
    for m in cascades[:100]:
        v = random_sop(rng)
        d_norm = max(d_norm, abs((m @ v).norm() - 1.0))
        s = to_stokes(v)
        d_stokes = max(d_stokes,
                       abs(s.s1 ** 2 + s.s2 ** 2 + s.s3 ** 2 - s.s0 ** 2))
        z = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        sz = to_stokes(JonesVector(v.ex * z, v.ey * z))
        d_phase = max(d_phase, abs(s.s1 - sz.s1), abs(s.s2 - sz.s2),
                      abs(s.s3 - sz.s3))

    return [
        IdentityCheck("m45_coupler_decomposition", d_dec, ALGEBRA_TOL),
        IdentityCheck("retarder_unitarity", d_ret, ALGEBRA_TOL),
        IdentityCheck("cascade_unitarity", d_cas, ALGEBRA_TOL),
        IdentityCheck("norm_preservation", d_norm, ALGEBRA_TOL),
        IdentityCheck("stokes_pure_state", d_stokes, ALGEBRA_TOL),
        IdentityCheck("global_phase_invariance", d_phase, ALGEBRA_TOL),
    ]
