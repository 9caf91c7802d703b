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
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .anneal import (AnnealConfig, StepSchedule, bind_objective, run_lock,
                     voltage_step_to_phase_step)
from .device import DeviceParams, PhaseQuad, TpsParams, dpc_transform
from .disturbance import DisturbanceModel, DisturbedObjective
from .jones import (COUPLER_IN, COUPLER_OUT, JonesVector, make_m0, make_m45,
                    random_sop, to_stokes)

#: environment variable capping trial parallelism
THREADS_ENV = "POLARLOCK_THREADS"

#: CSV column order is part of the output contract
CSV_COLUMNS = ("variant", "trial", "iteration", "temperature", "step_rad",
               "i_px", "i_py", "er_db", "accepted")

# one row-file line: ``_fmt`` for floats, 0/1 for ``accepted``
_CSV_ROW = "%s,%d,%d,%.9g,%.9g,%.9g,%.9g,%.9g,%d\n"

# the per-iteration fields kept from each trial, in CSV column order
_FIELDS = ("temperature", "step_rad", "i_px", "i_py", "er_db", "accepted")

_VARIANT_RE = re.compile(r"^(fixed|voltage-fixed)\(([^)]+)\)$")


def _fmt(x: float) -> str:
    return f"{x:.9g}"


@dataclass(frozen=True, slots=True)
class Variant:
    """One controller configuration in an ensemble.

    ``variable`` runs the gap-driven schedule; ``fixed`` runs a constant
    phase step (radians); ``voltage-fixed`` runs a constant drive-voltage
    step (volts) in voltage mode.
    """

    kind: str               # variable | fixed | voltage-fixed
    value: float | None = None

    def __post_init__(self):
        if self.kind not in ("variable", "fixed", "voltage-fixed"):
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if self.kind == "variable":
            if self.value is not None:
                raise ValueError("variable variant takes no value")
        elif self.value is None or not 0.0 <= self.value < math.inf:
            raise ValueError(
                f"{self.kind} variant needs a finite step value >= 0")

    @property
    def label(self) -> str:
        if self.kind == "variable":
            return "variable"
        return f"{self.kind}({self.value:g})"

    def anneal_config(self, base: AnnealConfig, tps: TpsParams) -> AnnealConfig:
        if self.kind == "variable":
            return base
        if self.kind == "fixed":
            return replace(base, schedule=StepSchedule.fixed(self.value),
                           mode="phase")
        st = voltage_step_to_phase_step(self.value, tps)
        return replace(base, schedule=StepSchedule.fixed(st), mode="voltage")


def parse_variant(token: str) -> Variant:
    token = token.strip()
    if token == "variable":
        return Variant("variable")
    m = _VARIANT_RE.match(token)
    if not m:
        raise ValueError(
            f"bad variant {token!r}; expected 'variable', 'fixed(ST)' "
            "or 'voltage-fixed(DV)'")
    try:
        value = float(m.group(2))
    except ValueError:
        raise ValueError(f"bad step value in variant {token!r}") from None
    return Variant(m.group(1), value)


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Everything one ensemble run needs; defaults reproduce the reference
    three-variant comparison at 200 trials."""

    device: DeviceParams = DeviceParams()
    anneal: AnnealConfig = AnnealConfig()
    disturbance: DisturbanceModel = DisturbanceModel()
    variants: tuple[Variant, ...] = (Variant("variable"),
                                     Variant("fixed", 0.16),
                                     Variant("fixed", 0.008))
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
        if len({v.label for v in self.variants}) != len(self.variants):
            raise ValueError("variant labels must be unique")
        self.disturbance.check_run_length(self.anneal.total_iterations)
        for v in self.variants:
            try:
                v.anneal_config(self.anneal, self.device.tps)
            except ValueError as exc:
                raise ValueError(f"variant {v.label}: {exc}") from None


@dataclass(slots=True)
class ResultsTable:
    """Per-iteration results of a whole ensemble as (variant, trial,
    iteration) blocks: ``er_db[v, t, i]`` is iteration i + 1 of trial t of
    ``variant_order[v]``, and likewise for every other field."""

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
        identical configs."""
        blocks = [getattr(self, name) for name in _FIELDS]
        iters = range(1, self.iterations_per_trial + 1)
        with open(path, "w", newline="") as f:
            f.write(",".join(CSV_COLUMNS) + "\n")
            # one trial at a time keeps the Python copies of the rows small
            for label, *block in zip(self.variant_order, *blocks):
                for t, cols in enumerate(zip(*block)):
                    f.writelines(_CSV_ROW % row for row in zip(
                        repeat(label), repeat(t), iters,
                        *(c.tolist() for c in cols)))

    def write_aggregate_csv(self, path: str) -> None:
        with open(path, "w", newline="") as f:
            f.write("variant,iteration,er_db_p10,er_db_p50,er_db_p90\n")
            for label in self.variant_order:
                iters, p10, p50, p90 = self.percentile_curves(label)
                for i in range(len(iters)):
                    f.write(f"{label},{iters[i]},{_fmt(p10[i])},"
                            f"{_fmt(p50[i])},{_fmt(p90[i])}\n")


def _run_trial(cfg: ExperimentConfig, variant: Variant, trial: int):
    """One seeded trial; the rng stream depends only on base_seed + trial."""
    rng = np.random.default_rng(cfg.base_seed + trial)
    sop = random_sop(rng)
    if cfg.disturbance.kind == "static":
        objective = bind_objective(sop, cfg.device, rng)
    else:
        objective = DisturbedObjective(sop, cfg.device, cfg.disturbance, rng)
    acfg = variant.anneal_config(cfg.anneal, cfg.device.tps)
    return run_lock(objective, acfg, cfg.device.tps, rng)


def _run_job(args):
    cfg, variant, trial = args
    trace = _run_trial(cfg, variant, trial)
    return [getattr(trace, name) for name in _FIELDS]


def threads_from_env() -> int:
    """Worker count from the POLARLOCK_THREADS environment variable
    (1 when unset); raises ValueError naming the variable if it is not an
    integer."""
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{THREADS_ENV} must be an integer, got {raw!r}") from None


def run_experiment(cfg: ExperimentConfig,
                   max_workers: int | None = None) -> ResultsTable:
    """Run every (variant, trial) pair and assemble the results table.

    Trial seeds are ``base_seed + trial`` (shared across variants, making
    the comparison paired on input SOPs).  ``max_workers`` defaults to the
    POLARLOCK_THREADS environment variable; anything above 1 runs trials in
    a process pool, with output identical to the serial order.
    """
    if max_workers is None:
        max_workers = threads_from_env()
    # built in (variant, trial) order, which both map paths keep
    jobs = [(cfg, variant, trial)
            for variant in cfg.variants
            for trial in range(cfg.trials)]

    if max_workers > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(_run_job, jobs, chunksize=4))
    else:
        results = [_run_job(j) for j in jobs]

    shape = (len(cfg.variants), cfg.trials, cfg.anneal.total_iterations)
    return ResultsTable(tuple(v.label for v in cfg.variants),
                        *(np.stack(col).reshape(shape)
                          for col in zip(*results)))


def summarize(table: ResultsTable, threshold_db: float = 25.0) -> str:
    """Per-variant key figures as machine-parsable ``key: value`` lines."""
    if len(table) == 0:
        raise ValueError("results table is empty")
    lines = [f"trials: {table.trials}",
             f"iterations_per_trial: {table.iterations_per_trial}"]
    crossing_key = f"crossing_{threshold_db:g}db"
    for label in table.variant_order:
        crossing = table.first_crossing(label, threshold_db)
        lines.append(f"{label}.median_final_er_db: "
                     f"{_fmt(table.median_final_er(label))}")
        lines.append(f"{label}.{crossing_key}: "
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


def run_identity_checks(seed: int = 0, n: int = 1000,
                        tol: float = 1e-12) -> list[IdentityCheck]:
    """Exercise the algebraic identities on random inputs.

    Covers the coupler-sandwich decomposition of the 45-deg retarder,
    unitarity of the retarders and of random cascades, norm preservation,
    pure-state Stokes consistency, and global-phase invariance.
    """
    rng = np.random.default_rng(seed)
    span = 3.0 * math.pi

    deltas = rng.uniform(0.0, span, size=n)
    d_dec = max(_matrix_defect(make_m45(d),
                               COUPLER_OUT @ make_m0(d) @ COUPLER_IN)
                for d in deltas)
    d_ret = max(max(make_m0(d).unitarity_defect(),
                    make_m45(d).unitarity_defect()) for d in deltas)

    quads = rng.uniform(0.0, span, size=(max(n // 4, 1), 4))
    cascades = [dpc_transform(PhaseQuad(*q)) for q in quads]
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
        IdentityCheck("m45_coupler_decomposition", d_dec, tol),
        IdentityCheck("retarder_unitarity", d_ret, tol),
        IdentityCheck("cascade_unitarity", d_cas, tol),
        IdentityCheck("norm_preservation", d_norm, tol),
        IdentityCheck("stokes_pure_state", d_stokes, tol),
        IdentityCheck("global_phase_invariance", d_phase, tol),
    ]
