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
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .anneal import (AnnealConfig, StepSchedule, _draw, _fmt,
                     bind_objective, run_lock)
from .device import PHASE_SPAN, DeviceParams, _check_int, dpc_transform
from .disturbance import DisturbanceModel, DisturbedObjective
from .jones import (ALGEBRA_TOL, COUPLER_IN, COUPLER_OUT, JonesVector,
                    _frozen, make_m0, make_m45, random_sop, to_stokes)

#: CSV column order is part of the output contract
CSV_COLUMNS = ("variant", "trial", "iteration", "temperature", "step_rad",
               "i_px", "i_py", "er_db", "accepted")

# the per-iteration fields kept from each trial, in CSV column order
_FIELDS = CSV_COLUMNS[4:]
_CELL_BYTES = 33  # four float64 and one bool per (variant, trial, iteration)
# peaks under tracemalloc, rounded up: one lock of 10^4 iterations held 660
# bytes per iteration on a static channel and 756 under drift, write_csv
# 430-445 bytes per row of its chunk at one trial, 291-294 at ten, and the
# percentile pass, which sorts a copy of er_db, 9.2-9.8 bytes per cell at
# 200-1,000 trials
_LOCK_BYTES = 1200
_ROW_BYTES = 500
_PASS_BYTES = 12
# median ER (dB) whose first crossing the summary reports, the paper's claim
_LOCK_DB = 25.0

# --- rows as bytes -----------------------------------------------------------
# write_csv fills a matrix of little-endian uint32 words, one row of the file
# per matrix row, with every byte at a fixed place and NUL bytes as padding.
# Deleting the NULs leaves the text.  A number takes seven words:
#
#     [s i i i] [i i i -] [i i i p] [- f f f] [- f f f] [- f f f] [f f f ,]
#
# s is the sign, i nine integer digits without leading zeros (a lone 0 kept),
# p the point, f twelve fraction digits without trailing zeros, "," the
# separator and - a NUL.  Each row starts with its "\n", iteration and
# temperature; the label and trial go in after the "\n" when the row is
# written.

_WORD = np.dtype("<u4")

#: three-digit groups as the last three bytes of a word; entry k is
#: ``%03d % k``, 1000 + k drops trailing zeros, 2000 + k leading zeros
#: (all three for 0), 3000 + k leading zeros but keeps a lone 0
_LAST = np.array([int.from_bytes(b"\0" + s, "little") for s in
                  [b"%03d" % k for k in range(1000)]
                  + [(b"%03d" % k).rstrip(b"0").ljust(3, b"\0")
                     for k in range(1000)]
                  + [(b"%03d" % k).lstrip(b"0").rjust(3, b"\0")
                     for k in range(1000)]
                  + [(b"%d" % k).rjust(3, b"\0") for k in range(1000)]],
                 _WORD)
#: the same groups as the first three bytes of a word
_FIRST = _LAST >> 8

#: exact powers of ten, 10**0 to 10**12
_POW10 = np.array([float(10 ** k) for k in range(13)])
# X is the decade of |v| when y = |v| * 10**(8 - X) rounds into [1e8, 1e9)
_LO, _HI = 99999999.5, 999999999.5
# y is within 2**-24 of exact, so it rounds as the exact value does unless
# it is this close to a half
_TIE = 2.0 ** -20
#: words in a number's cell
_NUMBER = 7
#: trials per row matrix: about 0.8 MB of words at 500 iterations
_CHUNK_TRIALS = 10


def _g9_words(x: np.ndarray, out: np.ndarray) -> None:
    """``'%.9g,' % v`` for each float ``v`` of the 1-d ``x``, as the seven
    words of each row of ``out``.

    numpy formats fixed notation, 1e-4 <= |v| < 1e9.  ``log10`` only
    proposes the decade X: it holds when y = |v| * 10**(8 - X), one rounded
    product, lies in [_LO, _HI), and ``rint(y)`` is then the correctly
    rounded mantissa.  Python formats the rest, value by value: each y
    outside [_LO, _HI) (a misplaced decade included) or within 2**-20 of a
    half, 0, -0.0, NaN, +-inf and every value in exponent notation.

    Values that are all one bit pattern, as a fixed step's column is, are
    formatted once; comparing bits keeps -0.0 apart from 0.0.
    """
    bits = x.view(np.uint64)
    if bits.size > 1 and (bits == bits[0]).all():
        out[:] = np.array(["%.9g," % float(x[0])],
                          f"S{4 * _NUMBER}").view(_WORD)
        return
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        decade = np.fmin(np.fmax(np.floor(np.log10(a)), -4), 8).astype(np.intp)
        scale = _POW10[8 - decade]
        y = a * scale
        m = np.rint(y)
        slow = ~((np.abs(y - m) < 0.5 - _TIE) & (y >= _LO) & (y < _HI))
    m[slow] = 1e8  # any mantissa: Python rewrites these cells
    ip = np.floor(m / scale)
    fp = (m - ip * scale) * _POW10[decade + 4]  # the 12 fraction digits
    i0 = np.floor(ip / 1e6)
    rest = ip - i0 * 1e6
    i1 = np.floor(rest / 1e3)
    i2 = rest - i1 * 1e3
    out[:, 0] = _LAST.take((i0 + 2000).astype(np.intp))
    out[:, 0] += (x < 0) * np.uint32(ord("-"))
    out[:, 1] = _FIRST.take((i1 + (ip < 1e6) * 2000.0).astype(np.intp))
    out[:, 2] = _FIRST.take((i2 + (ip < 1e3) * 3000.0).astype(np.intp))
    out[:, 2] += (fp != 0) * np.uint32(ord(".") << 24)
    f0 = np.floor(fp / 1e9)
    r9 = fp - f0 * 1e9
    f1 = np.floor(r9 / 1e6)
    r6 = r9 - f1 * 1e6
    f2 = np.floor(r6 / 1e3)
    f3 = r6 - f2 * 1e3
    # a group drops its trailing zeros when every group after it is 0
    out[:, 3] = _LAST.take((f0 + (r9 == 0) * 1000.0).astype(np.intp))
    out[:, 4] = _LAST.take((f1 + (r6 == 0) * 1000.0).astype(np.intp))
    out[:, 5] = _LAST.take((f2 + (f3 == 0) * 1000.0).astype(np.intp))
    out[:, 6] = _FIRST.take((f3 + 1000).astype(np.intp))
    out[:, 6] += np.uint32(ord(",") << 24)
    slow = np.flatnonzero(slow)
    if slow.size:  # at most 17 bytes, inside the cell's 28
        out[slow] = np.array(["%.9g," % v for v in x[slow].tolist()],
                             f"S{4 * _NUMBER}").view((_WORD, _NUMBER))


@_frozen
class ExperimentConfig:
    """Everything one ensemble run needs; defaults reproduce the reference
    three-variant comparison at 200 trials.  Each variant is the step
    schedule its trials lock with, named by its ``label``; ``variants`` is
    stored as a tuple, whatever sequence of ``StepSchedule``s is given."""

    device: DeviceParams = DeviceParams()
    anneal: AnnealConfig = AnnealConfig()
    disturbance: DisturbanceModel = DisturbanceModel()
    variants: tuple[StepSchedule, ...] = (StepSchedule(), StepSchedule(0.16),
                                          StepSchedule(0.008))
    trials: int = 200
    base_seed: int = 0
    output_path: str = "results.csv"

    def __post_init__(self):
        _check_int(self, "trials")
        _check_int(self, "base_seed")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        object.__setattr__(self, "variants", tuple(self.variants))
        for i, v in enumerate(self.variants):
            if not isinstance(v, StepSchedule):
                raise ValueError(f"variants[{i}] must be a StepSchedule, "
                                 f"got {v!r}")
        if not self.variants:
            raise ValueError("variant list must be non-empty")
        labels = [v.label for v in self.variants]
        if len(labels) != len({*labels}):
            raise ValueError("variant labels must be unique, "
                             f"got {', '.join(labels)}")
        self.disturbance.check_run_length(self.anneal.total_iterations)
        start = PHASE_SPAN / 2.0
        for label, v in zip(labels, self.variants):
            top, low = max(v.steps), min(v.steps)
            if top > PHASE_SPAN:
                raise ValueError(
                    f"variant {label}: phase step {top:g} rad exceeds the "
                    f"phase span PHASE_SPAN = {PHASE_SPAN:g} rad")
            if low and start + low == start:
                raise ValueError(
                    f"variant {label}: phase step {low:g} rad cannot move "
                    f"the start point PHASE_SPAN / 2 = {start:g} rad")


@dataclass(slots=True)
class ResultsTable:
    """Per-iteration results of a whole ensemble as (variant, trial,
    iteration) blocks: ``er_db[v, t, i]`` is iteration i + 1 of trial t of
    ``variant_order[v]``, and likewise for every field but ``temperature``,
    the ``(iterations,)`` schedule all trials share.

    Every ER figure, the aggregate file and the summary included, reads one
    percentile pass over ``er_db``, taken on first read and kept read-only,
    so the blocks must not change after it."""

    variant_order: tuple[str, ...]
    temperature: np.ndarray
    step_rad: np.ndarray
    i_px: np.ndarray
    i_py: np.ndarray
    er_db: np.ndarray
    accepted: np.ndarray
    # percentile_curves' (p10, p50, p90) x variant x iteration array
    _percentiles: np.ndarray | None = field(default=None, init=False,
                                            repr=False, compare=False)

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
        v = self._index(label)
        if self._percentiles is None:
            self._percentiles = np.percentile(self.er_db, [10.0, 50.0, 90.0],
                                              axis=1)
            self._percentiles.flags.writeable = False
        iters = np.arange(1, self.iterations_per_trial + 1)
        return iters, *self._percentiles[:, v]

    def median_er_curve(self, label: str) -> np.ndarray:
        """The p50 curve of ``percentile_curves``, the aggregate file's."""
        return self.percentile_curves(label)[2]

    def first_crossing(self, label: str) -> int | None:
        """First iteration at which the median ER reaches ``_LOCK_DB``."""
        hits = np.nonzero(self.median_er_curve(label) >= _LOCK_DB)[0]
        return int(hits[0]) + 1 if hits.size else None

    def acceptance_rate(self, label: str) -> float:
        return float(np.mean(self.accepted[self._index(label)]))

    def median_final_er(self, label: str) -> float:
        return float(self.median_er_curve(label)[-1])

    def write_csv(self, path: str) -> None:
        """Rows in the documented column order, variant by variant, then
        trial by trial: each float exactly as ``'%.9g' % v`` formats it,
        ``accepted`` as 0/1, and the label in the encoding a text-mode
        ``open`` picks.  Identical tables write identical bytes.

        numpy formats the float columns ten trials at a time (see
        ``_g9_words``), so the writer holds no Python object per row."""
        # every label is looked up before the file exists
        blocks = [self._index(label) for label in self.variant_order]
        iters = self.iterations_per_trial
        # the iteration and temperature columns every trial shares, in whole
        # words as wide as the longest, since an S dtype cuts short silently
        lead = [b"\n%d,%.9g," % row for row in
                enumerate(np.asarray(self.temperature, float).tolist(), 1)]
        words = -(-max(map(len, lead), default=0) // 4)
        lead = np.array(lead, f"S{4 * words}").view((_WORD, words))
        floats = _FIELDS[:-1]
        width = words + _NUMBER * len(floats) + 1
        with open(path, "w", newline="") as text:
            f, encoding = text.buffer, text.encoding
            f.write(",".join(CSV_COLUMNS).encode(encoding))
            for v, label in zip(blocks, self.variant_order):
                for t0 in range(0, self.trials, _CHUNK_TRIALS):
                    chunk = range(t0, min(t0 + _CHUNK_TRIALS, self.trials))
                    block = (v, slice(chunk.start, chunk.stop))
                    rows = np.empty((len(chunk), iters, width), _WORD)
                    rows[:, :, :words] = lead
                    rows = rows.reshape(-1, width)
                    for k, name in enumerate(floats):
                        col = words + _NUMBER * k
                        _g9_words(np.asarray(getattr(self, name)[block],
                                             float).ravel(),
                                  rows[:, col:col + _NUMBER])
                    rows[:, -1] = self.accepted[block].ravel() + ord("0")
                    for t, trial in enumerate(chunk):
                        prefix = f"{label},{trial},".encode(encoding)
                        f.write(rows[t * iters:(t + 1) * iters].tobytes()
                                .translate(None, b"\0")
                                .replace(b"\n", b"\n" + prefix))
            f.write(b"\n")  # each row brought the newline before it

    def write_aggregate_csv(self, path: str) -> None:
        """One row per variant and iteration: the 10th, 50th and 90th
        percentiles of ``er_db`` across trials, formatted as ``write_csv``
        formats floats."""
        # every label is looked up before the file exists
        curves = [self.percentile_curves(label)
                  for label in self.variant_order]
        with open(path, "w", newline="") as f:
            f.write("variant,iteration,er_db_p10,er_db_p50,er_db_p90\n")
            for label, curve in zip(self.variant_order, curves):
                f.writelines("%s,%d,%.9g,%.9g,%.9g\n" % (label, *row)
                             for row in zip(*(c.tolist() for c in curve)))


def _run_trial(cfg: ExperimentConfig, trial: int):
    """One trial's ``_FIELDS`` per variant; its rng depends on base_seed +
    trial alone.  Each variant locks on the trial's one ``_draw`` with the
    trial's one objective."""
    rng = np.random.default_rng(cfg.base_seed + trial)
    sop = random_sop(rng)
    drawn = _draw(rng, cfg.anneal.total_iterations)
    objective = (bind_objective(sop, cfg.device, rng)
                 if cfg.disturbance.kind == "static" else
                 DisturbedObjective(sop, cfg.device, cfg.disturbance, rng))
    cells = []
    for schedule in cfg.variants:
        trace = run_lock(objective, cfg.anneal, cfg.device.tps, drawn,
                         schedule)
        cells.append([getattr(trace, name) for name in _FIELDS])
    return cells


def _run_bytes(cfg: ExperimentConfig, workers: int) -> int:
    """Least memory a run needs: its result blocks, plus one live lock and
    its trial's earlier cells per worker (at most one per trial), the row
    writer's chunk or the percentile pass, whichever is largest (never two
    at once)."""
    cells = _CELL_BYTES * len(cfg.variants)  # one trial's, per iteration
    live = max((_LOCK_BYTES + cells - _CELL_BYTES) * min(workers, cfg.trials),
               _ROW_BYTES * min(cfg.trials, _CHUNK_TRIALS),
               _PASS_BYTES * len(cfg.variants) * cfg.trials)
    return (cells * cfg.trials + live) * cfg.anneal.total_iterations


def run_experiment(cfg: ExperimentConfig,
                   max_workers: int = 1) -> ResultsTable:
    """Run every trial into a results table allocated before the first
    lock, each (variant, trial) cell's fields landing in its row.

    Trial seeds are ``base_seed + trial``, and a trial's variants share its
    draws, making the comparison paired on input SOPs and every draw.  A
    ``max_workers`` above 1 runs trials in a process pool of at most one
    worker per trial, with output identical to the serial order.
    """
    shape = (len(cfg.variants), cfg.trials, cfg.anneal.total_iterations)
    blocks = [np.empty(shape) for _ in _FIELDS[:-1]] + [np.empty(shape, bool)]
    table = ResultsTable(tuple(v.label for v in cfg.variants),
                         cfg.anneal.temperature, *blocks)
    jobs = (_run_trial, [cfg] * cfg.trials, range(cfg.trials))

    # the pool forks all its workers at the first submit, so cap them
    workers = min(max_workers, cfg.trials)
    pool = nullcontext()
    if workers > 1:
        # imported here: a serial run never needs multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    with pool:
        results = pool.map(*jobs, chunksize=4) if workers > 1 else map(*jobs)
        for t, cells in enumerate(results):
            for block, values in zip(blocks, zip(*cells)):
                block[:, t] = values
    return table


def summarize(table: ResultsTable) -> str:
    """Per-variant key figures as machine-parsable ``key: value`` lines."""
    if len(table) == 0:
        raise ValueError("results table is empty")
    lines = [f"trials: {table.trials}",
             f"iterations_per_trial: {table.iterations_per_trial}"]
    for label in table.variant_order:
        lines.append(f"{label}.median_final_er_db: "
                     f"{_fmt(table.median_final_er(label))}")
        lines.append(f"{label}.crossing_25db: "
                     f"{table.first_crossing(label) or 'none'}")
        lines.append(f"{label}.acceptance_rate: "
                     f"{_fmt(table.acceptance_rate(label))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# algebraic identity suite (the CLI `validate` subcommand)

@_frozen
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


def run_identity_checks() -> list[IdentityCheck]:
    """Exercise the algebraic identities on random inputs, drawn from seed 0.

    Covers the coupler-sandwich decomposition of the 45-deg retarder on
    1,000 phases, unitarity of the retarders and of 250 random cascades,
    and, on 100 of those, norm preservation, pure-state Stokes consistency
    and global-phase invariance.  Each defect is held to ``ALGEBRA_TOL``.
    """
    rng = np.random.default_rng(0)
    deltas = rng.uniform(0.0, PHASE_SPAN, size=1000)
    d_dec = max(_matrix_defect(make_m45(d),
                               COUPLER_OUT @ make_m0(d) @ COUPLER_IN)
                for d in deltas)
    d_ret = max(max(make_m0(d).unitarity_defect(),
                    make_m45(d).unitarity_defect()) for d in deltas)

    quads = rng.uniform(0.0, PHASE_SPAN, size=(250, 4))
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
