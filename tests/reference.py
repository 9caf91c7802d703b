"""Verbatim references: earlier implementations and definitions that the
tests compare the package with, bit for bit.

pytest does not collect this module; the test modules import from it.  It
imports nothing from ``polarlock.anneal``, ``polarlock.disturbance`` or
``polarlock.harness``, so a fault in the lock, the channel or the writers
cannot reach the statement they are checked against.
"""

import cmath
import math
from types import SimpleNamespace

import numpy as np

from polarlock.device import PhaseQuad, thermal_step_response, voltage_to_phase

# the row file's columns, and the per-iteration fields among them, written
# here so that the reference does not read the header it checks
CSV_COLUMNS = ("variant", "trial", "iteration", "temperature", "step_rad",
               "i_px", "i_py", "er_db", "accepted")
_FIELDS = CSV_COLUMNS[4:]


# --- the cascade --------------------------------------------------------------

def _reference_cascade(sop, phases):
    """Output field (ex, ey) of ``dpc_transform(phases) @ sop`` in scalar
    complex arithmetic, without building the matrices.

    The first row (b00, b01) is formed in the same order as the matrix
    chain: M45(t4) @ M0(t3), then @ M45(t2), then @ M0(t1).  The terms left
    out are those multiplying the exact zero off-diagonals of the M0 stages;
    for finite phases such a term is a signed zero, and adding it changes at
    most the sign of a zero.  The cascade is special unitary, so its second
    row is (-conj(b01), conj(b00)), and forming it so is exact too: each
    factor of the chain's second row is the conjugate, or the negated
    conjugate, of one in its first row (c2 and c4 are real, s2 and s4
    imaginary); negating or conjugating is exact; conj(x) * conj(y) ==
    conj(x * y) holds exactly; and IEEE sums and products commute.  So the
    result equals the matrix chain's, except at most in the sign of a zero,
    which no reading sees.

    A NaN or infinite phase or SOP component raises ValueError naming
    both.  One test of ex finds them all: the trig raises on an infinite
    phase, which then stands as NaN, and a NaN or an infinity times any
    factor, or summed with anything, is NaN or infinite.
    """
    t1, t2, t3, t4 = phases
    try:
        # the stage elements, exactly as make_m0 and make_m45 build them
        p1 = cmath.exp(-0.5j * t1)
        p3 = cmath.exp(-0.5j * t3)
        c2 = math.cos(0.5 * t2)
        s2 = -1.0j * math.sin(0.5 * t2)
        c4 = math.cos(0.5 * t4)
        s4 = -1.0j * math.sin(0.5 * t4)
    except ValueError:
        p1 = p3 = c2 = s2 = c4 = s4 = math.nan
    # the first row of M45(t4) @ M0(t3), then @ M45(t2), then @ M0(t1)
    a00 = c4 * p3
    a01 = s4 * p3.conjugate()
    b00 = (a00 * c2 + a01 * s2) * p1
    b01 = (a00 * s2 + a01 * c2) * p1.conjugate()
    # @ sop
    ex, ey = sop.ex, sop.ey
    e_x = b00 * ex + b01 * ey
    if not cmath.isfinite(e_x):
        raise ValueError("stage phases and input SOP must be finite, got "
                         f"{phases!r} and {sop!r}")
    return e_x, b00.conjugate() * ey - b01.conjugate() * ex


def _reference_measure(input_sop, phases, params, rng, noise=None):
    """``measure`` in scalar complex arithmetic: the ports of
    ``_reference_cascade``, then the splitter floor, the noise and the clamp
    at zero."""
    e_x, e_y = _reference_cascade(input_sop, phases)
    i_px = e_x.real * e_x.real + e_x.imag * e_x.imag
    i_py = e_y.real * e_y.real + e_y.imag * e_y.imag

    floor = params._py_floor
    if floor is not None:
        floor = i_px * floor
        if floor > i_py:
            i_py = floor

    sigma = params.noise_sigma
    if sigma > 0.0:
        if noise is None:
            if rng is None:
                raise ValueError("measure needs an rng when noise_sigma > 0")
            noise = rng.standard_normal(2).tolist()
        z_px, z_py = noise
        i_px += sigma * z_px
        i_py += sigma * z_py

    if i_px < 0.0:
        i_px = 0.0
    if i_py < 0.0:
        i_py = 0.0
    return i_px, i_py


def _four_product_cascade(sop, phases):
    """Both rows of M45(t4) @ M0(t3) @ M45(t2) @ M0(t1), then @ sop, every
    element formed as its own product, in the matrix chain's order."""
    t1, t2, t3, t4 = phases
    p1, p3 = cmath.exp(-0.5j * t1), cmath.exp(-0.5j * t3)
    c2, s2 = math.cos(0.5 * t2), -1.0j * math.sin(0.5 * t2)
    c4, s4 = math.cos(0.5 * t4), -1.0j * math.sin(0.5 * t4)
    a00, a01 = c4 * p3, s4 * p3.conjugate()
    a10, a11 = s4 * p3, c4 * p3.conjugate()
    b00 = (a00 * c2 + a01 * s2) * p1
    b01 = (a00 * s2 + a01 * c2) * p1.conjugate()
    b10 = (a10 * c2 + a11 * s2) * p1
    b11 = (a10 * s2 + a11 * c2) * p1.conjugate()
    return b00 * sop.ex + b01 * sop.ey, b10 * sop.ex + b11 * sop.ey


def _reference_rotate_sop(sop, axis, angle):
    """``rotate_sop`` in complex arithmetic: the SU(2) half-angle element's
    rows times (ex, ey), as the package computed it before a Jones vector
    was stored as its four real parts."""
    n1, n2, n3 = axis
    c = math.cos(0.5 * angle)
    s = math.sin(0.5 * angle)
    ex, ey = sop.ex, sop.ey
    return (complex(c, s * n1) * ex + complex(-s * n3, s * n2) * ey,
            complex(s * n3, s * n2) * ex + complex(c, -s * n1) * ey)


# --- the lock -----------------------------------------------------------------

def _move_reference(s_p, st, draws, hi):
    """The boundary-reflecting move, one component at a time."""
    out = []
    for k, x in enumerate(s_p):
        r, u = draws[2 * k], draws[2 * k + 1]
        if x <= 0.0 or (x < hi and u < 0.5):
            x = x + st * r
        else:
            x = x - st * r
        out.append(0.0 if x < 0.0 else hi if x > hi else x)
    return tuple(out)


# the paper's variable-step table as (gap threshold, step) pairs, written
# here so that the reference does not read the table it checks
_PAPER_TABLE = ((1.0, 0.16), (0.1, 0.08), (0.01, 0.03), (0.001, 0.008))


def _reference_step(gap, schedule):
    """The step of the first entry whose bracket holds the gap clamped into
    [0, 1]; the last entry's step at or below its threshold.  A fixed step
    is one entry."""
    entries = (_PAPER_TABLE if schedule.step is None
               else ((1.0, schedule.step),))
    g = 0.0 if gap < 0.0 else 1.0 if gap > 1.0 else gap
    for (_, step), (lower, _) in zip(entries, entries[1:]):
        if g > lower:
            return step
    return entries[-1][1]


def _reference_run_lock(objective, cfg, tps, rng, schedule):
    """The annealing lock from its definition, one iteration at a time.

    It draws the lock's inputs from ``rng`` before the first evaluation:
    uniforms (n, 9), noise normals (n + 1, 2) and channel normals (n, 3).
    All four phases start at half of ``tps.phase_max``, and evaluation k
    calls ``objective(phases, noise row k, channel block)``.  Iteration i
    runs at ``cfg.t0`` halved once per finished outer loop.  It takes the
    step ``_reference_step`` gives for the gap 1 - (latest reading), moves
    by ``_move_reference`` on uniform row i - 1's raw (r, u) draws, and
    accepts a reading at or above the latest one, or a worse one when the
    row's last uniform lies below exp((new - latest) / temperature).  Each
    reading's dB is 10 log10 of the ratio of the readings floored at 1e-12,
    and the lock point is the first of the highest readings, the initial
    one included.  The result holds plain arrays under ``LockTrace``'s
    field names.
    """
    n = cfg.m0 * cfg.n0
    uniforms = rng.random((n, 9)).tolist()
    noise = rng.standard_normal((n + 1, 2)).tolist()
    channel = rng.standard_normal((n, 3))

    hi = tps.phase_max
    state = best_phases = (hi / 2.0,) * 4
    latest, i_py = objective(state, noise[0], channel)
    initial_sample = (latest, i_py)
    best, best_iteration = latest, 0

    rows, cands = [], []
    temperature, i = cfg.t0, 0
    for _ in range(cfg.m0):
        for _ in range(cfg.n0):
            draws = uniforms[i]
            step = _reference_step(1.0 - latest, schedule)
            cand = _move_reference(state, step, draws, hi)
            i += 1
            i_px, i_py = objective(cand, noise[i], channel)
            ok = (i_px >= latest
                  or draws[8] < math.exp((i_px - latest) / temperature))
            if ok:
                state = cand
            if i_px > best:
                best, best_iteration, best_phases = i_px, i, cand
            latest = i_px
            cands.append(cand)
            rows.append((temperature, step, i_px, i_py, 10.0 * math.log10(
                max(i_px, 1e-12) / max(i_py, 1e-12)), ok))
        temperature *= 0.5

    temps, steps, pxs, pys, dbs, oks = map(np.array, zip(*rows))
    return SimpleNamespace(
        temperature=temps, step_rad=steps, candidates=cands,
        phases=np.array(cands, float).reshape(-1, 4), i_px=pxs, i_py=pys,
        er_db=dbs, accepted=oks, best_phases=PhaseQuad(*best_phases),
        best_intensity=best, best_iteration=best_iteration,
        initial_sample=initial_sample)


# --- the writers --------------------------------------------------------------

def _reference_rows_csv(table) -> str:
    """The reference row file: every column of every row formatted, one
    ``%``-format per row, no value formatted once for several rows."""
    lines = [",".join(CSV_COLUMNS) + "\n"]
    temperatures = table.temperature.tolist()
    for v, label in enumerate(table.variant_order):
        for t in range(table.trials):
            cols = (getattr(table, name)[v, t].tolist() for name in _FIELDS)
            for i, row in enumerate(zip(temperatures, *cols), 1):
                lines.append("%s,%d,%d,%.9g,%.9g,%.9g,%.9g,%.9g,%d\n"
                             % (label, t, i, *row))
    return "".join(lines)


def _reference_aggregate_csv(table) -> str:
    lines = ["variant,iteration,er_db_p10,er_db_p50,er_db_p90\n"]
    for label in table.variant_order:
        iters, p10, p50, p90 = table.percentile_curves(label)
        for i in range(len(iters)):
            lines.append(f"{label},{iters[i]},{p10[i]:.9g},{p50[i]:.9g},"
                         f"{p90[i]:.9g}\n")
    return "".join(lines)


# --- the heater ---------------------------------------------------------------

def _crossing_time(v_from, v_to, frac, t_hi=200e-6):
    """Bisection for the time at which the phase crosses ``frac`` of its
    swing; independent of the closed-form settling expression."""
    phi0 = voltage_to_phase(v_from)
    phi1 = voltage_to_phase(v_to)
    target = phi0 + frac * (phi1 - phi0)
    sign = 1.0 if phi1 >= phi0 else -1.0
    lo, hi = 0.0, t_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sign * (thermal_step_response(v_from, v_to, mid) - target) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
