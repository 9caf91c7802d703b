"""Command-line front end.

Subcommands: ``run`` (execute a config, write CSV + summary), ``oracle``
(closed-form best intensity for one SOP), ``sweep`` (vary one config key
over a list of values, one CSV per value), ``validate`` (algebraic identity
suite).  Exit codes: 0 success, 1 config/usage error (a run too large for
the host's memory included), 2 identity-check failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .config import ConfigError, load_experiment_config, resolve_key
from .device import DeviceParams
from .harness import (_run_bytes, run_experiment, run_identity_checks,
                      summarize)
from .jones import JonesVector, random_sop
from .oracle import oracle_best


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="polarlock",
                     description="Polarization-lock simulation harness")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", help="config file path")
    p_run.add_argument("--out", help="output CSV path (overrides config)")
    p_run.add_argument("--trials", type=int, help="override trial count")
    p_run.add_argument("--seed", type=int, help="override base seed")

    p_or = sub.add_parser("oracle", help="closed-form best port intensity")
    p_or.add_argument("--sop", help="input SOP as 'ex_re,ex_im,ey_re,ey_im'")
    p_or.add_argument("--seed", type=int, default=0,
                      help="draw a random SOP from this seed (default 0)")

    p_sw = sub.add_parser("sweep", help="vary one config key over values")
    p_sw.add_argument("--key", required=True, help="config key to vary")
    p_sw.add_argument("--values", required=True,
                      help="comma-separated values")
    p_sw.add_argument("--config", help="base config file")
    p_sw.add_argument("--out", help="base output CSV path")
    p_sw.add_argument("--trials", type=int, help="override trial count")
    p_sw.add_argument("--seed", type=int, help="override base seed")

    sub.add_parser("validate", help="run the algebraic identity suite")
    return parser


def _overrides(args) -> dict[str, str]:
    over: dict[str, str] = {}
    if getattr(args, "trials", None) is not None:
        over["experiment.trials"] = str(args.trials)
    if getattr(args, "seed", None) is not None:
        over["experiment.base_seed"] = str(args.seed)
    if getattr(args, "out", None) is not None:
        over["experiment.output"] = args.out
    return over


def _workers() -> int:
    """Trial processes for ``run`` and ``sweep``: the POLARLOCK_THREADS
    environment variable, 1 when unset."""
    raw = os.environ.get("POLARLOCK_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(
            f"POLARLOCK_THREADS must be an integer >= 1, got {raw!r}")
    return workers


def _output_paths(path: str) -> tuple[str, str, str]:
    """The rows, aggregate and summary files written for output path
    ``path``: ``out.csv`` gives ``out_aggregate.csv`` and
    ``out_summary.txt`` beside it."""
    stem, ext = os.path.splitext(path)
    return path, f"{stem}_aggregate{ext or '.csv'}", f"{stem}_summary.txt"


def _check_output(path: str, written) -> None:
    """Fail before the first lock if output path ``path`` names no file or
    no writable directory, or if a file in ``written`` is a directory."""
    folder = os.path.dirname(path) or "."
    if not os.path.basename(path) or os.path.isdir(path):
        raise ConfigError(f"output path {path!r} names no file")
    if not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise ConfigError(f"output path {path!r}: directory {folder!r} "
                          "does not exist or is not writable")
    for name in written:
        if os.path.isdir(name):
            raise ConfigError(f"output file {name!r} is a directory")


def _check_size(cfg, workers: int) -> None:
    """Fail before the first lock if the run needs more than the host's
    memory (``harness._run_bytes``)."""
    need = _run_bytes(cfg, workers)
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return  # the host does not say
    if 0 < have < need:
        raise ConfigError(
            f"the run needs at least {need} bytes (variants "
            f"{len(cfg.variants)}, trials {cfg.trials}, iterations "
            f"{cfg.anneal.total_iterations}, workers {workers}), "
            f"more than the {have} bytes of memory on this host")


def _write_outputs(cfg, table) -> str:
    rows, aggregate, summary = _output_paths(cfg.output_path)
    table.write_csv(rows)
    table.write_aggregate_csv(aggregate)
    text = summarize(table)
    with open(summary, "w") as f:
        f.write(text)
    return text


def _trim_heap() -> None:
    """Return the C heap's free pages to the OS (glibc only): a run's table
    and blocks its in-process caller freed are then never both resident."""
    import ctypes  # imported here: only a run needs it
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):  # not glibc
        pass


def _cmd_run(args) -> int:
    workers = _workers()
    cfg = load_experiment_config(args.config, _overrides(args))
    _check_output(cfg.output_path, _output_paths(cfg.output_path))
    _check_size(cfg, workers)
    _trim_heap()
    text = _write_outputs(cfg, run_experiment(cfg, max_workers=workers))
    _trim_heap()  # the table is freed
    sys.stdout.write(text)
    print(f"rows written to {cfg.output_path}")
    return 0


def _cmd_oracle(args) -> int:
    device = DeviceParams.ideal()
    if args.sop:
        parts = [p.strip() for p in args.sop.split(",")]
        if len(parts) != 4:
            raise ConfigError("--sop needs four numbers: ex_re,ex_im,ey_re,ey_im")
        try:
            vals = [float(p) for p in parts]
            if not all(math.isfinite(v) for v in vals):
                raise ValueError("values must be finite")
            sop = JonesVector(complex(vals[0], vals[1]),
                              complex(vals[2], vals[3])).normalized()
        except ValueError as exc:
            raise ConfigError(f"bad --sop value {args.sop!r} ({exc})") from None
    else:
        sop = random_sop(np.random.default_rng(args.seed))
    best, phases = oracle_best(sop, device)
    print(f"best_intensity: {best:.9g}")
    for i, theta in enumerate(phases, start=1):
        print(f"theta{i}: {theta:.9g}")
    return 0


def _cmd_sweep(args) -> int:
    workers = _workers()
    key = resolve_key(args.key)
    if key == "experiment.output":
        raise ConfigError("sweep cannot vary experiment.output; use --out")
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one value")
    base_over = _overrides(args)
    base_cfg = load_experiment_config(args.config, base_over)
    stem, ext = os.path.splitext(base_cfg.output_path)
    ext = ext or ".csv"
    leaf = key.rsplit(".", 1)[1]
    # every value is checked before the first run writes anything
    cfgs = [load_experiment_config(args.config, {
        **base_over, key: value,
        "experiment.output": f"{stem}_{leaf}_{value}{ext}"})
        for value in values]
    _check_output(base_cfg.output_path, [
        name for cfg in cfgs for name in _output_paths(cfg.output_path)])
    seen: dict = {}  # two spellings of one value would run the same twice
    for value, cfg in zip(values, cfgs):
        run = replace(cfg, output_path="")
        if run in seen:
            first = seen[run]
            same = "" if first == value else f" as {value}"
            raise ConfigError(f"--values repeats {first}{same}")
        seen[run] = value
        _check_size(cfg, workers)
    for value, cfg in zip(values, cfgs):
        table = run_experiment(cfg, max_workers=workers)
        _write_outputs(cfg, table)
        finals = ", ".join(f"{lab}={table.median_final_er(lab):.2f}dB"
                           for lab in table.variant_order)
        print(f"{key}={value}: median final ER {finals} -> {cfg.output_path}")
    return 0


def _cmd_validate(args) -> int:
    checks = run_identity_checks()
    failed = False
    for chk in checks:
        status = "ok  " if chk.passed else "FAIL"
        print(f"{status} {chk.name}: max defect {chk.defect:.3e} "
              f"(tol {chk.tol:g})")
        failed = failed or not chk.passed
    return 2 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is not None and args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    handlers = {"run": _cmd_run, "oracle": _cmd_oracle,
                "sweep": _cmd_sweep, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"polarlock: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"polarlock: error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
