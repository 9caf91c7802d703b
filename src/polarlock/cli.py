"""Command-line front end.

Subcommands: ``run`` (execute a config, write CSV + summary), ``oracle``
(closed-form best intensity for one SOP), ``sweep`` (vary one config key
over a list of values, one CSV per value), ``validate`` (algebraic identity
suite).  Exit codes: 0 success, 1 config/usage error, 2 identity-check
failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .config import ConfigError, load_experiment_config, resolve_key
from .device import DeviceParams
from .harness import (run_experiment, run_identity_checks, summarize,
                      threads_from_env)
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

    p_val = sub.add_parser("validate", help="run the algebraic identity suite")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--samples", type=int, default=1000)
    return parser


def _overrides(args) -> dict[str, str]:
    over: dict[str, str] = {}
    if getattr(args, "trials", None) is not None:
        over["experiment.trials"] = str(args.trials)
    if getattr(args, "seed", None) is not None:
        over["experiment.base_seed"] = str(args.seed)
    if getattr(args, "out", None):
        over["experiment.output"] = args.out
    return over


def _workers() -> int:
    try:
        return threads_from_env()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _write_outputs(cfg, table) -> str:
    stem, ext = os.path.splitext(cfg.output_path)
    table.write_csv(cfg.output_path)
    table.write_aggregate_csv(f"{stem}_aggregate{ext or '.csv'}")
    text = summarize(table)
    with open(f"{stem}_summary.txt", "w") as f:
        f.write(text)
    return text


def _cmd_run(args) -> int:
    workers = _workers()
    cfg = load_experiment_config(args.config, _overrides(args))
    table = run_experiment(cfg, max_workers=workers)
    text = _write_outputs(cfg, table)
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
            sop = JonesVector(complex(vals[0], vals[1]),
                              complex(vals[2], vals[3])).normalized()
        except ValueError as exc:
            raise ConfigError(f"bad --sop value {args.sop!r} ({exc})") from None
        if not all(math.isfinite(v) for v in vals):
            raise ConfigError(f"--sop values must be finite: {args.sop!r}")
    else:
        sop = random_sop(np.random.default_rng(args.seed))
    best, phases = oracle_best(sop, device)
    print(f"best_intensity: {best:.9g}")
    for i, theta in enumerate(phases.as_tuple(), start=1):
        print(f"theta{i}: {theta:.9g}")
    return 0


def _cmd_sweep(args) -> int:
    workers = _workers()
    key = resolve_key(args.key)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("--values must list at least one value")
    base_over = _overrides(args)
    base_cfg = load_experiment_config(args.config, base_over)
    stem, ext = os.path.splitext(base_cfg.output_path)
    ext = ext or ".csv"
    leaf = key.rsplit(".", 1)[1]
    for value in values:
        over = dict(base_over)
        over[key] = value
        over["experiment.output"] = f"{stem}_{leaf}_{value}{ext}"
        cfg = load_experiment_config(args.config, over)
        table = run_experiment(cfg, max_workers=workers)
        _write_outputs(cfg, table)
        finals = ", ".join(f"{lab}={table.median_final_er(lab):.2f}dB"
                           for lab in table.variant_order)
        print(f"{key}={value}: median final ER {finals} -> {cfg.output_path}")
    return 0


def _cmd_validate(args) -> int:
    checks = run_identity_checks(seed=args.seed, n=args.samples)
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
    for option, low in (("seed", 0), ("samples", 1)):
        value = getattr(args, option, None)
        if value is not None and value < low:
            parser.error(f"--{option} must be >= {low}, got {value}")
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    handlers = {"run": _cmd_run, "oracle": _cmd_oracle,
                "sweep": _cmd_sweep, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"polarlock: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"polarlock: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
