import concurrent.futures
import math
import os
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarlock import (AnnealConfig, ConfigError, DeviceParams,
                       DisturbanceModel, ExperimentConfig, JonesVector,
                       StepSchedule, load_experiment_config,
                       oracle_best, port_intensity, random_sop,
                       run_experiment, run_identity_checks, run_lock,
                       summarize)
from polarlock.cli import _check_size, _write_outputs
from polarlock.cli import main as cli_main
from polarlock.config import KEYS, parse_config_text
from polarlock.disturbance import DisturbedObjective
from polarlock.device import PHASE_SPAN
from polarlock.harness import (_CELL_BYTES, _FIELDS, _LOCK_BYTES,
                               _PASS_BYTES, _ROW_BYTES, ResultsTable,
                               _run_bytes, _run_trial)

SMALL = ExperimentConfig(
    anneal=AnnealConfig(m0=4, n0=25),
    variants=(StepSchedule.default(), StepSchedule(0.16)),
    trials=3,
)


# --- variants ------------------------------------------------------------------

def test_parse_variant_forms():
    assert StepSchedule.parse("variable") == StepSchedule.default()
    assert StepSchedule.parse(" fixed(0.16) ") == StepSchedule(0.16)


@pytest.mark.parametrize("token", ["", "fixed", "fixed()", "fixed(x)",
                                   "variable(0.1)", "random(0.1)",
                                   "fixed(nan)", "fixed(inf)",
                                   "voltage-fixed(0.1)"])
def test_parse_variant_rejects_garbage(token):
    with pytest.raises(ValueError):
        StepSchedule.parse(token)


@pytest.mark.parametrize("token,message", [
    ("fixed[0.1]", "bad variant 'fixed[0.1]'; expected 'variable' or "
                   "'fixed(ST)'"),
    ("fixed(x)", "bad step value in variant 'fixed(x)'"),
    ("fixed(nan)", "step must be a finite number >= 0, got nan")])
def test_parse_variant_names_the_fault(token, message):
    with pytest.raises(ValueError) as exc:
        StepSchedule.parse(f" {token} ")
    assert str(exc.value) == message


def test_variant_labels_round_trip():
    for token in ("variable", "fixed(0.16)", "fixed(0.005)",
                  "fixed(0.1234567)"):
        assert StepSchedule.parse(token).label == token


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-0.0, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(2.225073858507201e-308)
@example(0.123456789123)
@example(1.7976931348623157e308)
def test_fixed_labels_round_trip(step):
    # a label keeps 9 significant digits, so parsing it may round the step,
    # but never changes the label
    label = StepSchedule(step).label
    assert StepSchedule.parse(label).label == label


def test_parse_variant_negative_zero_is_zero(tmp_path):
    # fixed(-0) runs fixed(0), so listing both is a repeated label
    step = StepSchedule.parse("fixed(-0)").step
    assert step == 0.0 and str(step) == "0.0"
    path = tmp_path / "zero.cfg"
    path.write_text("experiment.variants = fixed(0), fixed(-0)\n")
    with pytest.raises(ConfigError, match="variant labels must be unique"):
        load_experiment_config(str(path))


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(variants=())
    with pytest.raises(ValueError):
        ExperimentConfig(variants=(StepSchedule.default(),
                                   StepSchedule.default()))
    with pytest.raises(ValueError, match="fixed\\(0\\), fixed\\(0\\)"):
        ExperimentConfig(variants=(StepSchedule(0.0),
                                   StepSchedule(-0.0)))
    with pytest.raises(ValueError, match="jump_at"):
        ExperimentConfig(disturbance=DisturbanceModel(kind="jump",
                                                      jump_at=500))


def test_variants_are_stored_as_a_tuple_of_schedules():
    # a list is stored as its tuple, so the config hashes and equals the
    # one built from a tuple; an element that is not a schedule is a named
    # error, not an AttributeError from the label check
    listed = ExperimentConfig(variants=[StepSchedule()])
    assert type(listed.variants) is tuple
    assert listed == ExperimentConfig(variants=(StepSchedule(),))
    assert hash(listed) == hash(ExperimentConfig(variants=(StepSchedule(),)))
    with pytest.raises(ValueError, match=r"variants\[1\] .* 'variable'"):
        ExperimentConfig(variants=(StepSchedule(), "variable"))


# --- experiment runs -------------------------------------------------------------

def test_run_experiment_row_count_and_order(tmp_path):
    table = run_experiment(SMALL)
    n = SMALL.anneal.total_iterations
    assert len(table) == 2 * 3 * n
    assert table.er_db.shape == (2, 3, n)
    assert (table.trials, table.iterations_per_trial) == (3, n)
    assert table.variant_order == ("variable", "fixed(0.16)")
    # rows are written in (variant order, trial, iteration) order
    path = tmp_path / "rows.csv"
    table.write_csv(path)
    keys = [line.split(",")[:3]
            for line in path.read_text().splitlines()[1:]]
    assert keys == [[label, str(t), str(i)]
                    for label in table.variant_order
                    for t in range(3) for i in range(1, n + 1)]


@pytest.mark.parametrize("workers", [1, 2])
def test_table_blocks_match_trial_traces(workers):
    # three trials a variant: the pool's chunks of four cross a variant
    table = run_experiment(SMALL, max_workers=workers)
    # the size check counts a cell at the table's own bytes
    assert _CELL_BYTES == sum(getattr(table, name).itemsize
                              for name in _FIELDS)
    for t in range(SMALL.trials):
        cells = _run_trial(SMALL, t)
        assert len(cells) == len(SMALL.variants)
        for v, fields in enumerate(cells):
            for name, values in zip(_FIELDS, fields, strict=True):
                block = getattr(table, name)
                assert block.dtype == values.dtype
                assert np.array_equal(block[v, t], values)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("model", [
    DisturbanceModel(kind="drift", drift_rate=0.01),
    DisturbanceModel(kind="jump", jump_at=40, jump_magnitude=1.0)],
    ids=["drift", "jump"])
def test_table_equals_per_cell_reference_locks(model, workers):
    # each (variant, trial) cell as its own lock on a generator seeded
    # base_seed + trial, with its own objective: the trial's one
    # DisturbedObjective restarts the channel on every lock of its draws
    cfg = replace(SMALL, disturbance=model, base_seed=21)
    table = run_experiment(cfg, max_workers=workers)
    for v, schedule in enumerate(cfg.variants):
        for t in range(cfg.trials):
            rng = np.random.default_rng(cfg.base_seed + t)
            sop = random_sop(rng)
            trace = run_lock(DisturbedObjective(sop, cfg.device, model, rng),
                             cfg.anneal, cfg.device.tps, rng, schedule)
            for name in _FIELDS:
                want = getattr(trace, name)
                got = getattr(table, name)[v, t]
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


def test_run_experiment_deterministic_csv(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(SMALL).write_csv(p1)
    run_experiment(SMALL).write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("model", [
    DisturbanceModel(),
    DisturbanceModel(kind="drift", drift_rate=0.01),
    DisturbanceModel(kind="jump", jump_at=40, jump_magnitude=1.0)],
    ids=["static", "drift", "jump"])
def test_run_experiment_parallel_matches_serial(tmp_path, model):
    cfg = replace(SMALL, disturbance=model)
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    run_experiment(cfg, max_workers=1).write_csv(serial)
    run_experiment(cfg, max_workers=3).write_csv(parallel)
    assert serial.read_bytes() == parallel.read_bytes()


def test_run_experiment_caps_pool_at_job_count(tmp_path, monkeypatch):
    # the pool forks every worker it is given at the first submit, so a
    # large worker count must not outnumber the jobs; no real pool starts
    requested = []

    class InlinePool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cfg = replace(SMALL, trials=2)
    serial, capped = tmp_path / "serial.csv", tmp_path / "capped.csv"
    run_experiment(cfg, max_workers=1).write_csv(serial)
    run_experiment(cfg, max_workers=5000).write_csv(capped)
    assert requested == [cfg.trials]
    assert serial.read_bytes() == capped.read_bytes()

    requested.clear()  # one job runs serially, with no pool at all
    run_experiment(replace(cfg, variants=cfg.variants[:1], trials=1),
                   max_workers=5000)
    assert requested == []


def test_run_experiment_ignores_threads_env(tmp_path, monkeypatch):
    # only the CLI reads POLARLOCK_THREADS; the library takes max_workers
    monkeypatch.setenv("POLARLOCK_THREADS", "abc")
    a = tmp_path / "env.csv"
    run_experiment(SMALL).write_csv(a)
    monkeypatch.delenv("POLARLOCK_THREADS")
    b = tmp_path / "plain.csv"
    run_experiment(SMALL, max_workers=1).write_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_aggregates_recomputable_from_rows(tmp_path):
    table = run_experiment(SMALL)
    for v, label in enumerate(table.variant_order):
        p10, p50, p90 = np.percentile(table.er_db[v], [10.0, 50.0, 90.0],
                                      axis=0)
        _, q10, q50, q90 = table.percentile_curves(label)
        assert np.array_equal(p10, q10)
        assert np.array_equal(p50, q50)
        assert np.array_equal(p90, q90)


def test_csv_header_and_formatting(tmp_path):
    path = tmp_path / "rows.csv"
    cfg = replace(SMALL, trials=1, variants=(StepSchedule.default(),))
    run_experiment(cfg).write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("variant,trial,iteration,temperature,step_rad,"
                        "i_px,i_py,er_db,accepted")
    first = lines[1].split(",")
    assert first[0] == "variable" and first[1] == "0" and first[2] == "1"
    assert first[3] == "1e-05"
    assert first[8] in ("0", "1")


# --- oracle ----------------------------------------------------------------------

def test_oracle_aligned_input():
    best, phases = oracle_best(JonesVector(1.0, 0.0), DeviceParams.ideal())
    assert best >= 1.0 - 1e-9
    assert port_intensity(JonesVector(1.0, 0.0), phases) == pytest.approx(
        best, abs=1e-15)


def test_oracle_crossed_input():
    best, _ = oracle_best(JonesVector(0.0, 1.0), DeviceParams.ideal())
    assert best >= 1.0 - 1e-6


def test_oracle_random_inputs_fully_reachable():
    rng = np.random.default_rng(20)
    for _ in range(5):
        best, _ = oracle_best(random_sop(rng), DeviceParams.ideal())
        assert best >= 1.0 - 1e-6


def test_oracle_rejects_noisy_device():
    with pytest.raises(ValueError):
        oracle_best(JonesVector(1.0, 0.0), DeviceParams())


def test_oracle_dominates_controller_traces():
    from polarlock import bind_objective, run_lock
    dev = DeviceParams.ideal()
    for seed in range(3):
        rng = np.random.default_rng(seed)
        sop = random_sop(rng)
        best, _ = oracle_best(sop, dev)
        trace = run_lock(bind_objective(sop, dev, rng), AnnealConfig(),
                         dev.tps, rng)
        assert trace.i_px.max() <= best + 1e-9


# --- summaries ---------------------------------------------------------------------

def test_medians_are_the_aggregate_files_p50(tmp_path):
    # np.median puts the mean of these two readings one bit above the p50
    # that np.percentile interpolates
    er = np.array([6.080316100901482, 36.94981429500725]).reshape(1, 2, 1)
    table = ResultsTable(("variable",), np.ones(1), np.zeros_like(er),
                         np.zeros_like(er), np.zeros_like(er), er,
                         np.zeros(er.shape, bool))
    p50 = table.percentile_curves("variable")[2][0]
    assert p50 == 21.515065197954364
    assert table.median_er_curve("variable")[0] == p50
    assert table.median_final_er("variable") == p50
    path = tmp_path / "agg.csv"
    table.write_aggregate_csv(str(path))
    row = path.read_text().splitlines()[1].split(",")
    assert row[3] == "%.9g" % table.median_final_er("variable")


def test_outputs_take_one_percentile_per_variant(tmp_path, monkeypatch):
    # one percentile pass over the whole table serves the aggregate file and
    # the summary, which reads as an equal table's summary
    table = run_experiment(SMALL)
    want = summarize(run_experiment(SMALL))
    calls = []
    percentile = np.percentile

    def counted(*args, **kwargs):
        calls.append((args[0].shape, args[1]))
        return percentile(*args, **kwargs)

    monkeypatch.setattr(np, "percentile", counted)
    cfg = replace(SMALL, output_path=str(tmp_path / "run.csv"))
    assert _write_outputs(cfg, table) == want
    assert calls == [(table.er_db.shape, [10.0, 50.0, 90.0])]
    assert (tmp_path / "run_summary.txt").read_text() == want
    # the pass is kept: a second summary takes none
    assert summarize(table) == want and len(calls) == 1


def test_sweep_takes_one_percentile_per_variant_and_value(tmp_path,
                                                         monkeypatch, capsys):
    # the line a sweep prints reads its finals off the table's one percentile
    # pass: two values of three variants take two percentile calls
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("anneal.m0 = 2\nanneal.n0 = 25\nexperiment.trials = 3\n")
    out = tmp_path / "out.csv"
    calls = []
    percentile = np.percentile

    def counted(*args, **kwargs):
        calls.append((args[0].shape, args[1]))
        return percentile(*args, **kwargs)

    monkeypatch.setattr(np, "percentile", counted)
    assert cli_main(["sweep", "--key", "noise_sigma", "--values", "0,5e-4",
                     "--config", str(cfg), "--out", str(out)]) == 0
    assert calls == [((3, 3, 50), [10.0, 50.0, 90.0])] * 2
    monkeypatch.setattr(np, "percentile", percentile)
    lines = capsys.readouterr().out.splitlines()
    for line, value in zip(lines, ["0", "5e-4"], strict=True):
        table = run_experiment(load_experiment_config(
            str(cfg), {"device.noise_sigma": value}))
        finals = ", ".join(f"{lab}={table.median_final_er(lab):.2f}dB"
                           for lab in table.variant_order)
        assert line == (f"device.noise_sigma={value}: median final ER "
                        f"{finals} -> {tmp_path}/out_noise_sigma_{value}.csv")


def test_median_final_er_is_the_median_curves_last_point():
    # the table above has one iteration, so it cannot tell the last point
    # from the first; four trials make each p50 interpolate two readings
    cfg = replace(SMALL, trials=4, variants=ExperimentConfig().variants)
    table = run_experiment(cfg)
    assert len(table.variant_order) == 3
    for label in table.variant_order:
        assert (table.median_final_er(label)
                == table.median_er_curve(label)[-1]
                == np.percentile(table.er_db[table._index(label), :, -1],
                                 50.0))


def test_summarize_keys_and_crossing():
    cfg = replace(SMALL, anneal=AnnealConfig(), trials=2,
                  variants=(StepSchedule.default(),))
    table = run_experiment(cfg)
    text = summarize(table)
    assert "trials: 2" in text
    assert "variable.median_final_er_db: " in text
    assert "variable.acceptance_rate: " in text
    crossing = [l for l in text.splitlines()
                if l.startswith("variable.crossing_25db: ")]
    assert len(crossing) == 1
    value = crossing[0].split(": ")[1]
    assert value != "none" and 1 <= int(value) <= cfg.anneal.total_iterations


def _table_missing_variant():
    table = run_experiment(replace(SMALL, variants=(StepSchedule.default(),)))
    table.variant_order = ("variable", "fixed(0.31)")
    return table


def test_summarize_names_missing_variant():
    table = _table_missing_variant()
    with pytest.raises(ValueError, match="fixed\\(0.31\\)"):
        summarize(table)


@pytest.mark.parametrize("write", ["write_csv", "write_aggregate_csv"])
def test_writers_name_missing_variant_before_opening(write, tmp_path):
    table = _table_missing_variant()
    with pytest.raises(ValueError, match="fixed\\(0.31\\)"):
        getattr(table, write)(str(tmp_path / "out.csv"))
    assert list(tmp_path.iterdir()) == []


# --- identity suite -----------------------------------------------------------------

def test_identity_checks_all_pass():
    checks = run_identity_checks()
    assert len(checks) == 6
    for chk in checks:
        assert chk.passed, f"{chk.name} defect {chk.defect}"


def test_experiment_config_rejects_base_step_beyond_phase_span():
    with pytest.raises(ValueError, match=r"variant fixed\(10\): .*PHASE_SPAN"):
        ExperimentConfig(variants=(StepSchedule(10.0),))


_COUNTS = {
    "m0": lambda v: AnnealConfig(m0=v),
    "n0": lambda v: AnnealConfig(n0=v),
    "jump_at": lambda v: DisturbanceModel(kind="jump", jump_at=v,
                                          jump_magnitude=1.0),
    "trials": lambda v: ExperimentConfig(trials=v),
    "base_seed": lambda v: ExperimentConfig(base_seed=v),
}


@pytest.mark.parametrize("name", _COUNTS)
def test_counts_must_be_integers(name):
    # a float count fails where it is made, naming its field, not mid-run in
    # numpy, range, repeat or SeedSequence
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, "
                                         r"got 2\.5$"):
        _COUNTS[name](2.5)
    _COUNTS[name](np.int64(3))  # numpy integers count


# half the span, where every lock starts, and half its float spacing
_START = PHASE_SPAN / 2.0
_HALF_ULP = math.ulp(_START) / 2.0


@pytest.mark.parametrize("span,step,moves", [
    # a fixed step just above and just below half the spacing at 3*pi/2
    (PHASE_SPAN, math.nextafter(_HALF_ULP, 1.0), True),
    (PHASE_SPAN, math.nextafter(_HALF_ULP, 0.0), False),
    (PHASE_SPAN, 0.0, True),  # fixed(0) is allowed
])
def test_experiment_config_rejects_a_step_that_cannot_move(span, step, moves):
    variants = (StepSchedule(step),)
    if moves:
        ExperimentConfig(variants=variants)
    else:
        with pytest.raises(ValueError, match=re.escape(
                "cannot move the start point PHASE_SPAN / 2 = "
                f"{span / 2:g} rad")):
            ExperimentConfig(variants=variants)


# --- config files --------------------------------------------------------------------

def test_config_defaults_from_empty_file(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing here\n\n")
    cfg = load_experiment_config(str(path))
    assert cfg == ExperimentConfig()


def test_config_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# device under test\n"
        "device.noise_sigma = 1e-3\n"
        "device.static_er_db = none\n"
        "anneal.m0 = 5\n"
        "anneal.n0 = 20\n"
        "disturbance.kind = jump\n"
        "disturbance.jump_at = 40\n"
        "disturbance.jump_magnitude = 1.0\n"
        "experiment.variants = variable, fixed(0.02)\n"
        "experiment.trials = 7\n"
        "experiment.base_seed = 3\n"
        "experiment.output = out.csv\n"
    )
    cfg = load_experiment_config(str(path))
    assert cfg.device.noise_sigma == 1e-3
    assert cfg.device.static_er_db is None
    assert cfg.anneal.m0 == 5 and cfg.anneal.n0 == 20
    assert cfg.disturbance.kind == "jump" and cfg.disturbance.jump_at == 40
    assert cfg.variants == (StepSchedule.default(), StepSchedule(0.02))
    assert cfg.trials == 7 and cfg.base_seed == 3
    assert cfg.output_path == "out.csv"


def test_config_readme_block_is_the_defaults(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert set(parse_config_text(block)) == set(KEYS)
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    assert load_experiment_config(str(path)) == ExperimentConfig()


def test_config_bare_field_names_are_unique():
    fields = [key.rsplit(".", 1)[1] for key in KEYS]
    assert len(set(fields)) == len(fields)


def test_config_key_set_twice_names_both_lines(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("anneal.m0 = 5\nanneal.t0 = 1e-5\nanneal.m0 = 7\n")
    with pytest.raises(ConfigError,
                       match="'anneal.m0' is set twice, on lines 1 and 3"):
        load_experiment_config(str(path))


def test_cli_non_utf8_config_names_path(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"# caf\xff\nanneal.m0 = 4\n")
    assert cli_main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


def test_config_unknown_key_named(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("device.noise = 1\n")
    with pytest.raises(ConfigError, match="device.noise"):
        load_experiment_config(str(path))
    # the cooling factor is a constant: a file or an override naming it
    path.write_text("anneal.cooling_p = 0.5\n")
    unknown = "unknown config key 'anneal.cooling_p'"
    with pytest.raises(ConfigError, match=unknown):
        load_experiment_config(str(path))
    with pytest.raises(ConfigError, match=unknown):
        load_experiment_config(None, {"anneal.cooling_p": "0.5"})


def test_config_bad_value_named(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("anneal.t0 = banana\n")
    with pytest.raises(ConfigError, match="anneal.t0"):
        load_experiment_config(str(path))


def test_config_invalid_combination_reported(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("anneal.m0 = 1100\nanneal.n0 = 1\n")
    with pytest.raises(ConfigError, match="invalid configuration: .*m0=1100"):
        load_experiment_config(str(path))


def test_config_rejects_jump_past_run_length():
    over = {"disturbance.kind": "jump", "anneal.m0": "4", "anneal.n0": "25"}
    load_experiment_config(None, {**over, "disturbance.jump_at": "99"})
    with pytest.raises(ConfigError, match="jump_at"):
        load_experiment_config(None, {**over, "disturbance.jump_at": "100"})


def test_config_missing_file_names_path():
    with pytest.raises(ConfigError, match="nowhere.cfg"):
        load_experiment_config("nowhere.cfg")


def test_config_overrides_and_bare_keys():
    cfg = load_experiment_config(None, {"noise_sigma": "0",
                                        "experiment.trials": "4"})
    assert cfg.device.noise_sigma == 0.0
    assert cfg.trials == 4
    with pytest.raises(ConfigError, match="bogus"):
        load_experiment_config(None, {"bogus": "1"})


# --- CLI -------------------------------------------------------------------------------

def _write_small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(
        "anneal.m0 = 4\n"
        "anneal.n0 = 25\n"
        "experiment.trials = 3\n"
        "experiment.variants = variable\n"
        f"experiment.output = {tmp_path / 'out.csv'}\n"
    )
    return path


def test_cli_validate_exit_zero(capsys):
    assert cli_main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "m45_coupler_decomposition" in out and "FAIL" not in out


def test_cli_run_writes_artifacts(tmp_path, capsys):
    cfg = _write_small_cfg(tmp_path)
    assert cli_main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "out.csv").exists()
    assert (tmp_path / "out_aggregate.csv").exists()
    assert (tmp_path / "out_summary.txt").exists()
    assert "variable.median_final_er_db" in capsys.readouterr().out
    # re-running reproduces the CSV byte for byte
    first = (tmp_path / "out.csv").read_bytes()
    assert cli_main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "out.csv").read_bytes() == first


@pytest.mark.parametrize("libc", ["glibc", "no malloc_trim", "no C library"])
def test_cli_run_trims_the_heap_where_it_can(libc, tmp_path, monkeypatch):
    cfg = _write_small_cfg(tmp_path)
    assert cli_main(["run", "--config", str(cfg)]) == 0
    calls = []

    class Glibc:
        def malloc_trim(self, pad):
            calls.append(pad)

    def cdll(name):
        if libc == "no C library":
            raise OSError(f"{name}: cannot open shared object file")
        return Glibc() if libc == "glibc" else object()
    monkeypatch.setattr("ctypes.CDLL", cdll)
    assert cli_main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "trimmed.csv")]) == 0
    # once before the table is allocated, once after it is freed
    assert calls == ([0, 0] if libc == "glibc" else [])
    for suffix in (".csv", "_aggregate.csv", "_summary.txt"):
        plain = (tmp_path / f"out{suffix}").read_bytes()
        assert plain == (tmp_path / f"trimmed{suffix}").read_bytes()


def test_cli_run_missing_config(capsys):
    assert cli_main(["run", "--config", "missing.file"]) == 1
    assert "missing.file" in capsys.readouterr().err


def test_cli_run_unwritable_output(tmp_path, capsys):
    cfg = _write_small_cfg(tmp_path)
    bad = tmp_path / "no-such-dir" / "out.csv"
    assert cli_main(["run", "--config", str(cfg), "--out", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("output", ["", "no-such-dir/out.csv", "."])
@pytest.mark.parametrize("via_file", [True, False])
def test_cli_bad_output_fails_before_any_lock(command, output, via_file,
                                              tmp_path, monkeypatch, capsys):
    def no_lock(*args, **kwargs):
        raise AssertionError("locked before checking the output path")
    monkeypatch.setattr("polarlock.cli.run_experiment", no_lock)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "bad.cfg"
    if via_file:
        cfg.write_text(f"experiment.output = {output}\n")
        argv = [command, "--config", str(cfg)]
    else:
        argv = [command, "--out", output]
    if command == "sweep":
        argv += ["--key", "trials", "--values", "1"]
    assert cli_main(argv) == 1
    assert f"output path {output!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == ([cfg] if via_file else [])


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("side", ["_aggregate.csv", "_summary.txt"])
def test_cli_blocked_side_file_fails_before_any_lock(command, side, tmp_path,
                                                     monkeypatch, capsys):
    # a directory where the aggregate or summary file would go stops the
    # command before its first lock, so not even the rows file is written
    monkeypatch.chdir(tmp_path)
    argv, stem = [command, "--trials", "1", "--out", "b.csv"], "b"
    if command == "sweep":
        argv += ["--key", "noise_sigma", "--values", "0"]
        stem = "b_noise_sigma_0"
    (tmp_path / f"{stem}{side}").mkdir()
    assert cli_main(argv) == 1
    assert f"{stem}{side}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [f"{stem}{side}"]


def _host_memory() -> int:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return -1


@pytest.mark.skipif(_host_memory() <= 0,
                    reason="the host does not report its memory")
@pytest.mark.parametrize("argv, text", [
    (["run", "--trials", "1000000000"], ""),
    (["run", "--trials", "1"], "anneal.n0 = 1000000000\n"),
    (["sweep", "--key", "n0", "--values", "10,1000000000", "--trials", "1"],
     ""),
])
def test_cli_too_large_for_memory_fails_before_any_lock(
        argv, text, tmp_path, monkeypatch, capsys):
    def no_lock(*args, **kwargs):
        raise AssertionError("locked before checking the run's size")
    monkeypatch.setattr("polarlock.cli.run_experiment", no_lock)
    cfg = tmp_path / "big.cfg"
    cfg.write_text(text)
    out = tmp_path / "out.csv"
    assert cli_main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"more than the {_host_memory()} bytes of memory" in err
    assert list(tmp_path.iterdir()) == [cfg]


def _traced_peak(call) -> int:
    """Peak bytes that ``call()`` allocates, numpy's blocks included."""
    call()  # first-call caches do not count
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("model", [
    DisturbanceModel(), DisturbanceModel(kind="drift", drift_rate=0.01)])
def test_a_lock_peaks_below_what_the_size_check_counts(model):
    cfg = replace(SMALL, anneal=AnnealConfig(m0=1, n0=1000),
                  disturbance=model, variants=SMALL.variants[:1])
    peak = _traced_peak(lambda: _run_trial(cfg, 0))
    assert peak < _LOCK_BYTES * cfg.anneal.total_iterations


def test_run_experiment_peaks_below_what_the_size_check_counts():
    cfg = ExperimentConfig(trials=2)
    n = cfg.anneal.total_iterations
    peak = _traced_peak(lambda: run_experiment(cfg))
    assert peak < (_CELL_BYTES * 3 * 2 + _LOCK_BYTES) * n


@pytest.mark.parametrize("trials", [1, 10])
def test_write_csv_peaks_below_what_the_size_check_counts(trials, tmp_path):
    # one chunk of rows: the check counts _ROW_BYTES per row of it
    table = run_experiment(ExperimentConfig(trials=trials,
                                            variants=(StepSchedule(),)))
    peak = _traced_peak(lambda: table.write_csv(str(tmp_path / "rows.csv")))
    assert peak < _ROW_BYTES * trials * table.iterations_per_trial


def test_percentile_pass_peaks_below_what_the_size_check_counts(tmp_path):
    # 200 trials of three variants: the pass's copy of er_db outgrows the
    # row writer's ten-trial chunk, so the check counts the pass instead
    cfg = ExperimentConfig(anneal=AnnealConfig(m0=1, n0=100), trials=200)
    er = np.random.default_rng(0).normal(20.0, 5.0, (3, 200, 100))
    zeros = np.zeros_like(er)

    def aggregate():
        table = ResultsTable(("a", "b", "c"), np.ones(100), zeros, zeros,
                             zeros, er, zeros.astype(bool))
        table.write_aggregate_csv(str(tmp_path / "aggregate.csv"))

    assert _traced_peak(aggregate) < _PASS_BYTES * er.size
    assert (_run_bytes(cfg, 1)
            == (_CELL_BYTES + _PASS_BYTES) * er.size)


def _fake_memory(monkeypatch, pages: int) -> None:
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}
    monkeypatch.setattr(os, "sysconf", sizes.__getitem__)


def test_size_check_counts_one_lock_per_worker(monkeypatch):
    # 3,000 cells and 500 iterations: 99,000 bytes, plus, per worker, one
    # lock and the two cells its trial finished first, 633,000 bytes; so
    # 732,000 bytes with one worker, 1,365,000 with two, and 250 pages hold
    # 1,024,000
    _fake_memory(monkeypatch, 250)
    cfg = ExperimentConfig(trials=2)
    assert _run_bytes(cfg, 1) == 732_000
    assert _run_bytes(cfg, 2) == 1_365_000
    assert _run_bytes(cfg, 200) == 1_365_000
    _check_size(cfg, 1)
    with pytest.raises(ConfigError, match="needs at least 1365000 bytes"):
        _check_size(cfg, 2)
    # two trials keep at most two locks live
    with pytest.raises(ConfigError, match="needs at least 1365000 bytes"):
        _check_size(cfg, 200)


@pytest.mark.parametrize("threads, pages", [("1", 100), ("2", 250)])
def test_cli_lock_too_large_for_memory_fails_before_any_lock(
        threads, pages, tmp_path, monkeypatch, capsys):
    # as many trials as workers, so that each worker runs a lock: the 1,500
    # or 3,000 result cells, 49,500 or 99,000 bytes, fit in either memory;
    # one 500-iteration lock too many does not
    def no_lock(*args, **kwargs):
        raise AssertionError("locked before checking the run's size")
    monkeypatch.setattr("polarlock.cli.run_experiment", no_lock)
    monkeypatch.setenv("POLARLOCK_THREADS", threads)
    _fake_memory(monkeypatch, pages)
    out = tmp_path / "out.csv"
    assert cli_main(["run", "--trials", threads, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"more than the {4096 * pages} bytes of memory" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_write_too_large_for_memory_fails_before_any_lock(
        tmp_path, monkeypatch, capsys):
    # ten trials of the three default variants: the 15,000 cells and one
    # lock with its trial's two earlier cells, 1,128,000 bytes, fit in 500
    # pages (2,048,000); the cells and the row writer's ten-trial chunk,
    # 2,995,000 bytes, do not
    def no_lock(*args, **kwargs):
        raise AssertionError("locked before checking the run's size")
    monkeypatch.setattr("polarlock.cli.run_experiment", no_lock)
    monkeypatch.delenv("POLARLOCK_THREADS", raising=False)
    _fake_memory(monkeypatch, 500)
    out = tmp_path / "out.csv"
    assert _run_bytes(ExperimentConfig(trials=10), 1) == 2_995_000
    assert cli_main(["run", "--trials", "10", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "needs at least 2995000 bytes" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_maps_memory_error_to_exit_one(tmp_path, monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 671. GiB")
    monkeypatch.setattr("polarlock.cli.run_experiment", out_of_memory)
    cfg = _write_small_cfg(tmp_path)
    assert cli_main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == ("polarlock: error: out of memory "
                   "(Unable to allocate 671. GiB)\n")


@pytest.mark.parametrize("threads", ["abc", "0", "-2"])
def test_cli_run_bad_threads_env(threads, tmp_path, monkeypatch, capsys):
    cfg = _write_small_cfg(tmp_path)
    monkeypatch.setenv("POLARLOCK_THREADS", threads)
    assert cli_main(["run", "--config", str(cfg)]) == 1
    assert "POLARLOCK_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_cli_run_threads_env_writes_same_files(tmp_path, monkeypatch):
    cfg = _write_small_cfg(tmp_path)
    monkeypatch.delenv("POLARLOCK_THREADS", raising=False)
    assert cli_main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "serial.csv")]) == 0
    monkeypatch.setenv("POLARLOCK_THREADS", "2")
    assert cli_main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "pooled.csv")]) == 0
    for suffix in (".csv", "_aggregate.csv", "_summary.txt"):
        serial = (tmp_path / f"serial{suffix}").read_bytes()
        assert serial == (tmp_path / f"pooled{suffix}").read_bytes()


def test_cli_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        cli_main(["explode"])
    assert exc.value.code == 1


def test_cli_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--frobnicate"])
    assert exc.value.code == 1


def test_cli_no_subcommand_exits_one():
    assert cli_main([]) == 1


def test_cli_oracle_aligned(capsys):
    assert cli_main(["oracle", "--sop", "1,0,0,0"]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("best_intensity")][0]
    assert float(line.split(": ")[1]) >= 1.0 - 1e-9


@pytest.mark.parametrize("sop", ["1e308,0,1e308,0", "1e-320,0,0,1e-320"])
def test_cli_oracle_extreme_sop_magnitudes(sop, capsys):
    # the norm of these would overflow or underflow without rescaling
    assert cli_main(["oracle", "--sop", sop]) == 0
    assert "best_intensity: 1\n" in capsys.readouterr().out


@pytest.mark.parametrize("sop", ["0,0,0,0", "nan,0,1,0", "1,0,x,0"])
def test_cli_oracle_rejects_bad_sop(sop, capsys):
    assert cli_main(["oracle", "--sop", sop]) == 1
    assert "--sop" in capsys.readouterr().err


def test_cli_sweep_noise_monotone(tmp_path, capsys):
    cfg = _write_small_cfg(tmp_path)
    assert cli_main(["sweep", "--key", "noise_sigma",
                     "--values", "0,5e-4,5e-3", "--trials", "8",
                     "--config", str(cfg)]) == 0
    # the median final ER is not ordered by noise at this size (the order
    # flips with the base seed), so only what holds by construction is
    # checked: one complete file set per value, paired trials that the noise
    # changes, and the splitter's 28 dB floor on a noiseless reading
    rows, medians = [], []
    for value in ("0", "5e-4", "5e-3"):
        out = tmp_path / f"out_noise_sigma_{value}.csv"
        assert (tmp_path / f"out_noise_sigma_{value}_aggregate.csv").exists()
        rows.append(out.read_bytes())
        summary = dict(line.split(": ") for line in (
            tmp_path / f"out_noise_sigma_{value}_summary.txt"
        ).read_text().splitlines())
        assert summary["trials"] == "8"
        medians.append(float(summary["variable.median_final_er_db"]))
    assert len(set(rows)) == 3
    assert medians[0] <= 28.0


@pytest.mark.parametrize("argv,named", [
    (["run", "--seed", "-1"], "--seed"),
    (["sweep", "--key", "trials", "--values", "1", "--seed", "-1"], "--seed"),
    (["sweep", "--key", "base_seed", "--values", "-1"], "base_seed"),
    (["sweep", "--key", "variants", "--values", "fixed(inf)"],
     "experiment.variants"),
    (["sweep", "--key", "variants", "--values", "voltage-fixed(1e308)"],
     "voltage-fixed"),
    (["oracle", "--seed", "-1"], "--seed"),
    (["validate", "--seed", "-1"], "--seed"),
    (["validate", "--samples", "10"], "--samples"),
    (["validate", "--samples", "-1"], "--samples"),
    (["sweep", "--key", "mode", "--values", "voltage"],
     "unknown config key 'mode'"),
    (["sweep", "--key", "variants", "--values", "fixed(10)"], "fixed(10)"),
    (["sweep", "--key", "cooling_p", "--values", "1e-200"],
     "unknown config key 'cooling_p'"),
    (["sweep", "--key", "coupling_loss_db", "--values", "0,7,40"],
     "coupling_loss_db"),
    (["sweep", "--key", "output", "--values", "a.csv,b.csv"],
     "experiment.output"),
    (["sweep", "--key", "init_phase", "--values", "50"],
     "unknown config key 'init_phase'"),
    (["sweep", "--key", "schedule", "--values", "0.16"],
     "unknown config key 'schedule'"),
    (["sweep", "--key", "drift_rate", "--values", "0,0.04", "--trials", "3"],
     "disturbance.drift_rate is read only when disturbance.kind = drift"),
    (["sweep", "--key", "jump_magnitude", "--values", "1.5"],
     "disturbance.jump_magnitude is read only when disturbance.kind = jump"),
    (["sweep", "--key", "resistance", "--values", "1000,3000"],
     "unknown config key 'resistance'"),
    (["sweep", "--key", "noise_sigma", "--values", "0,5e-4,0"],
     "--values repeats 0"),
    (["sweep", "--key", "noise_sigma", "--values", "5e-4,0.0005",
      "--trials", "2"], "--values repeats 5e-4 as 0.0005"),
    # steps below the float spacing at the start point PHASE_SPAN / 2:
    # unchecked, every lock stays at its start and the run prints numbers
    # that look valid
    (["sweep", "--key", "experiment.variants", "--values", "fixed(1e-300)",
      "--trials", "1"], "cannot move the start point PHASE_SPAN / 2"),
    (["sweep", "--key", "variants", "--values", "fixed(1e-300)",
      "--trials", "1"], "variant fixed(1e-300): phase step 1e-300 rad cannot"),
    (["oracle", "--sop", "1,2,3"], "--sop needs four numbers"),
    (["sweep", "--key", "n0", "--values", ","],
     "--values must list at least one value"),
    (["sweep", "--key", "t0", "--values", "nan"], "anneal.t0"),
    # the span left the config: a file, an override or a sweep naming it
    (["run", "--config", "../span.ini", "--trials", "1"],
     "../span.ini:1: unknown config key 'tps.phase_max'"),
    (["sweep", "--key", "phase_max", "--values", "7.0"],
     "unknown config key 'phase_max'"),
    (["sweep", "--key", "tps.phase_max", "--values", "7.0"],
     "unknown config key 'tps.phase_max'"),
    # so did the cooling factor, and validate takes no option
    (["run", "--config", "../cooling.ini", "--trials", "1"],
     "../cooling.ini:1: unknown config key 'anneal.cooling_p'"),
    (["sweep", "--key", "anneal.cooling_p", "--values", "0.5"],
     "unknown config key 'anneal.cooling_p'"),
    (["validate", "--seed", "1"], "unrecognized arguments: --seed 1"),
])
def test_cli_bad_input_exits_one(argv, named, tmp_path, monkeypatch, capsys):
    (tmp_path / "span.ini").write_text("tps.phase_max = 7.0\n")
    (tmp_path / "cooling.ini").write_text("anneal.cooling_p = 0.5\n")
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    try:
        code = cli_main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not list(cwd.iterdir())


def test_cli_sweep_rejects_unknown_key(tmp_path, capsys):
    assert cli_main(["sweep", "--key", "nope", "--values", "1"]) == 1
    assert "nope" in capsys.readouterr().err
