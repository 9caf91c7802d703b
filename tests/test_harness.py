from dataclasses import replace

import numpy as np
import pytest

from polarlock import (AnnealConfig, ConfigError, DeviceParams,
                       DisturbanceModel, ExperimentConfig, JonesVector, Variant,
                       load_experiment_config, oracle_best, parse_variant,
                       port_intensity, random_sop, run_experiment,
                       run_identity_checks, summarize)
from polarlock.cli import main as cli_main
from polarlock.harness import _run_trial

SMALL = ExperimentConfig(
    anneal=AnnealConfig(m0=4, n0=25),
    variants=(Variant("variable"), Variant("fixed", 0.16)),
    trials=3,
)


# --- variants ------------------------------------------------------------------

def test_parse_variant_forms():
    assert parse_variant("variable") == Variant("variable")
    assert parse_variant("fixed(0.16)") == Variant("fixed", 0.16)
    assert parse_variant(" voltage-fixed(0.1) ") == Variant("voltage-fixed", 0.1)


@pytest.mark.parametrize("token", ["", "fixed", "fixed()", "fixed(x)",
                                   "variable(0.1)", "random(0.1)",
                                   "fixed(nan)", "fixed(inf)",
                                   "voltage-fixed(nan)"])
def test_parse_variant_rejects_garbage(token):
    with pytest.raises(ValueError):
        parse_variant(token)


def test_variant_labels_round_trip():
    for token in ("variable", "fixed(0.16)", "voltage-fixed(0.005)"):
        assert parse_variant(token).label == token


def test_variant_anneal_config_mapping():
    base = AnnealConfig()
    tps = DeviceParams().tps
    assert Variant("variable").anneal_config(base, tps) is base
    fixed = Variant("fixed", 0.16).anneal_config(base, tps)
    assert fixed.schedule.entries == ((1.0, 0.16),)
    assert fixed.mode == "phase"
    vf = Variant("voltage-fixed", 0.1).anneal_config(base, tps)
    assert vf.mode == "voltage"
    assert vf.schedule.entries[0][1] == pytest.approx(0.1673604060913706)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(variants=())
    with pytest.raises(ValueError):
        ExperimentConfig(variants=(Variant("variable"), Variant("variable")))
    with pytest.raises(ValueError, match="jump_at"):
        ExperimentConfig(disturbance=DisturbanceModel(kind="jump",
                                                      jump_at=500))


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


def test_table_blocks_match_trial_traces():
    table = run_experiment(SMALL)
    for v, variant in enumerate(SMALL.variants):
        for t in range(SMALL.trials):
            trace = _run_trial(SMALL, variant, t)
            assert np.array_equal(table.er_db[v, t], trace.er_db)
            assert np.array_equal(table.accepted[v, t], trace.accepted)


def test_run_experiment_deterministic_csv(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(SMALL).write_csv(p1)
    run_experiment(SMALL).write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_experiment_parallel_matches_serial(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    run_experiment(SMALL, max_workers=1).write_csv(serial)
    run_experiment(SMALL, max_workers=3).write_csv(parallel)
    assert serial.read_bytes() == parallel.read_bytes()


def test_run_experiment_honors_threads_env(tmp_path, monkeypatch):
    monkeypatch.setenv("POLARLOCK_THREADS", "2")
    a = tmp_path / "env.csv"
    run_experiment(SMALL).write_csv(a)
    monkeypatch.delenv("POLARLOCK_THREADS")
    b = tmp_path / "plain.csv"
    run_experiment(SMALL).write_csv(b)
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
    cfg = replace(SMALL, trials=1, variants=(Variant("variable"),))
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

def test_summarize_keys_and_crossing():
    cfg = replace(SMALL, anneal=AnnealConfig(), trials=2,
                  variants=(Variant("variable"),))
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


def test_summarize_names_missing_variant():
    table = run_experiment(replace(SMALL, variants=(Variant("variable"),)))
    table.variant_order = ("variable", "fixed(0.31)")
    with pytest.raises(ValueError, match="fixed\\(0.31\\)"):
        summarize(table)


# --- identity suite -----------------------------------------------------------------

def test_identity_checks_all_pass():
    checks = run_identity_checks(seed=0, n=1000)
    assert len(checks) == 6
    for chk in checks:
        assert chk.passed, f"{chk.name} defect {chk.defect}"


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
        "tps.resistance = 2000\n"
        "anneal.m0 = 5\n"
        "anneal.n0 = 20\n"
        "anneal.schedule = 1:0.2, 0.1:0.05\n"
        "anneal.mode = voltage\n"
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
    assert cfg.device.tps.resistance == 2000
    assert cfg.anneal.m0 == 5 and cfg.anneal.n0 == 20
    assert cfg.anneal.schedule.entries == ((1.0, 0.2), (0.1, 0.05))
    assert cfg.anneal.mode == "voltage"
    assert cfg.disturbance.kind == "jump" and cfg.disturbance.jump_at == 40
    assert cfg.variants == (Variant("variable"), Variant("fixed", 0.02))
    assert cfg.trials == 7 and cfg.base_seed == 3
    assert cfg.output_path == "out.csv"


def test_config_unknown_key_named(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("device.noise = 1\n")
    with pytest.raises(ConfigError, match="device.noise"):
        load_experiment_config(str(path))


def test_config_bad_value_named(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("anneal.t0 = banana\n")
    with pytest.raises(ConfigError, match="anneal.t0"):
        load_experiment_config(str(path))


def test_config_invalid_combination_reported(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("anneal.cooling_p = 2\n")
    with pytest.raises(ConfigError, match="cooling_p"):
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

def _write_small_cfg(tmp_path, extra=""):
    path = tmp_path / "small.cfg"
    path.write_text(
        "anneal.m0 = 4\n"
        "anneal.n0 = 25\n"
        "experiment.trials = 3\n"
        "experiment.variants = variable\n"
        f"experiment.output = {tmp_path / 'out.csv'}\n"
        + extra
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


def test_cli_run_missing_config(capsys):
    assert cli_main(["run", "--config", "missing.file"]) == 1
    assert "missing.file" in capsys.readouterr().err


def test_cli_run_unwritable_output(tmp_path, capsys):
    cfg = _write_small_cfg(tmp_path)
    bad = tmp_path / "no-such-dir" / "out.csv"
    assert cli_main(["run", "--config", str(cfg), "--out", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_run_bad_threads_env(tmp_path, monkeypatch, capsys):
    cfg = _write_small_cfg(tmp_path)
    monkeypatch.setenv("POLARLOCK_THREADS", "abc")
    assert cli_main(["run", "--config", str(cfg)]) == 1
    assert "POLARLOCK_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


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


@pytest.mark.parametrize("sop", ["0,0,0,0", "nan,0,1,0", "1,0,x,0"])
def test_cli_oracle_rejects_bad_sop(sop, capsys):
    assert cli_main(["oracle", "--sop", sop]) == 1
    assert "--sop" in capsys.readouterr().err


def test_cli_sweep_noise_monotone(tmp_path, capsys):
    cfg = _write_small_cfg(tmp_path, extra="experiment.trials = 8\n")
    assert cli_main(["sweep", "--key", "noise_sigma",
                     "--values", "0,5e-4,5e-3",
                     "--config", str(cfg)]) == 0
    medians = []
    for value in ("0", "5e-4", "5e-3"):
        out = tmp_path / f"out_noise_sigma_{value}.csv"
        assert out.exists()
        summary = (tmp_path / f"out_noise_sigma_{value}_summary.txt").read_text()
        line = [l for l in summary.splitlines()
                if l.startswith("variable.median_final_er_db")][0]
        medians.append(float(line.split(": ")[1]))
    assert medians[0] >= medians[1] >= medians[2]


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
    (["validate", "--samples", "0"], "--samples"),
    (["validate", "--samples", "-1"], "--samples"),
])
def test_cli_bad_input_exits_one(argv, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    try:
        code = cli_main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_cli_sweep_rejects_unknown_key(tmp_path, capsys):
    assert cli_main(["sweep", "--key", "nope", "--values", "1"]) == 1
    assert "nope" in capsys.readouterr().err
