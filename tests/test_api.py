"""The public namespace of the package."""

import polarlock


def test_public_names_resolve_once():
    names = polarlock.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(polarlock, n)] == []
    namespace = {}
    exec("from polarlock import *", namespace)
    assert set(names) <= set(namespace)


def test_public_names_are_pinned():
    # adding or removing a public name is a deliberate edit of this set
    assert set(polarlock.__all__) == {
        "ALGEBRA_TOL", "COUPLER_IN", "COUPLER_OUT", "JonesMatrix",
        "JonesVector", "make_m0", "make_m45",
        "random_sop", "to_stokes",
        "DeviceParams", "PhaseQuad", "dpc_transform", "measure",
        "phase_step_to_voltage_step", "power_to_phase",
        "thermal_step_response", "voltage_to_phase", "voltage_to_power",
        "AnnealConfig", "LockTrace", "StepSchedule", "bind_objective",
        "run_lock",
        "DisturbanceModel", "relock_experiment", "rotate_sop",
        "oracle_best", "port_intensity",
        "ExperimentConfig", "ResultsTable", "run_experiment",
        "run_identity_checks", "summarize",
        "ConfigError", "load_experiment_config",
    }
