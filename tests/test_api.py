"""The public namespace of the package."""

import copy
import dataclasses
import pickle

import pytest

import polarlock
from polarlock import (anneal, cli, config, device, disturbance, harness,
                       jones, oracle)


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


# one instance of every frozen dataclass of the package
_FROZEN_SAMPLES = (
    jones.JonesVector(0.6, 0.8j), jones.JonesMatrix(1, 0, 0, 1),
    jones.StokesParams(1.0, 1.0, 0.0, 0.0), device.TpsParams(),
    device.DeviceParams(), anneal.StepSchedule(0.16), anneal.AnnealConfig(),
    disturbance.DisturbanceModel("drift", drift_rate=0.01),
    harness.ExperimentConfig(trials=3), harness.IdentityCheck("x", 0.0, 1.0))


def test_every_frozen_dataclass_has_a_sample():
    frozen = {cls for module in (jones, device, anneal, disturbance, harness,
                                 oracle, config, cli)
              for cls in vars(module).values()
              if isinstance(cls, type) and dataclasses.is_dataclass(cls)
              and cls.__dataclass_params__.frozen}
    assert frozen == {type(v) for v in _FROZEN_SAMPLES}


@pytest.mark.parametrize("value", _FROZEN_SAMPLES,
                         ids=lambda v: type(v).__name__)
def test_frozen_dataclasses_refuse_every_name_alike(value):
    # CPython's frozen slots dataclass raises TypeError from super() for a
    # name that is not a field; every one here raises FrozenInstanceError
    names = [f.name for f in dataclasses.fields(value)] + ["foo", "ex"]
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value
    if type(value) is not jones.JonesVector:  # its __init__ takes ex, ey
        assert dataclasses.replace(value) == value
