"""polarlock: simulator and locking-algorithm toolkit for a four-stage
integrated-photonic dynamic polarization controller."""

from .jones import (ALGEBRA_TOL, COUPLER_IN, COUPLER_OUT, JonesMatrix,
                    JonesVector, make_m0, make_m45, random_sop, to_stokes)
from .device import (DeviceParams, PhaseQuad, dpc_transform, measure,
                     phase_step_to_voltage_step, power_to_phase,
                     thermal_step_response, voltage_to_phase, voltage_to_power)
from .anneal import (AnnealConfig, LockTrace, StepSchedule, bind_objective,
                     run_lock)
from .disturbance import DisturbanceModel, relock_experiment, rotate_sop
from .oracle import oracle_best, port_intensity
from .harness import (ExperimentConfig, ResultsTable, run_experiment,
                      run_identity_checks, summarize)
from .config import ConfigError, load_experiment_config

__version__ = "0.1.0"

__all__ = [
    "ALGEBRA_TOL", "COUPLER_IN", "COUPLER_OUT", "JonesMatrix", "JonesVector",
    "make_m0", "make_m45", "random_sop", "to_stokes",
    "DeviceParams", "PhaseQuad", "dpc_transform", "measure",
    "phase_step_to_voltage_step", "power_to_phase", "thermal_step_response",
    "voltage_to_phase", "voltage_to_power",
    "AnnealConfig", "LockTrace", "StepSchedule", "bind_objective", "run_lock",
    "DisturbanceModel", "relock_experiment", "rotate_sop",
    "oracle_best", "port_intensity",
    "ExperimentConfig", "ResultsTable", "run_experiment",
    "run_identity_checks", "summarize",
    "ConfigError", "load_experiment_config",
]
