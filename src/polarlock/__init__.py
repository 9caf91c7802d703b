"""polarlock: simulator and locking-algorithm toolkit for a four-stage
integrated-photonic dynamic polarization controller."""

from .jones import (ALGEBRA_TOL, COUPLER_IN, COUPLER_OUT, JonesMatrix,
                    JonesVector, StokesParams, extinction_ratio_db,
                    make_m0, make_m45, random_sop, to_stokes)
from .device import (DetectorSample, DeviceParams, PhaseQuad, TpsParams,
                     dpc_transform, measure, phase_step_to_voltage_step,
                     phase_to_voltage, power_to_phase, thermal_step_response,
                     voltage_to_phase, voltage_to_power)
from .anneal import (AnnealConfig, LockTrace, Objective, StepSchedule, accept,
                     bind_objective, propose, run_lock, step_for_gap,
                     voltage_step_to_phase_step)
from .disturbance import (DisturbanceModel, DisturbedObjective,
                          relock_experiment, rotate_sop)
from .oracle import oracle_best, port_intensity
from .harness import (ExperimentConfig, IdentityCheck, ResultsTable, Variant,
                      parse_variant, run_experiment, run_identity_checks,
                      summarize)
from .config import ConfigError, load_experiment_config

__version__ = "0.1.0"

__all__ = [
    "ALGEBRA_TOL", "COUPLER_IN", "COUPLER_OUT", "JonesMatrix", "JonesVector",
    "StokesParams", "extinction_ratio_db", "make_m0", "make_m45",
    "random_sop", "to_stokes",
    "DetectorSample", "DeviceParams", "PhaseQuad", "TpsParams",
    "dpc_transform", "measure", "phase_step_to_voltage_step",
    "phase_to_voltage", "power_to_phase", "thermal_step_response",
    "voltage_to_phase", "voltage_to_power",
    "AnnealConfig", "LockTrace", "Objective", "StepSchedule", "accept",
    "bind_objective", "propose", "run_lock", "step_for_gap",
    "voltage_step_to_phase_step",
    "DisturbanceModel", "DisturbedObjective", "relock_experiment",
    "rotate_sop",
    "oracle_best", "port_intensity",
    "ExperimentConfig", "IdentityCheck", "ResultsTable", "Variant",
    "parse_variant", "run_experiment", "run_identity_checks", "summarize",
    "ConfigError", "load_experiment_config",
]
