"""Behavioral pipelined-ADC simulation and homogeneity-based background calibration."""

from .adc import (
    AdcInstance,
    MismatchConfig,
    MismatchSet,
    StageSpec,
    build_adc,
    convert_many,
    default_stage_specs,
    quantize_stage,
    reference_output,
)
from .calibration import (
    CalibrationState,
    PairStatistics,
    StepSchedule,
    accumulate_statistics,
    blhec_wiener,
    hec_wiener,
    run_sgd,
    sgd_step,
    step_size_bounds,
)
from .correction import CorrectionLayout, model_dimension, selection_vectors
from .harness import (
    ExperimentConfig,
    ResultRow,
    default_config,
    emit_outputs,
    emit_sweep_outputs,
    run_experiment,
    run_sweep,
)
from .signals import PathConfig, ToneSpec, gen_impure_two_tone, gen_tones, make_pairs
from .spectral import MetricReport, SpectrumEstimate, error_norm, sfdr, sndr, spectrum

__version__ = "0.1.0"
