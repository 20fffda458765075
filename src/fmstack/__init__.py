"""Higher-order FM synthesis with stackable operators, feedback, PM references,
Bessel-based spectrum prediction and bin-centered spectrum measurement."""

from .analysis import (
    AnalysisFrame,
    MeasuredSpectrum,
    detect_carrier_drift,
    fit_spectral_slope,
    measure_dc,
    measure_spectrum,
)
from .bessel import bessel_row
from .io_formats import WavSpec, write_spectrum_csv, write_wav
from .operators import (
    InstabilityError,
    Operator,
    render_feedback_fm,
    render_naive_stack,
    render_stack,
)
from .pm import render_feedback_pm, render_pm_chain
from .spectrum import (
    BudgetExceededError,
    LineSpectrum,
    merge_and_fold,
    predict_stack,
)
from .wavetable import COSINE_TABLE, PHASE_BITS, PHASE_MODULUS, PhaseAccumulator

__version__ = "0.1.0"

__all__ = [
    "AnalysisFrame",
    "BudgetExceededError",
    "COSINE_TABLE",
    "InstabilityError",
    "LineSpectrum",
    "MeasuredSpectrum",
    "Operator",
    "PHASE_BITS",
    "PHASE_MODULUS",
    "PhaseAccumulator",
    "WavSpec",
    "bessel_row",
    "detect_carrier_drift",
    "fit_spectral_slope",
    "measure_dc",
    "measure_spectrum",
    "merge_and_fold",
    "predict_stack",
    "render_feedback_fm",
    "render_feedback_pm",
    "render_naive_stack",
    "render_pm_chain",
    "render_stack",
    "write_spectrum_csv",
    "write_wav",
]
