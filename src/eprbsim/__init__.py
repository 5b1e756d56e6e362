"""Event-based EPRB simulator with coincidence-window post-selection.

A local hidden-direction model produces singlet-like cosine correlations
once events are post-selected on time-tag coincidence, while its
coincidence probability stays far below the threshold needed to violate
the post-selection-corrected CHSH inequality.  The package simulates the
model, applies the window cut, evaluates both inequalities, and audits the
simulated coincidence rates against analytic bounds.  The package root
exports the run API; the layers are imported from their own modules.
"""

__version__ = "0.1.0"

from .model import CoincidenceMode, ModelParams, UnitVector3
from .runner import (
    ConfigError,
    EmptyEnsembleError,
    ExperimentConfig,
    RunManifest,
    run_bound_audit,
    run_chsh_experiment,
    run_correlation_sweep,
    simulate_pair_stats,
)

__all__ = [
    "__version__",
    "ExperimentConfig",
    "ConfigError",
    "EmptyEnsembleError",
    "RunManifest",
    "run_correlation_sweep",
    "run_chsh_experiment",
    "run_bound_audit",
    "simulate_pair_stats",
    "ModelParams",
    "UnitVector3",
    "CoincidenceMode",
]
