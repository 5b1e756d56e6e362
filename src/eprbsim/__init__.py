"""Event-based EPRB simulator with coincidence-window post-selection.

A local hidden-direction model produces singlet-like cosine correlations
once events are post-selected on time-tag coincidence, while its
coincidence probability stays far below the threshold needed to violate
the post-selection-corrected CHSH inequality.  The package simulates the
model, applies the window cut, evaluates both inequalities, and audits the
simulated coincidence rates against analytic bounds.  The package root
exports the run API; the layers are imported from their own modules.
"""

import os

# The process pool is the only parallelism.  numpy's OpenBLAS starts one
# thread per core when it loads, and each extra thread spins for about 0.12 s
# of CPU waiting for work that never comes: eprbsim's only BLAS calls are the
# Gauss-Legendre rule and two 1-D dot products of a few thousand nodes in
# `bounds`.  Set before the first submodule loads numpy; a value the user has
# set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
    "ModelParams",
    "UnitVector3",
    "CoincidenceMode",
]
