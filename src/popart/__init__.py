"""Adaptive target normalization for stochastic-gradient learning.

Learns shift/scale statistics of the targets online, rescales the final
linear layer so unnormalized outputs are preserved exactly, and trains
on the bounded normalized errors.  Includes a binary-regression
experiment harness and a desk-scale double Q-learning demo.

Some exports are read by no command but ``popart verify``, whose checks
(:mod:`popart.checks`) the acceptance gates run: :func:`popart_sgd_update`,
the trackers :class:`PercentileTracker` and :class:`ExtremeTracker`,
:func:`batch_stats`, :func:`inverse_t` and the erf pair
:func:`spread_from_coverage` and :func:`coverage_from_spread`.  They are
gate code, and they stay.
"""

from .network import Mlp
from .schedules import (
    StepSizeSchedule,
    bias_corrected,
    constant,
    harmonic,
    inverse_t,
)
from .stats import (
    ExtremeTracker,
    Normalizer,
    PercentileTracker,
    batch_stats,
    coverage_from_spread,
    spread_from_coverage,
)
from .training import (
    OutputLayer,
    TrainStepReport,
    art_only_sgd_step,
    normalized_sgd_step,
    plain_sgd_step,
    popart_sgd_step,
    popart_sgd_update,
    predict,
)

__all__ = [
    "ExtremeTracker",
    "Mlp",
    "Normalizer",
    "OutputLayer",
    "PercentileTracker",
    "StepSizeSchedule",
    "TrainStepReport",
    "art_only_sgd_step",
    "batch_stats",
    "bias_corrected",
    "constant",
    "coverage_from_spread",
    "harmonic",
    "inverse_t",
    "normalized_sgd_step",
    "plain_sgd_step",
    "popart_sgd_step",
    "popart_sgd_update",
    "predict",
    "spread_from_coverage",
]

__version__ = "0.1.0"
