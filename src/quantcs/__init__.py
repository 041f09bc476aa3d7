"""Recovery of structured signals from quantized linear measurements.

The package covers the full pipeline: entrywise L-level quantizers (sign,
saturated uniform, general levels), random sensing ensembles with optional
dither, structured signal models (sparse, low rank, l1 ball) with their
projections, projected gradient descent on the one-sided l1 loss,
brute-force decoding oracles, and a deterministic experiment harness for
measurement-scaling studies.
"""

from .harness import (
    CSV_COLUMNS,
    CellStats,
    ExperimentPlan,
    ExperimentResult,
    Family,
    FamilySetup,
    SlopeFit,
    TrialRecord,
    draw_trial,
    emit_csv,
    emit_svg_loglog,
    fit_slope,
    plan_from_json,
    run_experiment,
    run_trial,
)
from .oracles import HdmResult, PuvEstimate, enumerate_net, estimate_puv, geodesic_puv, hdm_decode
from .pgd import PgdConfig, PgdResult, gradient, pgd_recover
from .quantizers import QuantizerSpec, level_index, make_saturated, make_sign, quantize_vec
from .rng import derive_seed, stream
from .sensing import MatrixKind, SensingInstance, corrupt, measure, sample_instance
from .signals import (
    L1Ball,
    LowRank,
    SignalModel,
    Sparse,
    UnsupportedModelError,
    gen_signal,
    project_model,
    project_norm,
    project_structure,
    random_in_model,
)

__version__ = "0.1.0"
