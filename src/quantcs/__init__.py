"""Recovery of structured signals from quantized linear measurements.

The package covers the full pipeline: entrywise quantizers (sign, uniform,
saturated, general levels), random sensing ensembles with optional dither,
structured signal models (sparse, low rank, l1 ball) with their projections,
projected gradient descent on the one-sided l1 loss, brute-force decoding
oracles, and a deterministic experiment harness for measurement-scaling
studies.
"""

from .harness import (
    CSV_COLUMNS,
    CellStats,
    DeltaRule,
    ExperimentPlan,
    ExperimentResult,
    FamilySetup,
    SlopeFit,
    TrialRecord,
    emit_csv,
    emit_svg_loglog,
    family_setup,
    fit_slope,
    plan_from_json,
    run_experiment,
    run_trial,
)
from .oracles import CandidateNet, HdmResult, PuvEstimate, enumerate_net, estimate_puv, geodesic_puv, hdm_decode
from .pgd import (
    Family,
    GivenInit,
    PgdConfig,
    PgdResult,
    RaicParams,
    RandomInit,
    ZeroInit,
    clipped_gradient,
    default_step_size,
    gradient,
    gradient_from_thresholds,
    one_sided_l1_loss,
    pgd_recover,
    raic_residual,
)
from .quantizers import (
    QuantizerSpec,
    level_index,
    make_general,
    make_saturated,
    make_sign,
    make_uniform,
    quantize,
    quantize_vec,
)
from .rng import derive_seed, stream
from .sensing import Dither, MatrixKind, SensingInstance, corrupt, hamming, measure, sample_instance
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
    restricted_dual_norm,
)

__version__ = "0.1.0"
