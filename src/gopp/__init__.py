"""Generalized orthogonal Procrustes: power method, certificates, landscape."""

from .linops import (
    AlignmentResult,
    RankDeficiencyWarning,
    RotationStack,
    SpectralGapWarning,
    StiefelStack,
    align,
    df,
    df_squared_identity,
    gram_change,
    lambda_kth_smallest,
    polar,
    polar_blockwise,
    top_d_left_singular,
)
from .model import (
    GramMatrix,
    PointCloud,
    PointCloudSet,
    SyntheticInstance,
    build_data_matrix,
    build_gram,
    center,
    estimate_shifts,
)
from .gpm import (
    GpmConfig,
    NumericalError,
    SolveReport,
    estimate_rate,
    gpm_step,
    objective,
    solve,
    spectral_init,
)
from .certificate import Certificate, SnrCheck, Verdict, build_lambda, certify, snr_check
from .bm import (
    BmConfig,
    LandscapeReport,
    SecondOrderResult,
    landscape_bounds,
    retract,
    riemannian_gradient,
    second_order_residual,
    solve_bm,
)
from .bench import (
    PhaseGrid,
    TrialResult,
    generate_instance,
    phase_diagram,
    run_trial,
    write_phase_csv,
)

__version__ = "0.1.0"
