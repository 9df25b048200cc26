"""Finite-volume index pairings from truncated spectral localisers."""

from .core import (
    CommutatorNorm,
    HermitianOperator,
    Inertia,
    Projection,
    commutator_norm,
    inertia,
    interval_spectral_projection,
    operator_norm,
    positive_spectral_projection,
    signature,
    singular_gap,
    spectral_gap,
)
from .convention import (
    SignConvention,
    derive_sign_convention,
    load_sign_convention,
    oracle_pairing,
    oracle_value,
    save_sign_convention,
)
from .errors import *  # noqa: F401,F403  re-export the exception hierarchy
from .harness import (
    JobRecord,
    Report,
    RunConfig,
    export_model,
    parse_model_spec,
    run_localise,
    run_oracle,
    run_sf,
)
from .flow import (
    CHI_CLAMP,
    CHI_PAIRS,
    CHI_SMOOTH,
    ChiPair,
    OperatorPath,
    SpectralFlowResult,
    line_path,
    odd_projection_unitary,
    path_trace,
    relative_index_projections,
    sf_conjugation,
    sf_crossings,
    sf_endpoints,
    suspension_even,
    suspension_odd,
)
from .localiser import (
    GapCertificate,
    LocaliserParams,
    PairingResult,
    RegimeCertificate,
    build_even_localiser,
    build_odd_localiser,
    complement_block,
    pairing,
    pairing_even,
    pairing_odd,
    truncate,
    validate_infinite_regime,
    validate_truncation_params,
)
from .models import (
    GradedOperator,
    ModelInstance,
    build_circle_model,
    build_qwz_model,
    build_weighted_shift_dirac,
    load_model,
    qwz_bloch,
    qwz_bloch_gap,
    qwz_box_bloch_gap,
    save_model,
    suggest_box,
)
from .oracles import (
    chern_number_fhs,
    fredholm_index_graded,
    toeplitz_index,
    winding_number,
)

__version__ = "1.0.0"
