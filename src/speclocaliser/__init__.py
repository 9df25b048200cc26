"""Finite-volume index pairings from truncated spectral localisers."""

from .core import Inertia, commutator_norm, inertia
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
    sf_crossings,
    suspension,
)
from .localiser import (
    GapCertificate,
    LocaliserParams,
    PairingResult,
    pairing,
    pairing_even,
    pairing_odd,
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
    oracle_pairing,
    qwz_bloch,
    qwz_bloch_gap,
    save_model,
)
from .oracles import (
    EVEN_SIGN,
    ODD_SIGN,
    chern_number_fhs,
    fredholm_index_graded,
    winding_number,
)

__version__ = "1.0.0"
