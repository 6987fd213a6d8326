"""Numerical detection of non-k-separability in multipartite quantum states.

The test evaluates, for a density matrix and a pair of fully product probe
vectors, the magnitude of one extremal off-diagonal element against a sum
over all partitions of the sites into k blocks of geometric means of
copy-swapped diagonal weights.  Every k-separable state keeps the value
nonpositive, so a positive value certifies non-k-separability; at k = 2
that is genuine multipartite entanglement.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionError,
    FormatError,
    GuardError,
    KsepError,
    NormalizationError,
    NumericalError,
    ParameterError,
    StateValidationError,
    WeightError,
)
from .linalg import DensityDiagnostics, check_density, kron_all
from .partitions import (
    KPartition,
    enumerate_kpartitions,
    stirling2,
    swap_sets,
)
from .states import (
    DensityMatrix,
    NoisyPureState,
    PureState,
    ghz,
    load_state,
    maximally_mixed,
    mix,
    partition_product_pure,
    product_pure,
    random_density,
    random_product_pure,
    random_pure,
    save_state,
    w_state,
    white_noise,
)
from .criterion import (
    INCONCLUSIVE,
    NOT_K_SEPARABLE,
    CriterionReport,
    ProductProbe,
    evaluate,
    first_term,
    partition_term,
)
from .oracle import (
    CampaignSummary,
    TwoCopyOperator,
    build_swap_operator,
    equivalence_campaign,
    oracle_evaluate,
    oracle_term,
    total_swap_operator,
)
from .search import (
    NoiseScanResult,
    ScanEvaluation,
    SearchConfig,
    canonical_probe,
    optimize_probe,
    scan_noise,
)

__all__ = [
    "__version__",
    # errors
    "KsepError",
    "DimensionError",
    "ParameterError",
    "NormalizationError",
    "WeightError",
    "FormatError",
    "StateValidationError",
    "NumericalError",
    "GuardError",
    # linalg
    "DensityDiagnostics",
    "check_density",
    "kron_all",
    # partitions
    "KPartition",
    "enumerate_kpartitions",
    "swap_sets",
    "stirling2",
    # states
    "DensityMatrix",
    "PureState",
    "NoisyPureState",
    "ghz",
    "w_state",
    "product_pure",
    "partition_product_pure",
    "mix",
    "maximally_mixed",
    "white_noise",
    "random_pure",
    "random_product_pure",
    "random_density",
    "save_state",
    "load_state",
    # criterion
    "ProductProbe",
    "CriterionReport",
    "NOT_K_SEPARABLE",
    "INCONCLUSIVE",
    "first_term",
    "partition_term",
    "evaluate",
    # oracle
    "TwoCopyOperator",
    "build_swap_operator",
    "total_swap_operator",
    "oracle_term",
    "oracle_evaluate",
    "CampaignSummary",
    "equivalence_campaign",
    # search
    "SearchConfig",
    "ScanEvaluation",
    "NoiseScanResult",
    "canonical_probe",
    "optimize_probe",
    "scan_noise",
]
