"""Constructive Waring-type decompositions over matrix algebras.

Given a noncommutative polynomial f that is neither an identity nor central
on M_n(C) and a trace-zero target A, the package produces explicit argument
tuples whose f-images combine with signs (or scalar coefficients) to A,
together with similarity certificates for every construction step.
"""

from .canon import (
    HollowForm,
    SpectralPartition,
    cluster_eigenvalues,
    partition_spectrum,
    zero_diagonal_similarity,
)
from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    BudgetExhaustedError,
    ClusterGapTooSmallError,
    IllConditionedError,
    MatWaringError,
    MultiplicityTooLargeError,
    NonzeroTraceError,
    NotGenericError,
    ParseError,
    PreconditionUnmetError,
    ResidualTooLargeError,
    SpectraOverlapError,
)
from .freealg import NcPolynomial, PolyClass, classify, evaluate, parse
from .linalg import (
    SimilarityCertificate,
    TriangularPlan,
    block_triangular_similarity,
    certify_similarity,
    eigendecompose,
    project_traceless,
    sylvester_solve,
)
from .unitaries import (
    HollowSplit,
    ParameterAssignment,
    assign_parameters,
    build_decoupling_unitary,
    conjugating_rotation,
    corner_unitary,
    split_hollow,
)
from .verify import verify_certificate
from .waring import (
    WaringCertificate,
    diff_of_similar,
    five_term_express,
    four_term_decompose,
    image_search,
    two_term_decompose,
    waring_express,
)

__version__ = "0.1.0"
