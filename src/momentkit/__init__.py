"""momentkit: moment sets of complex subspaces, joint numerical ranges, and
minimal hermitian matrix certificates."""
import os as _os

# MOMENTKIT_THREADS caps internal parallelism.  All heavy lifting happens in
# BLAS/LAPACK thread pools, so the cap must land in the environment before
# numpy is first imported; explicit user settings are left untouched.
_cap = _os.environ.get("MOMENTKIT_THREADS")
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _cap)
del _os, _cap

from .feasibility import (  # noqa: E402
    IntersectionCertificate,
    IntersectionStatus,
    ProjectionResult,
    moments_intersect,
    project_onto_moment,
)
from .directions import fibonacci_directions  # noqa: E402
from .jnr import (  # noqa: E402
    JNRPoint,
    cone_membership,
    delta_map,
    jnr_boundary,
    jnr_support,
)
from .linalg import (  # noqa: E402
    EigenDecomposition,
    NonHermitianError,
    hermitian_eig,
    orthonormalize,
    projector,
    spectral_norm,
)
from .minimality import (  # noqa: E402
    MinimalityReport,
    MinimalMatrixParts,
    Verdict,
    check_minimal,
    construct_minimal,
    hausdorff_moments,
)
from .moment import (  # noqa: E402
    CurveSample,
    DegenerateCurve,
    EllipseParams,
    curve_frame,
    curve_point,
    dominating_t,
    ellipse_projection,
    moment_of_vector,
    sample_moment,
    support_moment,
)
from .subspace import (  # noqa: E402
    NotGenericAtCoordinate,
    PrincipalVector,
    Subspace,
    centroid,
    is_generic,
    principal_vector,
    subspace_from_spanning,
    whole_space,
)

__version__ = "0.1.0"

__all__ = [
    "EigenDecomposition",
    "NonHermitianError",
    "hermitian_eig",
    "orthonormalize",
    "projector",
    "spectral_norm",
    "Subspace",
    "PrincipalVector",
    "NotGenericAtCoordinate",
    "subspace_from_spanning",
    "whole_space",
    "is_generic",
    "principal_vector",
    "centroid",
    "moment_of_vector",
    "sample_moment",
    "support_moment",
    "CurveSample",
    "EllipseParams",
    "DegenerateCurve",
    "curve_frame",
    "curve_point",
    "dominating_t",
    "ellipse_projection",
    "JNRPoint",
    "delta_map",
    "jnr_support",
    "jnr_boundary",
    "cone_membership",
    "fibonacci_directions",
    "IntersectionCertificate",
    "IntersectionStatus",
    "ProjectionResult",
    "moments_intersect",
    "project_onto_moment",
    "MinimalityReport",
    "MinimalMatrixParts",
    "Verdict",
    "check_minimal",
    "construct_minimal",
    "hausdorff_moments",
    "__version__",
]
