"""momentkit: moment sets of complex subspaces, joint numerical ranges, and
minimal hermitian matrix certificates.

Importing the package loads none of its modules: each exported name, and
each submodule, is imported on first access (PEP 562), so a command pays
only for the modules it uses."""
import importlib as _importlib
import os as _os

# MOMENTKIT_THREADS caps internal parallelism.  All heavy lifting happens in
# BLAS/LAPACK thread pools, so the cap must land in the environment before
# numpy is first imported; explicit user settings are left untouched.
_cap = _os.environ.get("MOMENTKIT_THREADS")
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _cap)
del _os, _cap

__version__ = "0.1.0"

#: The module that defines each exported name.
_EXPORTS = {
    name: module
    for module, names in {
        "directions": "fibonacci_directions",
        "feasibility": "IntersectionCertificate IntersectionStatus ProjectionResult "
                       "moments_intersect project_onto_moment",
        "jnr": "JNRPoint cone_membership delta_map jnr_boundary jnr_support",
        "linalg": "EigenDecomposition NonHermitianError hermitian_eig orthonormalize "
                  "projector spectral_norm",
        "minimality": "MinimalityReport MinimalMatrixParts Verdict check_minimal "
                      "construct_minimal hausdorff_moments",
        "moment": "CurveSample DegenerateCurve EllipseParams curve_frame curve_point "
                  "dominating_t ellipse_projection moment_of_vector sample_moment "
                  "support_moment",
        "subspace": "NotGenericAtCoordinate PrincipalVector Subspace centroid is_generic "
                    "principal_vector subspace_from_spanning whole_space",
    }.items()
    for name in names.split()
}
_SUBMODULES = ("cli", "directions", "feasibility", "jnr", "linalg", "minimality", "moment",
               "subspace")

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
