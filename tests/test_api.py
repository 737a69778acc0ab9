"""The public surface: what ``momentkit`` exports, and the paper-claim
checkers that live in ``paper_claims`` instead of the library."""
import importlib

import pytest

import momentkit

PUBLIC = sorted("""
    CurveSample DegenerateCurve EigenDecomposition EllipseParams
    IntersectionCertificate IntersectionStatus JNRPoint MinimalMatrixParts
    MinimalityReport NonHermitianError NotGenericAtCoordinate PrincipalVector
    ProjectionResult Subspace Verdict __version__ centroid check_minimal
    cone_membership construct_minimal curve_point delta_map dominating_t
    ellipse_projection fibonacci_directions hausdorff_moments hermitian_eig
    is_generic jnr_boundary jnr_support moment_of_vector moments_intersect
    orthonormalize principal_vector project_onto_moment projector sample_moment
    spectral_norm subspace_from_spanning support_moment whole_space
""".split())

#: Checkers of the paper's claims, and their helpers, that tests call from
#: ``paper_claims`` or compute inline; none of them is library API.
MOVED = """
    CentroidAlgebraReport CoordinateBoundCheck IdentityCheck NotGenericSubspace
    SliceCheck _difference brute_force_diag_distance centroid_algebra_check
    curve_overlap_residual hyperplane_slice_check is_contained random_density
    sample_classical_range scaling_relation_check subspace_intersection
    subspace_sum support_coordinate_bound_check
""".split()


def test_all_is_pinned():
    assert sorted(momentkit.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in momentkit.__all__:
        assert hasattr(momentkit, name), name


@pytest.mark.parametrize("module", ["momentkit", "momentkit.subspace", "momentkit.minimality",
                                    "momentkit.jnr", "momentkit.moment"])
def test_moved_names_absent(module):
    mod = importlib.import_module(module)
    assert [name for name in MOVED if hasattr(mod, name)] == []


def test_only_the_package_declares_all():
    assert not hasattr(importlib.import_module("momentkit.minimality"), "__all__")
