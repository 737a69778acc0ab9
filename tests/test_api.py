"""The public surface: what ``momentkit`` exports, the parameters of every
library function, and the paper-claim checkers that live in ``paper_claims``
instead of the library."""
import importlib
import inspect

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
    subspace_sum support_coordinate_bound_check curve_support_direction
    principal_extremality ExtremalityReport curve_moduli hermitian_defect
""".split()

#: Public functions of the library modules with their parameters.  The only
#: tolerances a caller sets are those of the solver and of check_minimal;
#: every other threshold is a module constant.
SIGNATURES = """
    directions.fibonacci_directions(n,count) feasibility.check_nonnegative(name,value)
    feasibility.moments_intersect(v,w,tol,max_iter) feasibility.project_onto_moment(s,p,tol,max_iter)
    feasibility.separation_margin(v,w,u) jnr.cone_membership(s,x) jnr.delta_map(s,rho)
    jnr.jnr_boundary(s,directions) jnr.jnr_support(s,c) jnr.validate_density(rho)
    linalg.as_complex_matrix(a) linalg.compressed_eigh(q,directions) linalg.hermitian_eig(a)
    linalg.orthonormalize(vectors) linalg.projector(q) linalg.require_hermitian(a)
    linalg.spectral_norm(a) minimality.check_minimal(m,eig_tol,feas_tol,max_iter)
    minimality.construct_minimal(parts) minimality.hausdorff_moments(v,w,directions)
    moment.curve_frame(s,j,k) moment.curve_point(s,j,k,t,frame) moment.dominating_t(s,j,k,x)
    moment.ellipse_projection(s,j,k,frame) moment.moment_of_vector(s,x)
    moment.sample_moment(s,count,seed) moment.sample_unit_vectors(s,count,seed)
    moment.support_moment(s,c) subspace.centroid(s) subspace.is_generic(s)
    subspace.mutually_orthogonal(a,b) subspace.orthogonal_complement(s)
    subspace.principal_vector(s,j) subspace.subspace_from_spanning(vectors) subspace.whole_space(n)
""".split()


def test_all_is_pinned():
    assert sorted(momentkit.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in momentkit.__all__:
        assert hasattr(momentkit, name), name


@pytest.mark.parametrize("module", ["momentkit", "momentkit.subspace", "momentkit.minimality",
                                    "momentkit.jnr", "momentkit.moment", "momentkit.linalg"])
def test_moved_names_absent(module):
    mod = importlib.import_module(module)
    assert [name for name in MOVED if hasattr(mod, name)] == []


def test_only_the_package_declares_all():
    assert not hasattr(importlib.import_module("momentkit.minimality"), "__all__")


def test_signatures_are_pinned():
    found = []
    for module in "directions feasibility jnr linalg minimality moment subspace".split():
        mod = importlib.import_module(f"momentkit.{module}")
        found += [f"{module}.{name}({','.join(inspect.signature(fn).parameters)})"
                  for name, fn in sorted(vars(mod).items())
                  if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and name[0] != "_"]
    assert found == SIGNATURES
