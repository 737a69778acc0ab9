"""The public surface: what ``momentkit`` exports, the parameters of every
library function, and the paper-claim checkers that live in ``paper_claims``
instead of the library."""
import copy
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import momentkit

from conftest import SPAN_V, SPAN_W

PUBLIC = sorted("""
    CurveSample DegenerateCurve EigenDecomposition EllipseParams
    IntersectionCertificate IntersectionStatus JNRPoint MinimalMatrixParts
    MinimalityReport NonHermitianError NotGenericAtCoordinate PrincipalVector
    ProjectionResult Subspace Verdict __version__ centroid check_minimal
    cone_membership construct_minimal curve_frame curve_point delta_map dominating_t
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
    CurveInconsistency check_domination hausdorff_contraction_bound
""".split()

#: Public functions of the library modules with their parameters.  The only
#: tolerances a caller sets are those of the solver and of check_minimal;
#: every other threshold is a module constant.
SIGNATURES = """
    directions.fibonacci_directions(n,count)
    feasibility.moments_intersect(v,w,tol,max_iter) feasibility.project_onto_moment(s,p,tol,max_iter)
    feasibility.separation_margin(v,w,u) jnr.cone_membership(s,x) jnr.delta_map(s,rho)
    jnr.jnr_boundary(s,directions) jnr.jnr_support(s,c) jnr.validate_density(rho)
    linalg.as_complex_matrix(a) linalg.compressed_top_eigh(table,directions)
    linalg.compressed_top_eigvalsh(table,directions) linalg.hermitian_eig(a)
    linalg.orthonormalize(vectors) linalg.projector(q) linalg.require_hermitian(a)
    linalg.require_orthonormal(q) linalg.spectral_norm(a)
    minimality.check_minimal(m,eig_tol,feas_tol,max_iter)
    minimality.construct_minimal(parts) minimality.hausdorff_moments(v,w,directions)
    moment.curve_frame(s,j,k) moment.curve_point(frame,t) moment.dominating_t(s,j,k,x)
    moment.ellipse_projection(frame) moment.moment_of_vector(s,x)
    moment.sample_moment(s,count,seed) moment.sample_unit_vectors(s,count,seed)
    moment.support_moment(s,c) subspace.centroid(s) subspace.is_generic(s)
    subspace.mutually_orthogonal(a,b) subspace.orthogonal_complement(s)
    subspace.principal_vector(s,j) subspace.subspace_from_spanning(vectors) subspace.whole_space(n)
""".split()

#: Fields of the solver results, in order.
FIELDS = {
    "ProjectionResult": "distance witness iterations converged lower".split(),
    "IntersectionCertificate": """status space_v space_w witness_y witness_x common
                                  direction margin gap iterations""".split(),
}


def test_all_is_pinned():
    assert sorted(momentkit.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in momentkit.__all__:
        assert hasattr(momentkit, name), name


SUBMODULES = "cli directions feasibility jnr linalg minimality moment subspace".split()


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodules_resolve_off_the_package(module):
    assert getattr(momentkit, module) is sys.modules[f"momentkit.{module}"]


def test_star_import_binds_the_defining_objects():
    namespace = {}
    exec("from momentkit import *", namespace)
    assert set(momentkit.__all__) <= set(namespace)
    assert namespace["__version__"] == momentkit.__version__
    for name in set(momentkit.__all__) - {"__version__"}:
        obj = namespace[name]
        assert obj.__module__.startswith("momentkit."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_dir_lists_every_export():
    assert set(momentkit.__all__) <= set(dir(momentkit))


#: A fresh interpreter records OPENBLAS_NUM_THREADS as numpy starts to load,
#: after running one entry point.
THREAD_PROBE = """
import os, sys

class Probe:
    seen = None

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and Probe.seen is None:
            Probe.seen = str(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Probe())
{entry}
print(Probe.seen)
"""
ENTRIES = {
    "submodule first": "import momentkit.linalg",
    "cli --version": "import runpy\n"
                     "sys.argv = ['momentkit', '--version']\n"
                     "try:\n"
                     "    runpy.run_module('momentkit.cli', run_name='__main__', alter_sys=True)\n"
                     "except SystemExit as exc:\n"
                     "    assert exc.code == 0, exc.code",
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_thread_cap_lands_before_numpy(entry):
    env = dict(os.environ, MOMENTKIT_THREADS="2",
               PYTHONPATH=str(Path(momentkit.__file__).resolve().parents[1]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    proc = subprocess.run([sys.executable, "-c", THREAD_PROBE.format(entry=ENTRIES[entry])],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.splitlines()[-1] == "2"


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


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_result_fields_are_pinned(name):
    assert [f.name for f in dataclasses.fields(getattr(momentkit, name))] == FIELDS[name]


def _results():
    """One instance of each result type that carries an array field."""
    mk = momentkit
    v, w = mk.subspace_from_spanning(SPAN_V), mk.subspace_from_spanning(SPAN_W)
    frame = mk.curve_frame(v, 0, 1)
    return {
        "ProjectionResult": mk.project_onto_moment(v, np.full(3, 0.5)),
        "IntersectionCertificate": mk.moments_intersect(v, w),
        "MinimalityReport": mk.check_minimal(np.array([[0.0, 1.0], [1.0, 0.0]])),
        "MomentSupport": mk.support_moment(v, [1.0, 0.0, 0.0]),
        "JNRPoint": mk.delta_map(v, np.eye(3) / 3),
        "JNRSupport": mk.jnr_support(v, [1.0, 0.0, 0.0]),
        "EigenDecomposition": mk.hermitian_eig(np.eye(2)),
        "PrincipalVector": mk.principal_vector(v, 0),
        "CurveFrame": frame,
        "CurveSample": mk.curve_point(frame, 0.5),
        "EllipseParams": mk.ellipse_projection(frame),
        "MinimalMatrixParts": mk.MinimalMatrixParts(1.0, v, w, np.zeros((3, 3))),
    }


def test_results_compare_by_identity():
    # Field-wise == of numpy arrays has no single truth value, so results
    # compare and hash by identity.
    for name, result in _results().items():
        assert type(result).__name__ == name
        assert result == result, name
        assert hash(result) == hash(result), name
        assert result != copy.copy(result), name
