"""Density estimation on triangulated irregular domains.

Penalized likelihood estimation of a two-dimensional probability density
from scattered observations: the log density is a smooth piecewise
polynomial on a triangulation, roughness is penalized through a
second-order energy, and the smoothing weight is chosen by k-fold
cross-validation. Includes synthetic benchmarks against a Gaussian kernel
baseline and a command line front end.

The import is lazy (PEP 562): ``import tridensity`` loads no submodule,
and each exported name or submodule is imported on first access, so a
caller that only reads meshes never loads scipy.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the names it exports, in __all__ order.
_EXPORTS = {
    "assets": ("BUNDLED_MESHES", "load_bundled_mesh", "mesh_paths"),
    "bernstein": ("SplineSpec", "evaluation_matrix"),
    "errors": (
        "AllFoldsFailed", "DegenerateTriangle", "DidNotConverge", "IndexOutOfRange",
        "MeshError", "NonConforming", "NonFiniteIntegrand", "PointOutsideDomain",
        "SingularBandwidth", "SingularSystem", "TriDensityError", "UnsupportedSmoothness",
    ),
    "estimator": (
        "DensityFit", "FitConfig", "ModelSpace", "density_from_gamma", "fit",
    ),
    "geometry": ("MeshQuality", "Triangulation", "barycentric", "load_mesh", "mesh_quality"),
    "model_selection": ("DEFAULT_LAMBDA_GRID", "CvReport", "fold_assignments", "select_lambda"),
    "quadrature": ("QuadRule", "conical_rule", "rule_9"),
    "simbench": (
        "KernelDensity", "MiseResult", "Scenario", "get_scenario", "mise", "run_benchmark",
        "sample",
    ),
    "spline_space": ("nullspace", "penalty_matrix", "smoothness_matrix"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = list(_ORIGIN)


def __getattr__(name):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
