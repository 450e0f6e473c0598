"""Density estimation on triangulated irregular domains.

Penalized likelihood estimation of a two-dimensional probability density
from scattered observations: the log density is a smooth piecewise
polynomial on a triangulation, roughness is penalized through a
second-order energy, and the smoothing weight is chosen by k-fold
cross-validation. Includes synthetic benchmarks against a Gaussian kernel
baseline and a command line front end.
"""

from .assets import BUNDLED_MESHES, load_bundled_mesh, mesh_paths
from .bernstein import SplineSpec, evaluation_matrix
from .errors import (
    AllFoldsFailed,
    DegenerateTriangle,
    DidNotConverge,
    EnvelopeViolated,
    IndexOutOfRange,
    MeshError,
    NonConforming,
    NonFiniteIntegrand,
    PointOutsideDomain,
    SingularBandwidth,
    SingularSystem,
    TriDensityError,
    UnsupportedSmoothness,
)
from .estimator import (
    DensityFit,
    FitConfig,
    ModelSpace,
    density_from_gamma,
    fit,
    gradient,
    hessian,
    init_theta,
    initial_histogram,
    initial_lss,
    make_workspace,
    objective,
)
from .geometry import (
    MeshQuality,
    Triangulation,
    barycentric,
    load_mesh,
    mesh_quality,
    vertex_neighborhood,
)
from .model_selection import (
    DEFAULT_LAMBDA_GRID,
    CvReport,
    fold_assignments,
    select_lambda,
)
from .quadrature import QuadRule, conical_rule, integrate_domain, integrate_triangle, rule_9, rule_12
from .simbench import (
    KernelDensity,
    MiseResult,
    Scenario,
    get_scenario,
    mise,
    run_benchmark,
    sample,
    scenario_sim1,
    scenario_sim2,
    scenario_sim3,
)
from .spline_space import nullspace, penalty_matrix, smoothness_matrix

__version__ = "0.1.0"

__all__ = [
    "BUNDLED_MESHES", "load_bundled_mesh", "mesh_paths", "SplineSpec",
    "evaluation_matrix", "AllFoldsFailed", "DegenerateTriangle", "DidNotConverge",
    "EnvelopeViolated", "IndexOutOfRange", "MeshError", "NonConforming",
    "NonFiniteIntegrand", "PointOutsideDomain", "SingularBandwidth", "SingularSystem",
    "TriDensityError", "UnsupportedSmoothness", "DensityFit", "FitConfig", "ModelSpace",
    "density_from_gamma", "fit", "gradient", "hessian", "init_theta",
    "initial_histogram", "initial_lss", "make_workspace", "objective", "MeshQuality",
    "Triangulation", "barycentric", "load_mesh", "mesh_quality", "vertex_neighborhood",
    "DEFAULT_LAMBDA_GRID", "CvReport", "fold_assignments", "select_lambda",
    "QuadRule", "conical_rule", "integrate_domain", "integrate_triangle", "rule_9",
    "rule_12", "KernelDensity", "MiseResult", "Scenario", "get_scenario",
    "mise", "run_benchmark", "sample", "scenario_sim1", "scenario_sim2",
    "scenario_sim3", "nullspace", "penalty_matrix", "smoothness_matrix",
]
