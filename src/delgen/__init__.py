"""Delaunay genericity lab.

Tools for measuring how far a Euclidean point set is from a degenerate
(cospherical) configuration, and for certifying that its Delaunay complex
survives bounded perturbations of the points or of the metric itself.

The package splits into:

* :mod:`delgen.simplex` -- single-simplex geometry: circumcentres, altitudes,
  thickness, singular value floors, angle bounds.
* :mod:`delgen.complexes` -- abstract simplicial complexes over vertex ids:
  closed stars, face-by-face star comparison and integer row keys.
* :mod:`delgen.delaunay` -- Euclidean Delaunay complexes by two independent
  routes, plus the relaxed (almost empty ball) variant.
* :mod:`delgen.metric` -- perturbed metrics and Delaunay complexes built from
  them.
* :mod:`delgen.genericity` -- sampling radius, sparsity, protection and
  thickness certification.
* :mod:`delgen.perturb` -- perturbation generators, stability budgets and
  trial harnesses.
* :mod:`delgen.cli` -- command line front end.
"""

__version__ = "0.1.0"

from .errors import (
    CheckFailedError,
    DelgenError,
    ParseError,
    PreconditionError,
)
from .simplex import (
    Flat,
    Simplex,
    almost_center_gap,
    circumcenter,
    munkres_thickness_check,
    simplex_metrics,
    singular_value_floor,
    subspace_angle,
    whitney_angle_check,
)
from .complexes import SimplicialComplex, star_isomorphic
from .delaunay import (
    DelaunayResult,
    PointSet,
    delaunay_bruteforce,
    delaunay_lifted,
    relaxed_delaunay,
)
from .metric import (
    DisplacementField,
    MetricDelaunayResult,
    MetricModel,
    metric_circumcenter,
    metric_delaunay,
)
from .genericity import (
    AuditRecord,
    GenericityAnalysis,
    ProtectionReport,
    SafeInteriorClassification,
    SamplingReport,
    ThicknessCertificate,
    analyze_genericity,
    deep_interior,
    lemma_audit,
    sampling_parameters,
    thickness_certificate,
)
from .perturb import (
    PointPerturbation,
    SecureParams,
    StabilityBudget,
    TrialVerdict,
    cc_displacement_trial,
    make_point_perturbation,
    measured_secure_params,
    metric_stability_trial,
    point_stability_trial,
    protection_decay_trial,
    relaxation_trial,
    stability_budget,
    trial_batch,
)
from .datasets import delta_search, grid_points, uniform_points
from .fileio import dataset_digest, read_points, write_points

__all__ = [
    "AuditRecord",
    "CheckFailedError",
    "DelgenError",
    "DelaunayResult",
    "DisplacementField",
    "Flat",
    "GenericityAnalysis",
    "MetricDelaunayResult",
    "MetricModel",
    "ParseError",
    "PointPerturbation",
    "PointSet",
    "PreconditionError",
    "ProtectionReport",
    "SafeInteriorClassification",
    "SamplingReport",
    "SecureParams",
    "Simplex",
    "SimplicialComplex",
    "StabilityBudget",
    "ThicknessCertificate",
    "TrialVerdict",
    "almost_center_gap",
    "analyze_genericity",
    "cc_displacement_trial",
    "circumcenter",
    "dataset_digest",
    "deep_interior",
    "delaunay_bruteforce",
    "delaunay_lifted",
    "delta_search",
    "grid_points",
    "lemma_audit",
    "make_point_perturbation",
    "measured_secure_params",
    "metric_circumcenter",
    "metric_delaunay",
    "metric_stability_trial",
    "munkres_thickness_check",
    "point_stability_trial",
    "protection_decay_trial",
    "read_points",
    "relaxation_trial",
    "relaxed_delaunay",
    "sampling_parameters",
    "simplex_metrics",
    "singular_value_floor",
    "stability_budget",
    "star_isomorphic",
    "subspace_angle",
    "thickness_certificate",
    "trial_batch",
    "uniform_points",
    "whitney_angle_check",
    "write_points",
]
