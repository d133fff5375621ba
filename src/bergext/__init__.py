"""bergext: weighted Bergman kernels and minimal-norm holomorphic extension
on the unit disk and bidisk, with reproduction sweeps for the counterexample
families and the cross-extension norm functionals."""

__version__ = "0.1.0"

from .errors import (
    BergextError,
    DegeneracyError,
    EvaluationError,
    ParameterError,
)
from .quadrature import (
    BidiskRule,
    DiskRule,
    bidisk_rule,
    disk_rule,
    integrate,
    refine,
)
from .weights import (
    BranchWeight,
    ClampedWeight,
    CutoffFamily,
    RegularizedLogWeight,
    Weight,
    clamp_max,
    sampled_laplacian_min,
)
from .bergman import (
    BergmanModel,
    bergman_metric_at_zero,
    build_model,
    default_rule,
    higher_kernel,
    kernel,
    log_kernel_gradient_at_zero,
    unit_ek,
)
from .extension import (
    CrossData,
    ExtensionReport,
    Jet,
    branch_restriction,
    extend_cross,
    extend_jet_direct,
    extend_jet_recursive,
    rhs_estimate_cross,
    rhs_estimate_jet,
)

__all__ = [
    "BergextError",
    "ParameterError",
    "DegeneracyError",
    "EvaluationError",
    "DiskRule",
    "BidiskRule",
    "disk_rule",
    "bidisk_rule",
    "integrate",
    "refine",
    "Weight",
    "BranchWeight",
    "ClampedWeight",
    "RegularizedLogWeight",
    "CutoffFamily",
    "clamp_max",
    "sampled_laplacian_min",
    "BergmanModel",
    "build_model",
    "default_rule",
    "kernel",
    "higher_kernel",
    "bergman_metric_at_zero",
    "log_kernel_gradient_at_zero",
    "unit_ek",
    "Jet",
    "CrossData",
    "ExtensionReport",
    "extend_jet_direct",
    "extend_jet_recursive",
    "rhs_estimate_jet",
    "extend_cross",
    "rhs_estimate_cross",
    "branch_restriction",
]
