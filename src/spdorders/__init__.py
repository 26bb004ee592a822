"""Invariant cone fields, partial orders, and monotonicity tools on the
manifold of symmetric positive definite matrices."""

from .cones import (
    ConeSpec,
    MembershipReport,
    SpectralCone,
    classify_quadratic_form,
    cone_membership,
    dual_spectral_cone,
    half_space_affine,
    loewner,
    quadratic_affine,
    quadratic_translation,
    ray_affine,
    spectral_membership,
    traceless_projection,
)
from .core import (
    SpdMatrix,
    Spectrum,
    SymTangent,
    congruence,
    matrix_function,
    random_spd,
    spd_validate,
    sym_eig,
)
from .flows import (
    FlowTrajectory,
    integrate_flow,
    preorder_monitor,
    projected_eigenvalues,
    skew_projection,
)
from .geometry import (
    MetricSpec,
    det_leaf,
    distance,
    geodesic,
    geometric_mean,
    inner_product,
    riemannian_exp,
    riemannian_log,
)
from .monotone import (
    PositivityReport,
    SmoothMap,
    check_differential_positivity,
    congruence_map,
    find_order_counterexample,
    inversion_map,
    map_differential,
    power_map,
    scaling_map,
    translation_map,
)
from .orders import (
    OrderVerdict,
    conal_path_oracle,
    order_compare,
    order_interval_sample,
    random_ordered_pair,
)
from .traces import strict_contraction_witness, trace_identity_residual, trace_inequality_fuzz
from .viz2 import ConePoint3, cone_cross_section, hyperboloid_leaf, phi, phi_inverse

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
