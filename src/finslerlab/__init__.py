"""Numerical geometry of spherically symmetric Finsler metrics
F = |y| phi(|x|, <x, y>/|y|), driven by degree-4 Taylor-jet arithmetic."""

from .curvature import (
    CurvaturePack,
    classify,
    flag_curvature,
    riemann_pack,
)
from .expr import DomainError, ParseError, parse, to_string
from .geometry import (
    EvalPoint,
    GeometryError,
    MetricPack,
    PhiScalars,
    canonical_point,
    cartan_pack,
    metric_pack,
    phi_scalars,
    random_rotation,
)
from .jet import Jet, eval_jet
from .spray import (
    MetrizabilityResiduals,
    SprayPack,
    candidate_spray,
    horizontal_residual,
    metrizability_from_spray,
    pq_from_phi,
)
from .surface import (
    BerwaldFrame,
    MainScalarPack,
    berwald_frame,
    main_scalar,
)

__version__ = "0.1.0"

__all__ = [
    "BerwaldFrame",
    "CurvaturePack",
    "DomainError",
    "EvalPoint",
    "GeometryError",
    "Jet",
    "MainScalarPack",
    "MetricPack",
    "MetrizabilityResiduals",
    "ParseError",
    "PhiScalars",
    "SprayPack",
    "berwald_frame",
    "candidate_spray",
    "canonical_point",
    "cartan_pack",
    "classify",
    "eval_jet",
    "flag_curvature",
    "horizontal_residual",
    "metrizability_from_spray",
    "main_scalar",
    "metric_pack",
    "parse",
    "phi_scalars",
    "pq_from_phi",
    "random_rotation",
    "riemann_pack",
    "to_string",
]
