"""Exact classification of Boolean degree-1 functions on classical
coordinatized domains: Hamming, Johnson, multislice, Grassmann, polar
and bilinear-forms geometries.
"""

from .boolfn import BoolFn
from .catalogs import catalog, catalog_bits, match_catalog
from .classify import (
    ClassificationReport,
    SearchConfig,
    bd_restriction_analysis,
    bruen_drudge_search,
    degree1_space,
    enumerate_all,
    is_degree_one,
    is_reduced,
    reduce_polar,
)
from .domains import (
    Domain,
    build_bilinear,
    build_grassmann,
    build_hamming,
    build_johnson,
    build_multislice,
    build_polar,
    restrict,
    restrict_to_point,
)
from .forms import PolarSpec, standard_polar
from .gf import FieldSpec, field_spec
from .lpexport import export_lp, read_assignment, verify_assignment
from .scheme import check_neighbor_condition, eigen_params, weight_divisor
from .subspaces import QuotientMap, Subspace, enumerate_subspaces, gaussian

__all__ = [
    "BoolFn",
    "ClassificationReport",
    "Domain",
    "FieldSpec",
    "PolarSpec",
    "QuotientMap",
    "SearchConfig",
    "Subspace",
    "bd_restriction_analysis",
    "bruen_drudge_search",
    "build_bilinear",
    "build_grassmann",
    "build_hamming",
    "build_johnson",
    "build_multislice",
    "build_polar",
    "catalog",
    "catalog_bits",
    "check_neighbor_condition",
    "degree1_space",
    "eigen_params",
    "enumerate_all",
    "enumerate_subspaces",
    "export_lp",
    "field_spec",
    "gaussian",
    "is_degree_one",
    "is_reduced",
    "match_catalog",
    "read_assignment",
    "reduce_polar",
    "restrict",
    "restrict_to_point",
    "standard_polar",
    "verify_assignment",
    "weight_divisor",
]

__version__ = "0.1.0"
