"""Curvature flows of solvable Lie brackets.

Numerical toolkit for left-invariant geometry encoded in structure-constant
tensors: Ricci-level curvature, spectral type classification, moment-map
stratification, four bracket-flow variants with convergence and collapse
monitors, solvsoliton certification, and linearization spectra at soliton
fixed points.
"""

from .brackets import (
    BracketTensor,
    act,
    ad_map,
    bracket_from_dict,
    bracket_to_dict,
    derivation_space,
    derived_series,
    is_nilpotent,
    is_solvable,
    jacobi_residual,
    load_bracket,
    nilradical,
    pi_action,
    save_bracket,
)
from .catalog import CatalogEntry, catalog, random_solvable_bracket
from .curvature import (
    CurvaturePack,
    curvature_pack,
    killing_matrix,
    moment_map_fast,
)
from .errors import BracketFlowError
from .experiments import run_collapse_experiment, run_uniqueness_experiment
from .flows import (
    FlowSpec,
    FlowTrajectory,
    Termination,
    Variant,
    blowdown_check,
    detect_soliton_convergence,
    integrate,
    recover_gauge,
)
from .linearize import LinearizationReport, l_operator, p_operator
from .solitons import (
    OrbitFingerprint,
    SolitonCertificate,
    SolitonKind,
    construct_critical,
    fingerprint,
    fingerprint_distance,
    normalize_soliton,
    same_orbit_on,
    soliton_label,
    soliton_residual,
)
from .spectral import AlgebraType, TypeReport, classify_type, is_flat_bracket, phi, psi, sigma_a
from .strata import (
    BetaDecomposition,
    StratumLabel,
    beta_decomposition,
    check_gauged,
    energy_gradient_flow,
    label_from_beta,
    project_qbeta,
    same_label,
    stratum_label,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraType",
    "BetaDecomposition",
    "BracketFlowError",
    "BracketTensor",
    "CatalogEntry",
    "CurvaturePack",
    "FlowSpec",
    "FlowTrajectory",
    "LinearizationReport",
    "OrbitFingerprint",
    "SolitonCertificate",
    "SolitonKind",
    "StratumLabel",
    "Termination",
    "TypeReport",
    "Variant",
    "act",
    "ad_map",
    "beta_decomposition",
    "blowdown_check",
    "bracket_from_dict",
    "bracket_to_dict",
    "catalog",
    "check_gauged",
    "classify_type",
    "construct_critical",
    "curvature_pack",
    "derivation_space",
    "derived_series",
    "detect_soliton_convergence",
    "energy_gradient_flow",
    "fingerprint",
    "fingerprint_distance",
    "integrate",
    "is_flat_bracket",
    "is_nilpotent",
    "is_solvable",
    "jacobi_residual",
    "killing_matrix",
    "l_operator",
    "label_from_beta",
    "load_bracket",
    "moment_map_fast",
    "nilradical",
    "normalize_soliton",
    "p_operator",
    "phi",
    "pi_action",
    "project_qbeta",
    "psi",
    "random_solvable_bracket",
    "recover_gauge",
    "run_collapse_experiment",
    "run_uniqueness_experiment",
    "same_label",
    "same_orbit_on",
    "save_bracket",
    "sigma_a",
    "soliton_label",
    "soliton_residual",
    "stratum_label",
]
