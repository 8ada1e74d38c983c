"""Numerical spectral geometry on circles and flat tori.

The package discretizes spinorial Dirac operators in a Fourier basis,
computes their bounded sign through Hermitian functional calculus, probes
principal symbols with oscillatory plane waves, and decides conformal
equivalence of metrics from the sign operators alone.  Supporting tools
recover conformal factors and normalized cometrics, evaluate spectral
distances, and run everything from JSON scenario configs.
"""

from .geometry import (ConformalFactor, FlatBackground, Grid, Metric, cometric_pair,
                       covector_norm, geodesic_distance, make_circle_metric,
                       make_torus_metric)
from .operators import (ANTIPERIODIC, PAULI_X, PAULI_Y, PERIODIC, OperatorMatrix,
                        SpinStructure, build_dirac, clifford, commutator,
                        commutator_norm, flat_dirac, multiplication_operator)
from .calculus import (DEFAULT_RELATIVE_TAU, SpectralDecomposition, eigendecompose,
                       kernel_rank, sign_of, spectral_projector)
from .probes import (INCONCLUSIVE, NON_VANISHING, VANISHING, ProbeRow, ProbeSpec,
                     SymbolEstimate, TestReport, analytic_sign_symbol,
                     plane_wave_conjugate, probe_symbol, probe_symbols,
                     standard_probe, vanishing_symbol_test)
from .detect import (CONFORMAL, NOT_CONFORMAL, CometricEstimate, DetectConfig,
                     DistanceEstimate, GrowthFitError, MultiplierExtract,
                     ProbeConvergenceError, Verdict, connes_distance,
                     detect_conformal, extract_multiplier, recover_conformal_factor,
                     recover_normalized_cometric)
from .io import (ConfigError, canonical_hash, load_metric, load_operator,
                 metric_from_dict, metric_to_dict, save_metric, save_operator)

__version__ = "0.1.0"

__all__ = [
    "ANTIPERIODIC", "CONFORMAL", "CometricEstimate", "ConfigError",
    "ConformalFactor", "DEFAULT_RELATIVE_TAU",
    "DetectConfig", "DistanceEstimate", "FlatBackground",
    "Grid", "GrowthFitError", "INCONCLUSIVE", "Metric", "MultiplierExtract",
    "NON_VANISHING", "NOT_CONFORMAL", "OperatorMatrix", "PAULI_X", "PAULI_Y",
    "PERIODIC", "ProbeConvergenceError", "ProbeRow", "ProbeSpec",
    "SpectralDecomposition", "SpinStructure", "SymbolEstimate",
    "TestReport", "VANISHING", "Verdict",
    "analytic_sign_symbol", "build_dirac", "canonical_hash", "clifford",
    "cometric_pair", "commutator", "commutator_norm", "connes_distance",
    "covector_norm", "detect_conformal", "eigendecompose", "extract_multiplier",
    "flat_dirac", "geodesic_distance", "kernel_rank", "load_metric",
    "load_operator", "make_circle_metric", "make_torus_metric",
    "metric_from_dict", "metric_to_dict", "multiplication_operator",
    "plane_wave_conjugate", "probe_symbol", "probe_symbols",
    "recover_conformal_factor", "recover_normalized_cometric", "save_metric",
    "save_operator", "sign_of", "spectral_projector",
    "standard_probe", "vanishing_symbol_test",
]
