"""The public API: the exact set of names ``confspec`` exports.

A change to the public API has to change PUBLIC_NAMES on purpose.
"""

import confspec

PUBLIC_NAMES = [
    "ANTIPERIODIC", "CONFORMAL", "CometricEstimate", "ConfigError",
    "ConformalFactor", "DEFAULT_RELATIVE_TAU", "DetectConfig",
    "DistanceEstimate", "FlatBackground", "Grid", "GrowthFitError",
    "INCONCLUSIVE", "Metric", "MultiplierExtract", "NON_VANISHING",
    "NOT_CONFORMAL", "OperatorMatrix", "PAULI_X", "PAULI_Y", "PERIODIC",
    "ProbeConvergenceError", "ProbeRow", "ProbeSpec", "SpectralDecomposition",
    "SpinStructure", "SymbolEstimate", "TestReport", "VANISHING", "Verdict",
    "analytic_sign_symbol", "build_dirac", "canonical_hash", "clifford",
    "cometric_pair", "commutator", "commutator_norm", "connes_distance",
    "covector_norm", "detect_conformal", "eigendecompose", "extract_multiplier",
    "flat_dirac", "geodesic_distance", "kernel_rank", "load_metric",
    "load_operator", "make_circle_metric", "make_torus_metric",
    "metric_from_dict", "metric_to_dict", "multiplication_operator",
    "plane_wave_conjugate", "probe_symbol", "probe_symbols",
    "recover_conformal_factor", "recover_normalized_cometric", "save_metric",
    "save_operator", "sign_of", "spectral_projector", "standard_probe",
    "vanishing_symbol_test",
]


def test_public_names_are_pinned():
    assert sorted(confspec.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in confspec.__all__ if not hasattr(confspec, name)]
    assert missing == []


def test_public_names_are_listed_once():
    assert len(set(confspec.__all__)) == len(confspec.__all__)
