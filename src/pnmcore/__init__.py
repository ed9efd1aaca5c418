"""Analysis of one-parameter families of quantum dynamical maps: CPTP
region scans, characteristic times, pure-non-Markovian core extraction,
and information-backflow measures."""

__version__ = "1.0.0"

from .analysis import (
    CharTimes,
    CptpGrid,
    characteristic_times,
    classify_evolution,
    compute_T_lambda,
    compute_t_star,
    compute_tau_lambda,
    extract_pnm_core,
    scan_regions,
    verify_composition_rules,
)
from .errors import (
    ConfigError,
    CPTPViolation,
    DegeneratePair,
    DimensionMismatch,
    DomainError,
    ExprSyntaxError,
    NonFiniteResult,
    ParseError,
    PnmError,
    QuadratureFailure,
    SchemaError,
    SingularMap,
    UndefinedIntermediateMap,
    UnknownFunction,
    UnsupportedDimension,
    ZeroDifference,
)
from .evolutions import (
    Depolarizing,
    Evolution,
    PauliDiagonal,
    PauliProbs,
    PauliRates,
    PRESET_NAMES,
    QuasiEternal,
    ShiftedDepolarizing,
    ShiftedPauli,
    ValidationReport,
    make_preset,
    pauli_from_rates,
    quasi_eternal_probs,
    t0_alpha,
    validate_spec,
)
from .exprparse import ScalarFn, parse_expr
from .linalg import (
    Superoperator,
    apply_map,
    choi_of,
    compose_maps,
    depolarizing_superoperator,
    identity_superoperator,
    invert_map,
    is_cptp,
    is_eb_qubit,
    is_trace_preserving,
    is_unitary_map,
    is_valid_density_matrix,
    min_choi_eigenvalue,
    partial_transpose,
    pauli_superoperator,
    trace_norm,
    unvec,
    vec,
)
from .measures import (
    FluxSeries,
    MeasureReport,
    StatePair,
    amplification_factor,
    depolarizing_measures,
    distinguishability,
    eb_time_qubit,
    evolve_pair,
    flux_series,
    guessing_probability,
    integrate_flux_measures,
    measure_report,
    orthogonal_pair_from_difference,
    revivals_delta,
    rhp_measure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
