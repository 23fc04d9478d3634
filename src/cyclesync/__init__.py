"""Synchronization of coupled nonlinear business-cycle oscillators.

Simulates two-variable nonlinear oscillators coupled on abstract or
input-output networks, measures phase synchronization and synchronization
centrality, computes master-stability Lyapunov spectra and eigenmode shock
propagation, and compares model comovement against band-pass-filtered
empirical panels.
"""

from .dynamics import (
    DEFAULT_QUARTIC,
    AgentParams,
    JacobianSummary,
    QuarticCoefficients,
    StabilityClass,
    check_uniqueness,
    classify_stability,
    eval_f,
    eval_f_prime,
    jacobian_at,
    linear_frequency,
    steady_state_alpha0,
)
from .empirics import (
    DYNAMICS_PRESETS,
    FilteredSeries,
    PanelSeries,
    ScenarioSpec,
    cf_bandpass,
    correlation_matrix,
    grouped_correlations,
    load_panel_csv,
    scenario_run,
)
from .master_stability import (
    LyapunovEstimate,
    MasterStabilityCurve,
    ShockResponse,
    SynchronizedOrbit,
    from_eigenbasis,
    master_stability_function,
    mode_lyapunov,
    propagate_deviations,
    shock_response_compare,
    synchronized_orbit,
    time_resolved_volume_rate,
    to_eigenbasis,
)
from .networks import (
    Adjacency,
    FlowTable,
    InteractionNetwork,
    SpectralDecomposition,
    build_io_network,
    build_topology,
    eigenvector_centrality,
    fiedler_vector,
    generalized_laplacian,
    uniform_coupling,
)
from .phase import (
    EntrainmentResult,
    PhaseSeries,
    SyncCentralityResult,
    detect_peaks,
    epsilon_sweep,
    mean_pairwise_correlation,
    measured_frequency,
    phase_coherence,
    phase_series,
    sync_centrality,
)
from .simulation import (
    ShockConfig,
    SimulationConfig,
    TrajectorySet,
    aggregate_series,
    ar1_path,
    simulate,
    simulate_batch,
)

__version__ = "0.1.0"
