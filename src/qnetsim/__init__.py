"""Discrete-event network simulation with exact quantum services.

The package pairs a classical event engine (topology, latencies, a
classical-bit ledger) with exact quantum services: Bell services that
compute on a pair's 4x4 correlation matrix, capacity estimates on Pauli
transfer matrices, medium access control and trajectory routing.  A
small density-matrix register (``qstate``) holds the states they start
from.
"""

from .channels import (
    ChannelModel,
    apply_channel,
    bottleneck_check,
    compose_serial,
    depolarizing_channel,
    holevo_information,
    quantum_switch,
)
from .config import ExperimentConfig, load_config
from .engine import EventEngine, SignalingScope, Topology
from .protocols import (
    CorrectionMessage,
    make_w_state,
    pair_correlations,
    superdense_decode,
    superdense_distribution,
    superdense_encode,
    w_election_probabilities,
    w_election_round,
    werner_pair,
)
from .qstate import (
    GateSpec,
    MeasurementOutcome,
    QuantumState,
    apply_unitary,
    fidelity,
    measure,
    partial_trace,
    von_neumann_entropy,
)
from .runner import MetricsRecord, run_experiment
from .services import (
    MacConfig,
    MacMetrics,
    MacProtocol,
    TrajectoryPlan,
    phy_effective_rate,
    route_max_bottleneck,
    route_with_switch_merging,
    run_mac_sim,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelModel",
    "apply_channel",
    "bottleneck_check",
    "compose_serial",
    "depolarizing_channel",
    "holevo_information",
    "quantum_switch",
    "ExperimentConfig",
    "load_config",
    "EventEngine",
    "SignalingScope",
    "Topology",
    "CorrectionMessage",
    "make_w_state",
    "pair_correlations",
    "superdense_decode",
    "superdense_distribution",
    "superdense_encode",
    "w_election_probabilities",
    "w_election_round",
    "werner_pair",
    "GateSpec",
    "MeasurementOutcome",
    "QuantumState",
    "apply_unitary",
    "fidelity",
    "measure",
    "partial_trace",
    "von_neumann_entropy",
    "MetricsRecord",
    "run_experiment",
    "MacConfig",
    "MacMetrics",
    "MacProtocol",
    "TrajectoryPlan",
    "phy_effective_rate",
    "route_max_bottleneck",
    "route_with_switch_merging",
    "run_mac_sim",
    "__version__",
]
