"""Discrete-event network simulation with exact quantum services.

The package layers a classical event engine (topology, latencies, a
classical-bit ledger) over a dense density-matrix core, and builds
entanglement protocols, capacity estimates, medium access control and
trajectory routing on top.
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
    apply_correction,
    entanglement_swap,
    make_w_state,
    pair_correlations,
    superdense_decode,
    superdense_distribution,
    superdense_encode,
    teleport,
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
    new_register,
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
    "apply_correction",
    "entanglement_swap",
    "make_w_state",
    "pair_correlations",
    "superdense_decode",
    "superdense_distribution",
    "superdense_encode",
    "teleport",
    "w_election_probabilities",
    "w_election_round",
    "werner_pair",
    "GateSpec",
    "MeasurementOutcome",
    "QuantumState",
    "apply_unitary",
    "fidelity",
    "measure",
    "new_register",
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
