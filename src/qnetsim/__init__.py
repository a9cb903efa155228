"""Discrete-event network simulation with exact quantum services.

The package pairs a classical event engine (topology, latencies, a
classical-bit ledger) with exact quantum services: Bell services that
compute on a pair's 4x4 correlation matrix, capacity estimates on Pauli
transfer matrices, medium access control and trajectory routing.  A
small density-matrix register (``qstate``) holds the states they start
from.  Import each name from the module that defines it, for example
``from qnetsim.protocols import teleport_table``.
"""

__version__ = "0.1.0"
