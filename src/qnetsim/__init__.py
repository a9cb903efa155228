"""Discrete-event network simulation with exact quantum services.

The package pairs a classical event engine (a clock, an event queue and
a classical-bit ledger, over a topology's routes and latencies) with exact
quantum services: Bell services that compute on a pair's 4x4 correlation
matrix, capacity estimates on Pauli transfer matrices, medium access
control and trajectory routing.  A dense density-matrix register
(``qstate``) is kept for the tests and the benchmark's kernel timings; no
scenario run builds one.  Import each name from the module that defines
it, for example ``from qnetsim.protocols import teleport_table``.
"""

__version__ = "0.1.0"
