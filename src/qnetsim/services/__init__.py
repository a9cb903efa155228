"""Network services built on the quantum primitives: physical-layer rate
estimation, medium access control, and trajectory routing."""
