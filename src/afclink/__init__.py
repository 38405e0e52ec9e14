"""Simulation and analysis of time-bin-entangled photon pairs stored in
atomic-frequency-comb quantum memories.

Subsystems:

* :mod:`afclink.linalg` - two-qubit states, projectors, Hermitian checks around LAPACK eigh
* :mod:`afclink.source` - pulsed down-conversion pair source
* :mod:`afclink.memory` - comb construction/fitting, recall efficiency, echoes
* :mod:`afclink.detection` - analyzers, detectors, time-to-digital histograms
* :mod:`afclink.events` - channel, bin, origin and memory-outcome tokens
* :mod:`afclink.estimation` - cross-correlation, state reconstruction, metrics
* :mod:`afclink.config` / :mod:`afclink.harness` / :mod:`afclink.cli` - runs
* :mod:`afclink.csvio` / :mod:`afclink.errors` - CSV checks, exception types
"""

__version__ = "0.1.0"
