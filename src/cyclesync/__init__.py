"""Synchronization of coupled nonlinear business-cycle oscillators.

Simulates two-variable nonlinear oscillators coupled on abstract or
input-output networks, measures phase synchronization and synchronization
centrality, computes master-stability Lyapunov spectra and eigenmode shock
propagation, and compares model comovement against band-pass-filtered
empirical panels.
"""

__version__ = "0.1.0"
