"""Correlation-driven collective emission of two separated atoms.

The package builds the relevant two-atom states, quantifies their quantum
correlations (discord, concurrence) through mutually checking closed-form
and numerical routes, and maps those correlations onto the observable far
field: directional intensity, photon statistics, and the boundaries between
the emission regimes.
"""

__version__ = "0.1.0"
