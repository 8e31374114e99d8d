"""Numerical laboratory for a thin liquid film on a cylindrical surface:
closed-form energy-minimizing steady states, a mass-conservative implicit
integrator for the regularized evolution equation, and diagnostics that
check the proven convergence-rate bounds at desk scale."""

__version__ = "0.1.0"
