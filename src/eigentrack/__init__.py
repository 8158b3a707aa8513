"""Adaptive tracking of eigenvalue surfaces of parametric elliptic eigenproblems."""

__version__ = "0.1.0"
