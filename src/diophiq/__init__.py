"""Exact search and verification of Diophantine m-tuples in imaginary
quadratic number rings."""

__version__ = "0.1.0"

K_CONSTANT = 4728
"""Gap-principle constant: the statement says 4278 but its proof derives
4728; the larger, proof-consistent value is used everywhere and reported."""
