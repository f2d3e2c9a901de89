"""Exact search and verification of Diophantine m-tuples in imaginary
quadratic number rings."""

__version__ = "0.1.0"
