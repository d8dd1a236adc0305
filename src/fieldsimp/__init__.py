"""Simplification of generating sets of subfields of Q(x1, ..., xn)."""

__version__ = "0.1.0"
