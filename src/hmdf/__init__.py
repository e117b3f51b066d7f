"""Harmonic measure distribution functions (h-functions) of circle-type
planar domains: estimation, inversion, and realizability certification.

The h-function of a domain containing 0 maps a radius r to the harmonic
measure, seen from 0, of the boundary within the closed disk of radius r
-- equivalently the probability that Brownian motion exits the domain
within distance r of the origin.
"""
__version__ = "0.1.0"
