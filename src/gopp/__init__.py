"""Generalized orthogonal Procrustes: power method, certificates, Stiefel ascent."""

from . import bench, bm, certificate, gpm, linops, model

__version__ = "0.1.0"
