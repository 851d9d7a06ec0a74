"""Resolving sets, metric dimension, and edge-perturbation tooling.

Import from the submodules; the package root defines only `__version__`.
"""

__version__ = "0.1.0"
