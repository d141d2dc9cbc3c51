"""Regularized periodically forced Kepler problem.

Levi-Civita (planar) and Kustaanheimo-Stiefel (spatial) regularization
of the perturbed Kepler equation, with periodic-orbit continuation,
Floquet/monodromy certification, physical-time reconstruction of
generalized solutions, averaging for bifurcation from infinity, and
collision removal.
"""

from . import (algebra, averaging, errors, flow, manifolds, model,
               reconstruct, shooting)
from .errors import KepregError

__version__ = "0.1.0"

__all__ = [
    "KepregError",
    "algebra",
    "averaging",
    "errors",
    "flow",
    "manifolds",
    "model",
    "reconstruct",
    "shooting",
]
