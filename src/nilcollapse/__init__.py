"""Spectra of differential-form Laplacians on collapsing fiber-bundle models.

Submodules:
  numerics        the float eigensolver entry and exact rational arithmetic
  lie             nilpotent Lie algebras, invariant forms, curvature, rescaling
  superconnection flat superconnections over flat circle/torus bases
  spectral        exact spectral sequences, holonomy analysis, predictions
  lab             scenario runner and report emission
"""

from . import lab, lie, numerics, report, spectral, superconnection
from .numerics import InputError
from .report import SpectrumReport, closeness_epsilon, epsilon_close

__all__ = [
    "lab", "lie", "numerics", "report", "spectral", "superconnection",
    "InputError", "SpectrumReport", "epsilon_close", "closeness_epsilon",
]

__version__ = "0.1.0"
