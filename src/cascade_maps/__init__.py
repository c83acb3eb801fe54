"""Threshold-coupled (cascading) logistic map arrays.

A small numpy library for simulating finite one-directional arrays of
clipped logistic maps, classifying their attractors and rendering basins
of attraction with accumulation diagnostics.

The package re-exports the ``__all__`` of each of its library modules.
"""

from . import analysis, basins, errors, lattice, scalar
from .analysis import *  # noqa: F401,F403
from .basins import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .scalar import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (analysis, basins, errors, lattice, scalar)
    for name in module.__all__
)
