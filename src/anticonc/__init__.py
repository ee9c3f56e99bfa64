"""Exact arithmetic for concentration maxima of lattice random sums.

The package computes hit probabilities P(a_1 X_1 + ... + a_n X_n = x) for
independent finitely supported lattice variables in exact rational
arithmetic, implements the constructive comparisons that bound them
(balancing, symmetrization, quasi-uniform ceilings, rearrangements,
peakedness), and pairs the exact values with the classical floating-point
expansions so residuals can be measured rather than trusted.
"""

from . import asymptotics, dist, families, reduction, search, transforms
from .asymptotics import *
from .dist import *
from .families import *
from .reduction import *
from .search import *
from .transforms import *

__version__ = "0.1.0"

__all__ = []
__all__ += asymptotics.__all__
__all__ += dist.__all__
__all__ += families.__all__
__all__ += reduction.__all__
__all__ += search.__all__
__all__ += transforms.__all__
