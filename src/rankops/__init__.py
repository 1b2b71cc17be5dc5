"""rankops: tie-aware position operators on weak orders, verified.

The library models rankings with ties as weak orders (ordered tiers of
indifferent alternatives), implements the dense, standard, modified and
fractional ranks over them with exact rational positions, and ships an
exhaustive checking engine for the invariance properties that tell these
operators apart.
"""

from . import axioms, operators, orders
from .orders import *
from .operators import *
from .axioms import *

__version__ = "0.1.0"

__all__ = [*orders.__all__, *operators.__all__, *axioms.__all__, "__version__"]
