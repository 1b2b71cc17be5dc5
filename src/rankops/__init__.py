"""rankops: tie-aware position operators on weak orders, verified.

The library models rankings with ties as weak orders (ordered tiers of
indifferent alternatives), implements the dense, standard, modified and
fractional ranks over them with exact rational positions, and ships an
exhaustive checking engine for the invariance properties that tell these
operators apart.

The engine, ``rankops.axioms``, loads on first use: the first of its names
asked for, or ``__all__``, imports it.  ``import rankops`` and the ``rank``
and ``enumerate`` commands do not load it.
"""

import importlib

from . import operators, orders
from .orders import *
from .operators import *

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    """The engine module and its names, and ``__all__``, which lists them."""
    # No other name with a leading underscore is the engine's, so a tool that
    # probes for one (``__wrapped__``, say) does not load it.
    if name == "__all__" or not name.startswith("_"):
        # Not ``from . import axioms``: its import asks this hook for the name
        # ``axioms`` again, before the submodule is bound.
        axioms = importlib.import_module(".axioms", __name__)
        if name == "__all__":
            return [*orders.__all__, *operators.__all__, *axioms.__all__, "__version__"]
        if name == "axioms":
            return axioms
        if name in axioms.__all__:
            return getattr(axioms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
