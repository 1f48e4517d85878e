"""Prior-knowledge equality constraints on Markov parameters for LTI identification.

The package turns physical prior knowledge about a sampled plant (DC gains,
dominant time constants, integrating or dead channels, second-order
recurrences) into linear equality constraints on the Markov parameters,
estimates those parameters from input-output data by constrained FIR least
squares, and realizes a state-space model with Kung's algorithm.
"""

from . import discretize, estimate, priors, realize, statespace
from .discretize import *  # noqa: F403
from .estimate import *  # noqa: F403
from .priors import *  # noqa: F403
from .realize import *  # noqa: F403
from .statespace import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (statespace, discretize, priors, estimate, realize)
    for name in module.__all__
]
