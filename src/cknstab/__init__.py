"""Numerics for degenerate stability of the weighted critical equation on the
threshold curve: cylinder bubbles, linearized spectra, dual-norm residuals,
the stability constants, the sharp cubic family, and multi-bubble interaction
estimates.  The public names are those in each module's ``__all__``."""

__version__ = "0.1.0"

from .cylinder import *
from .multibubble import *
from .operators import *
from .params import *
from .spectrum import *
from .stability import *
