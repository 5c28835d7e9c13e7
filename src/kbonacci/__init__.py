"""Ladder algebras with k-step coefficient windows.

Exact-rational tooling for k-generalized Fibonacci recurrences, the deformed
oscillator algebras they index, and the substitution chains whose growth obeys
the same recurrence.
"""

from . import algebra, errors, recurrence, spectral, substitution
from .algebra import *  # noqa: F403
from .errors import *  # noqa: F403
from .recurrence import *  # noqa: F403
from .spectral import *  # noqa: F403
from .substitution import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*algebra.__all__, *errors.__all__, *recurrence.__all__, *spectral.__all__, *substitution.__all__]
