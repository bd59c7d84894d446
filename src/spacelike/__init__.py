"""Localized quantum interventions at spacetime events.

The package evaluates sequences of Kraus-map interventions on composite
systems under every chronological ordering a Lorentz frame can induce,
and certifies that spacelike-separated product interventions give
ordering-independent record probabilities and no superluminal signaling.
"""

from . import experiment, intervention, linalg, scenarios, schema, spacetime
from .linalg import *  # noqa: F403
from .spacetime import *  # noqa: F403
from .intervention import *  # noqa: F403
from .experiment import *  # noqa: F403
from .scenarios import *  # noqa: F403
from .schema import *  # noqa: F403

# Each public name is declared once, in its submodule's __all__.
__all__ = [
    *linalg.__all__,
    *spacetime.__all__,
    *intervention.__all__,
    *experiment.__all__,
    *scenarios.__all__,
    *schema.__all__,
]

__version__ = "0.1.0"
