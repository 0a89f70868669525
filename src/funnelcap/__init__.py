"""funnelcap: funnel-based tracking control with capped inputs.

Certifies jointly prescribed error envelopes and input caps through
analytical per-stage feasibility margins, computes feasible initial-state
regions, and simulates the closed loop while monitoring every guaranteed
bound.  The controller needs no model of the plant drift: each stage is a
static saturating map of its normalized tracking error.

Each module's ``__all__`` is the only list of its public names; the package
exports their union.
"""

from .funnel import *
from .controller import *
from .plant import *
from .certificate import *
from .feasibility import *
from .simulator import *
from .config import *
from . import certificate, config, controller, feasibility, funnel, plant, simulator

__version__ = "0.1.0"

__all__ = [
    *funnel.__all__,
    *controller.__all__,
    *plant.__all__,
    *certificate.__all__,
    *feasibility.__all__,
    *simulator.__all__,
    *config.__all__,
    "__version__",
]
