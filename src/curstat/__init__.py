"""Nonparametric estimation from current status data.

Each observation is a pair (t, delta): an inspection time and the
indicator of whether the event had already happened by then.  The
package fits the event time distribution by the shape-constrained
maximum likelihood step estimator and derives smooth distribution,
density, and hazard estimates from it, with the matching bandwidth
theory and two data-driven bandwidth selectors.

Typical flow::

    sample = curstat.build_sample(records)        # (t, delta) rows
    mle = curstat.fit_mle(sample)                 # step distribution
    F = curstat.smle_F(mle, curstat.triweight(), h, t)

or through the ``curstat`` command-line tool.
"""

from .errors import *
from .kernels import *
from .mle import *
from .smoothing import *
from .estimators import *
from .bandwidth import *
from .sim import *
from . import bandwidth, errors, estimators, kernels, mle, sim, smoothing

__version__ = "0.1.0"

# each module's own __all__ is the one list of its public names
__all__ = [
    "__version__",
    *errors.__all__,
    *kernels.__all__,
    *mle.__all__,
    *smoothing.__all__,
    *estimators.__all__,
    *bandwidth.__all__,
    *sim.__all__,
]
