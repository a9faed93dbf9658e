"""Average age of information at the receivers of a multicast update stream.

A single source pushes time-stamped updates to n nodes over i.i.d. random
links and preempts each update once enough acknowledgements arrive.  This
package computes the resulting time-averaged age per node in closed form
(shifted-exponential links), finds the age-minimizing stopping threshold,
and cross-checks everything with a discrete-event Monte Carlo simulator.
"""

from .analytics import *
from .delay_models import *
from .experiments import *
from .simulator import *

__version__ = "0.16.0"
