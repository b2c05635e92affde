"""Distribution-free prediction intervals from leave-one-out and K-fold fits.

The package provides the interval constructions (naive, split, jackknife,
jackknife+, jackknife-minmax, CV+, cross-conformal, full conformal), the
counting machinery behind their coverage guarantees, (epsilon, nu) stability
estimation, known failure-case regressors, and a Monte Carlo coverage
harness. See the ``predint`` console script for the command-line surface.
"""

from . import audit, dataset, errors, experiments, intervals, quantiles, regressors, rng, stability
from .audit import *
from .dataset import *
from .errors import *
from .experiments import *
from .intervals import *
from .quantiles import *
from .regressors import *
from .rng import *
from .stability import *

__version__ = "0.1.0"

# Each layer's __all__ is its one list of public names; the package re-exports
# them all, layer by layer.
__all__ = [
    "__version__",
    *errors.__all__,
    *rng.__all__,
    *quantiles.__all__,
    *dataset.__all__,
    *regressors.__all__,
    *intervals.__all__,
    *audit.__all__,
    *stability.__all__,
    *experiments.__all__,
]
