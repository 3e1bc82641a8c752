"""Data-partitioning validation strategies with a reproducible harness.

The package implements three ways to estimate a model's performance on
a dataset: simple random subsampling with hold-out scoring, lambda
weighted k-fold cross-validation, and a compounding scheme that repeats
subsample-and-validate iterations and averages them under a shrinkage
factor. A small theory kit provides the matching variance budgets and
concentration bounds, and the harness reruns the whole comparison grid
deterministically from a single seed.

Each module's ``__all__`` is the only statement of its public API: the
package exports the union of those lists, in the order below.
``cli`` and ``selftest`` stay out of the package namespace.
"""

from .errors import *
from .rng import *
from .data import *
from .sampling import *
from .estimator import *
from .kfold import *
from .fsv import *
from .theory import *
from .metrics import *
from .harness import *

__version__ = "0.1.0"

# each import above also binds its module here, by the module's name
__all__ = ["__version__"] + [
    name
    for module in (
        errors, rng, data, sampling, estimator, kfold, fsv, theory, metrics,
        harness,
    )
    for name in module.__all__
]
