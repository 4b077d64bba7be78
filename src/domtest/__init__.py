"""Rank-based stochastic dominance testing with bootstrap critical values.

The package tests whether one distribution stochastically dominates another
using the one-sided Wilcoxon-Mann-Whitney area statistic (or the one-sided
Kolmogorov-Smirnov supremum), with critical values from a multinomial-weight
bootstrap that supports both independent samples and matched pairs. A
contact-set screen on the bootstrap draws, controlled by the tuning
parameter ``tau``, trades a more aggressive critical value for extra power;
``tau = inf`` gives the plain bootstrap. A Monte Carlo driver reproduces
rejection-rate studies for parametric dominance-curve families.

Each module's ``__all__`` lists its public names; the package exports their
union.
"""

__version__ = "0.1.0"

from . import bootstrap, limitdist, odc, simulate, stats
from .bootstrap import *
from .limitdist import *
from .odc import *
from .simulate import *
from .stats import *

__all__ = ["__version__"]
__all__ += bootstrap.__all__
__all__ += limitdist.__all__
__all__ += odc.__all__
__all__ += simulate.__all__
__all__ += stats.__all__
