"""Estimation of discrete distributions under l1 loss.

Estimators (empirical and hard-thresholding), exact and Monte-Carlo risk
computation, closed-form minimax bounds, and the worst-case families and
Bayes-risk oracles needed to verify them at desk scale.
"""

from .bounds import *
from .core import *
from .estimators import *
from .exact import *
from .families import *
from .montecarlo import *

__version__ = "0.1.0"
