"""Estimation of discrete distributions under l1 loss.

Estimators (empirical and hard-thresholding), exact and Monte-Carlo risk
computation, closed-form minimax bounds, and the worst-case families and
Bayes-risk oracles needed to verify them at desk scale.
"""

from .bounds import (BoundValue, ChernoffTails, HighDimParams,
                     adell_jodra_tv_bound, bayes_risk_two_point_piecewise,
                     chernoff_tails, classical_constant, hoeffding_bound,
                     minimax_entropy_lower, minimax_lower_hd, mle_entropy_lower,
                     mle_entropy_upper, mle_upper_simple, mle_upper_tight,
                     simplex_lower, threshold_upper)
from .core import CompressedFamily, CountHistogram, ProbabilityVector, entropy
from .estimators import (DEFAULT_ETA, CoordinatewiseEstimator, ThresholdConfig,
                         empirical_estimator, threshold_estimator, threshold_level)
from .exact import (BinomialSpec, PoissonPair, binomial_expectation,
                    binomial_mad_exact, estimator_risk_exact, poisson_tv_exact)
from .families import (CompositeDraw, CompositePrior, EntropyBallBayesRisk,
                       EntropyBallFamily, TwoPointPrior, assembled_minimax_lower_hd,
                       bayes_risk_entropy_ball, bayes_risk_entropy_ball_constrained,
                       bayes_risk_two_point, entropy_ball_family,
                       sample_from_composite_prior, two_point_prior)
from .montecarlo import (McConfig, McRiskEstimate, derive_replicate_seed,
                         mc_risk, sample_multinomial)

__version__ = "0.1.0"
