"""A second Monte Carlo estimator of the excess risk, for tests only.

``risk.excess_risk_mc`` integrates the regret (f(X) - g(X))^2 and never
samples labels.  :func:`excess_risk_loss_gap_mc` samples them and averages
the loss gap (f(X) - Y)^2 - (g(X) - Y)^2 instead.  By total expectation
both have the same target, so ``tests/test_risk.py`` checks the
variance-reduced estimator against this one.
"""

import numpy as np

from sobolab.risk import RiskEstimate, _mc_moments


def excess_risk_loss_gap_mc(predictor, spec, m, seed, threads=1):
    """Joint estimate of E[loss(predictor)] - E[loss(g)], labels sampled."""
    def values(xs, rng):
        g = spec.g_values(xs)
        y = g + rng.standard_normal(len(xs)) * np.sqrt(spec.sigma_sq_values(xs))
        pred = np.asarray(predictor(xs))
        return (pred - y) ** 2 - (g - y) ** 2

    mean, stderr, count = _mc_moments(values, spec, m, seed, threads=threads)
    return RiskEstimate(mean=mean, stderr=stderr, samples=count,
                        method="monte-carlo-loss-gap")
