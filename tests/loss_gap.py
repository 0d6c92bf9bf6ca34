"""A second Monte Carlo estimator of the excess risk, for tests only.

``risk.excess_risk_mc`` integrates the regret (f(X) - g(X))^2 and never
samples labels.  :func:`excess_risk_loss_gap_mc` samples them and averages
the loss gap (f(X) - Y)^2 - (g(X) - Y)^2 instead.  By total expectation
both have the same target, so ``tests/test_risk.py`` checks the
variance-reduced estimator against this one.
"""

import numpy as np

from sobolab.risk import RiskEstimate, _mc_moments


def excess_risk_loss_gap_mc(predictor, spec, m, seed):
    """Joint estimate of E[loss(predictor)] - E[loss(g)], labels sampled.

    The label noise comes from one generator of its own, chunk after chunk,
    so the chunks run on one thread.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1abe1]))

    def values(xs):
        g = spec.g_values(xs)
        y = g + rng.standard_normal(len(xs)) * np.sqrt(spec.sigma_sq_values(xs))
        pred = np.asarray(predictor(xs))
        return (pred - y) ** 2 - (g - y) ** 2

    mean, stderr, count = _mc_moments(values, spec, m, seed)
    return RiskEstimate(mean=mean, stderr=stderr, samples=count,
                        method="monte-carlo-loss-gap")
