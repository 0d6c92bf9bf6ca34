"""Population excess-risk estimation.

Under squared loss with centered Gaussian noise the excess risk of a
predictor f is exactly ||f - g||^2_{L^2(mu)}, so the Monte Carlo estimator
integrates the pointwise regret (f(X) - g(X))^2 over input samples only;
never sampling labels removes the noise variance from the estimator.

For bump interpolants on the uniform pure-noise model the same quantity has
a closed form (disjoint supports plus the bump scaling law), which serves
as the oracle the Monte Carlo path is checked against; in d = 1 a bump
the boundary clips takes :func:`sobolab.bump.band_integrals`.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bump import band_integrals, l2_modulus
from .errors import UnsupportedSpec
from .model import sample_points

_CHUNK = 65536


@dataclass(frozen=True)
class RiskEstimate:
    mean: float
    stderr: float
    samples: int
    method: str

    def within(self, other_value):
        """|mean - other_value| <= 3 stderr (stderr 0 means exact)."""
        return abs(self.mean - other_value) <= 3.0 * self.stderr


def _mc_moments(value_fn, spec, m, seed, threads=1):
    """Chunked Monte Carlo first/second moments with fixed reduction order.

    Every chunk draws from its own substream keyed by (seed, chunk index),
    so the result is independent of the thread count.
    """
    if m < 100:
        raise UnsupportedSpec(f"need at least 100 Monte Carlo samples, got {m}")
    m = int(m)
    starts = list(range(0, m, _CHUNK))

    def one(job):
        index, start = job
        size = min(_CHUNK, m - start)
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        xs = sample_points(spec, size, rng)
        vals = value_fn(xs, rng)
        return float(np.sum(vals)), float(np.sum(vals * vals)), size

    jobs = list(enumerate(starts))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(one, jobs))
    else:
        parts = [one(job) for job in jobs]
    total = 0.0
    total_sq = 0.0
    count = 0
    for s, s2, c in parts:
        total += s
        total_sq += s2
        count += c
    mean = total / count
    if count > 1:
        var = max(total_sq - count * mean * mean, 0.0) / (count - 1)
    else:
        var = 0.0
    return mean, math.sqrt(var / count), count


def excess_risk_mc(predictor, spec, m, seed, threads=1):
    """(1/m) sum_j (predictor(X_j) - g(X_j))^2 over X_j ~ mu_x."""
    def values(xs, _rng):
        return (np.asarray(predictor(xs)) - spec.g_values(xs)) ** 2

    mean, stderr, count = _mc_moments(values, spec, m, seed, threads=threads)
    return RiskEstimate(mean=mean, stderr=stderr, samples=count,
                        method="monte-carlo")


def bayes_risk_mc(spec, m, seed, threads=1):
    """Monte Carlo estimate of the Bayes risk E[sigma(X)^2]."""
    def values(xs, _rng):
        return np.asarray(spec.sigma_sq_values(xs), dtype=float)

    mean, stderr, count = _mc_moments(values, spec, m, seed, threads=threads)
    return RiskEstimate(mean=mean, stderr=stderr, samples=count,
                        method="monte-carlo")


def excess_risk_semianalytic(f, spec):
    """Exact L^2(mu) risk of a bump interpolant on uniform pure noise.

    With g = 0 and uniform density, disjoint supports give

        ||f||^2_{L^2(mu)} = sum_i y_i^2 integral_Omega psi_i^2 / |Omega|,

    where interior bumps contribute the scaled modulus r_i^d M_2 exactly.
    In d = 1 a bump the boundary clips contributes the length of its
    plateau |x - c_i| <= r_i / 2 inside Omega plus r_i times its band
    integrals of phi(s^2)^2 there, all such bumps in one call.
    """
    if spec.ground_truth is not None:
        raise UnsupportedSpec("semi-analytic risk requires ground truth g = 0")
    if spec.density != "uniform":
        raise UnsupportedSpec("semi-analytic risk requires the uniform density")
    d = f.dim
    reach = np.linalg.norm(f.centers, axis=1) + f.radii
    crossing = reach > spec.radius
    if np.any(crossing) and d != 1:
        raise UnsupportedSpec(
            "supports crossing the boundary are only handled in d = 1"
        )
    m2 = l2_modulus(d)
    interior = ~crossing
    value = float(np.sum(
        f.weights[interior] ** 2 * f.radii[interior] ** d)) * m2
    if crossing.any():
        c, r = f.centers[crossing, 0], f.radii[crossing]
        end = np.full(len(c), spec.radius)
        bump, band = band_integrals("L^p", c, r, -end, end, 2.0)
        plateau = np.maximum(np.minimum(c + r / 2.0, end)
                             - np.maximum(c - r / 2.0, -end), 0.0)
        clipped = plateau + r * np.bincount(bump, weights=band,
                                            minlength=len(c))
        value += float(np.sum(f.weights[crossing] ** 2 * clipped))
    return RiskEstimate(mean=value / spec.volume, stderr=0.0, samples=0,
                        method="semi-analytic")
