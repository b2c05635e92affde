"""(epsilon, nu) algorithmic-stability estimation and coverage lower bounds.

An algorithm is out-of-sample (epsilon, nu)-stable at sample size n when
removing one training point moves the prediction at a fresh point by more
than epsilon with probability at most nu; the in-sample variant evaluates at
the retained training point instead. ``estimate_stability`` measures the
violation frequency by Monte Carlo, one indicator per trial, and
``coverage_lower_bounds`` turns (alpha, nu, n, K) into the guaranteed
coverage floors of the inflated and assumption-free interval methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .dataset import Dataset
from .errors import ConfigError, DataError, _require_finite, _require_int, _require_type
from .quantiles import _check_alpha
from .regressors import Regressor
from .rng import derive_seed

__all__ = ["StabilityEstimate", "estimate_stability", "coverage_lower_bounds", "KINDS"]

KINDS = ("out_of_sample", "in_sample")

# sampler(size, seed) -> Dataset of i.i.d. rows
Sampler = Callable[[int, int], Dataset]


@dataclass(frozen=True)
class StabilityEstimate:
    """Monte Carlo estimate of the stability violation rate nu.

    The estimate is tied to the sample size ``n`` it was measured at;
    stability at one n says nothing about another.
    """

    kind: str
    epsilon: float
    n: int
    trials: int
    violations: int

    @property
    def nu_hat(self) -> float:
        return self.violations / self.trials

    @property
    def se(self) -> float:
        p = self.nu_hat
        return math.sqrt(p * (1.0 - p) / self.trials)


def estimate_stability(
    regressor: Regressor,
    sampler: Sampler,
    n: int,
    epsilon: float,
    kind: str = "out_of_sample",
    trials: int = 1000,
    seed: int = 0,
) -> StabilityEstimate:
    """Estimate nu = P(|mu_hat(x) - mu_hat_minus_one(x)| > epsilon).

    Each trial draws n + 1 fresh rows, fits on the first n and on rows 2..n
    (the first row dropped; by exchangeability the choice of dropped index is
    irrelevant), then compares predictions at the held-out row
    (out_of_sample) or at the dropped row itself (in_sample). A prediction
    that is not finite is a :class:`DataError`, never a silent non-violation.
    """
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    _require_type("regressor", regressor, Regressor)
    _require_finite("epsilon", epsilon, 0)
    _require_int("n", n, 2)
    _require_int("trials", trials, 1)

    violations = 0
    for t in range(trials):
        data = sampler(n + 1, derive_seed(seed, f"stability/{kind}", t))
        if not isinstance(data, Dataset):
            raise ConfigError(f"sampler must return a Dataset, got {type(data).__name__}")
        if data.n != n + 1:
            raise ConfigError("sampler returned the wrong number of rows")
        full = regressor.fit(data.head(n))
        dropped = regressor.fit(data.take(range(1, n)))
        x = data.features[n] if kind == "out_of_sample" else data.features[0]
        both = full.predict(x), dropped.predict(x)
        if not all(map(math.isfinite, both)):
            raise DataError(f"trial {t}: the predictions {both} at the compared row are not finite")
        if abs(both[0] - both[1]) > epsilon:
            violations += 1
    return StabilityEstimate(kind, epsilon, n, trials, violations)


def coverage_lower_bounds(alpha: float, nu: float, n: int, k_folds: int) -> dict:
    """Guaranteed coverage floors at level alpha for the interval methods.

    Assumption-free entries ignore nu; the ``*_inflated`` entries assume the
    regressor is (epsilon, nu)-stable of the matching kind and apply to the
    correspondingly inflated intervals (epsilon for the jackknife, 2 epsilon
    for jackknife+ and naive). ``cv_plus`` is the K-fold bound; its slack
    term never exceeds sqrt(2/n), recorded as ``cv_plus_floor``.
    """
    _check_alpha(alpha)
    _check_alpha(nu, "nu")
    _require_finite("n", _require_int("n", n))  # an n past float range overflows the slack
    if n < 1 or not 1 <= _require_int("k_folds", k_folds) <= n:
        raise ConfigError(f"need 1 <= k_folds <= n, got k_folds={k_folds}, n={n}")
    alpha, nu = float(alpha), float(nu)  # a Decimal level meets float terms

    root = math.sqrt(nu)
    slack = min(
        2.0 * (1.0 - 1.0 / k_folds) / (n / k_folds + 1.0),
        (1.0 - k_folds / n) / (k_folds + 1.0),
    )
    return {
        "jackknife_plus": 1.0 - 2.0 * alpha,
        "jackknife_minmax": 1.0 - alpha,
        "split_conformal": 1.0 - alpha,
        "cv_plus": 1.0 - 2.0 * alpha - slack,
        "cv_plus_floor": 1.0 - 2.0 * alpha - math.sqrt(2.0 / n),
        "jackknife_eps_inflated": 1.0 - alpha - 2.0 * root,
        "jackknife_plus_2eps_inflated": 1.0 - alpha - 4.0 * root,
        "naive_2eps_inflated": 1.0 - alpha - 4.0 * root,
    }
