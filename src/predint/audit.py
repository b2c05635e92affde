"""Executable coverage-proof machinery: residual matrices and strange sets.

For a sample of n+1 rows (training rows plus one test row), fit every
pairwise-deleted model mu_{-(i,j)} and form the (n+1) x (n+1) matrix

    R_ij = | Y_i - mu_{-(i,j)}(X_i) |,   R_ii = +inf.

Row i of the comparison matrix records which pairwise contests row i loses
badly: A_ij = 1{R_ij > R_ji} (plus variant) or 1{min_j' R_ij' > R_ji}
(minmax variant). A row is "strange" when it wins at least (1-alpha)(n+1)
contests. Counting arguments bound how many strange rows can exist, and a
test row not covered by the matching interval is always strange; the audit
checks both facts on concrete instances, comparing counts with thresholds in
exact integer arithmetic on the level's ratio p/q.

Everything here refits each pairwise model (only the row sort is shared);
intended for n + 1 up to a few dozen rows. The audited intervals come from
the library's ``build_loo_cache``, so an instance costs n(n+3)/2 fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, gen_gaussian_linear
from .errors import ConfigError, _require_int, _require_type
from .intervals import (
    IntervalSpec,
    PredictionInterval,
    build_loo_cache,
    jackknife_minmax,
    jackknife_plus,
)
from .quantiles import _check_alpha
from .regressors import Regressor, canonical_order
from .rng import derive_seed

__all__ = [
    "residual_matrix",
    "comparison_matrix",
    "strange_set",
    "AuditReport",
    "audit_instance",
    "run_audit",
    "VARIANTS",
]

VARIANTS = ("plus", "minmax", "both")


def residual_matrix(data: Dataset, regressor: Regressor) -> np.ndarray:
    """The pairwise-deletion residual matrix with +inf on the diagonal: one fit
    of mu_{-(i,j)} per unordered pair i < j, read at rows i and j."""
    _require_type("data", data, Dataset)
    _require_type("regressor", regressor, Regressor)
    if data.n < 3:
        raise ConfigError("residual matrix needs at least 3 rows")
    X, y = data.features, data.responses
    order = canonical_order(X, y)  # restricted to a subset: the subset's own order
    R = np.full((data.n, data.n), math.inf)
    for i in range(data.n):
        for j in range(i + 1, data.n):
            model = regressor._fit_rows(X, y, order[(order != i) & (order != j)])
            R[i, j], R[j, i] = np.abs(y[[i, j]] - model.predict_many(X[[i, j]]))
    return R


def comparison_matrix(R: np.ndarray, variant: str = "plus") -> np.ndarray:
    """0/1 contest matrix from a residual matrix.

    plus:   A_ij = 1{ R_ij > R_ji }
    minmax: A_ij = 1{ min_j' R_ij' > R_ji }
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ConfigError("residual matrix must be square")
    if variant == "plus":
        A = R > R.T
    elif variant == "minmax":
        A = R.min(axis=1, keepdims=True) > R.T
    else:
        raise ConfigError(f"variant must be 'plus' or 'minmax', got {variant!r}")
    np.fill_diagonal(A, False)
    return A.astype(int)


def strange_set(A: np.ndarray, alpha: float) -> list[int]:
    """Row indices whose contest-win count reaches (1 - alpha)(n + 1).

    With alpha = p/q the test is ``wins * q >= (q - p) * (n + 1)``, exact
    integer arithmetic, never floating-point.
    """
    p, q = _check_alpha(alpha)
    A = np.asarray(A)
    m = A.shape[0]  # m = n + 1
    threshold = (q - p) * m
    return [i for i, wins in enumerate(A.sum(axis=1).tolist()) if wins * q >= threshold]


@dataclass
class AuditReport:
    """Outcome of auditing one (n+1)-row instance."""

    n: int
    alpha: float
    variant: str
    strange_plus: list[int] = field(default_factory=list)
    strange_minmax: list[int] = field(default_factory=list)
    interval_plus: PredictionInterval | None = None
    interval_minmax: PredictionInterval | None = None
    covered_plus: bool | None = None
    covered_minmax: bool | None = None
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def audit_instance(
    data: Dataset, regressor: Regressor, alpha: float, variant: str = "both"
) -> AuditReport:
    """Check the counting bounds and the noncoverage-implies-strange facts.

    ``data`` holds the n training rows followed by the test row. Checks, per
    variant:

    * plus:   |S| < 2 alpha (n+1), and if the test response lies outside the
      jackknife+ interval of ``build_loo_cache`` on the n training rows,
      whose fits should be the (i, test) fits, the test row is in S.
    * minmax: |S| <= alpha (n+1), with the analogous implication for the
      minmax interval.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if _require_type("data", data, Dataset).n < 3:  # residual_matrix checks the regressor
        raise ConfigError("audit needs at least 3 rows (2 train + 1 test)")
    p, q = _check_alpha(alpha)

    m = data.n            # rows including the test point
    n = m - 1             # training rows
    last = m - 1
    R = residual_matrix(data, regressor)
    report = AuditReport(n=n, alpha=alpha, variant=variant)

    # The intervals come from the library's leave-one-out fits of the n
    # training rows (n more fits), checked against the direct (i, test) refits.
    cache = build_loo_cache(data.head(n), regressor)
    spec = IntervalSpec(alpha)
    x_test = data.features[last]
    y_test = data.responses[last]

    # Per variant: the bound on |S| * q (the counting bound), and its interval.
    for name, limit, bound, builder, label in (
        ("plus", 2 * p * m - 1, f"fewer than 2*alpha*(n+1) = {float(2 * alpha * m)}",
         jackknife_plus, "jackknife+"),
        ("minmax", p * m, f"at most alpha*(n+1) = {float(alpha * m)}", jackknife_minmax, "minmax"),
    ):
        if variant not in (name, "both"):
            continue
        strange = strange_set(comparison_matrix(R, name), alpha)
        if len(strange) * q > limit:
            report.violations.append(f"{name} strange set has {len(strange)} rows, needs {bound}")
        interval = builder(cache, spec, x_test)
        covered = interval.contains(y_test)
        if not covered and last not in strange:
            report.violations.append(
                f"test row escaped the {label} interval without being strange ({name})")
        setattr(report, f"strange_{name}", strange)
        setattr(report, f"interval_{name}", interval)
        setattr(report, f"covered_{name}", covered)

    return report


def run_audit(
    trials: int,
    n: int,
    alpha: float,
    regressor: Regressor,
    variant: str = "both",
    seed: int = 0,
    d: int = 2,
):
    """Audit ``trials`` random Gaussian-linear instances of n train rows + 1.

    Returns a list of violation records (empty means the audit passed); each
    record carries the full instance so it can be replayed.
    """
    _require_int("trials", trials, 1)
    _require_int("d", d, 1)
    _require_type("regressor", regressor, Regressor)
    if _require_int("n", n) > 30:
        raise ConfigError("audit is limited to n <= 30 (pairwise fits are direct)")
    if n < 2:
        raise ConfigError("audit needs n >= 2 training rows")
    violations = []
    for t in range(trials):
        data, _ = gen_gaussian_linear(n + 1, d, derive_seed(seed, "audit", t))
        report = audit_instance(data, regressor, alpha, variant)
        if not report.ok:
            violations.append({
                "trial": t, "alpha": alpha, "variant": variant, "regressor": regressor.token,
                "features": data.features.tolist(), "responses": data.responses.tolist(),
                "violations": report.violations,
            })
    return violations
