"""Prediction intervals and sets from leave-one-out and K-fold residuals.

Eight constructions share the two corrected quantile operators. Naive
(in-sample residual quantile around the full fit) and split (holdout residual
quantile around the split fit) are built only by
:func:`predint.experiments.evaluate_methods`. The other six are public here;
the four intervals take ``(cache, spec, x)``, ``cache`` a :class:`LooCache`:

* ``jackknife``          - leave-one-out residual quantile around the full fit
* ``jackknife_plus``     - quantiles of per-point leave-one-out predictions
                           shifted by their own residuals
* ``jackknife_minmax``   - residual quantile around the extreme LOO predictions
* ``cv_plus``            - jackknife+ with K-fold instead of leave-one-out fits
* ``cross_conformal_set``- exact rank-test membership set from one sorted
                           sweep of the 2n breakpoints per query: O(n log n),
                           plus O(n) per breakpoint between two rejected
                           gaps; no ``np.unique``
* ``full_conformal_set`` - refit on the augmented sample per candidate y

All intervals are closed. Empty intervals (lower > upper) are kept explicit
rather than silently swapped. The interval methods accept an epsilon
inflation and an asymmetric (signed-residual) mode; the two set-valued
methods are rank tests on absolute residuals and reject both options. Both
turn their mask of accepted cells (sweep gaps and breakpoints, or grid points)
into components through one run merger, ``_runs_to_set``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DataError, _require_int, _require_real
from .quantiles import (
    _check_alpha,
    _exact_ratio,
    _select_inplace,
    _SortedGroups,
    lower_index,
    lower_quantile,
    upper_index,
    upper_quantile,
)
from .regressors import FittedModel, Regressor, _fold_sizes, canonical_order
from .rng import _permutation

__all__ = [
    "IntervalSpec",
    "GridSpec",
    "PredictionInterval",
    "PredictionSet",
    "LooCache",
    "build_loo_cache",
    "jackknife",
    "jackknife_plus",
    "jackknife_minmax",
    "cv_plus",
    "cross_conformal_set",
    "full_conformal_set",
    "METHOD_TOKENS",
]

METHOD_TOKENS = (
    "naive",
    "split",
    "jackknife",
    "jackknife+",
    "jackknife-mm",
    "cv+",
    "cross-conformal",
    "full-conformal",
)


@dataclass(frozen=True)
class IntervalSpec:
    """Target level and mode for an interval construction.

    Symmetric mode uses absolute residuals at level ``alpha``. Asymmetric mode
    splits the budget into ``alpha_lo`` (lower tail) and ``alpha_hi`` (upper
    tail), both positive and summing to alpha, and works with signed
    residuals. ``inflation_eps`` widens each endpoint outward by eps. Levels
    are real numbers (not bools or strings), read at their exact values.
    """

    alpha: float
    alpha_lo: float | None = None
    alpha_hi: float | None = None
    inflation_eps: float = 0.0

    def __post_init__(self):
        p, q = _check_alpha(self.alpha)
        if not (math.isfinite(_require_real("inflation_eps", self.inflation_eps))
                and self.inflation_eps >= 0.0):
            raise ConfigError(f"inflation_eps must be finite and >= 0, got {self.inflation_eps}")
        if (self.alpha_lo is None) != (self.alpha_hi is None):
            raise ConfigError("asymmetric mode needs both alpha_lo and alpha_hi")
        if self.alpha_lo is not None:
            try:
                (lo_p, lo_q), (hi_p, hi_q) = map(_exact_ratio, (self.alpha_lo, self.alpha_hi))
                positive = lo_p > 0 and hi_p > 0
            except ConfigError:  # not a real number, or NaN
                positive = False
            if not positive:
                raise ConfigError("alpha_lo and alpha_hi must be positive real numbers, "
                                  f"got {self.alpha_lo!r} and {self.alpha_hi!r}")
            # A float tolerance on the correctly rounded values: for float
            # levels, the same sum and difference as on the levels themselves.
            total = lo_p / lo_q + hi_p / hi_q
            if abs(total - p / q) > 1e-12:
                raise ConfigError(
                    f"alpha_lo + alpha_hi = {total} does not match alpha = {self.alpha}"
                )

    @property
    def asymmetric(self) -> bool:
        return self.alpha_lo is not None


@dataclass(frozen=True)
class GridSpec:
    """Candidate grid for full conformal: ``num_points`` evenly spaced values.

    Bounds default to the observed training response range.
    """

    num_points: int = 200
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self):
        if _require_int("num_points", self.num_points) < 2:
            raise ConfigError(f"grid needs at least 2 points, got {self.num_points}")
        for bound in (self.lower, self.upper):
            if bound is not None and not math.isfinite(_require_real("grid bounds", bound)):
                raise ConfigError(f"grid bounds must be finite, got {bound}")
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise ConfigError("grid lower bound exceeds upper bound")


@dataclass(frozen=True)
class PredictionInterval:
    """A closed interval [lower, upper] on the extended real line.

    ``lower > upper`` encodes the empty interval; endpoints are never swapped.
    """

    lower: float
    upper: float

    @property
    def is_empty(self) -> bool:
        return self.lower > self.upper

    @property
    def width(self) -> float:
        if self.is_empty:
            return 0.0
        return self.upper - self.lower

    def contains(self, y: float) -> bool:
        return bool(not self.is_empty and self.lower <= y <= self.upper)


@dataclass(frozen=True)
class PredictionSet:
    """A finite union of disjoint closed intervals, sorted by lower endpoint.

    Canonical form: empties dropped, overlapping or touching components
    merged. May be empty (no components) or all of R (one infinite interval).
    """

    intervals: tuple[PredictionInterval, ...]

    @classmethod
    def from_intervals(cls, items) -> "PredictionSet":
        live = sorted(
            (iv for iv in items if not iv.is_empty), key=lambda iv: (iv.lower, iv.upper)
        )
        merged: list[PredictionInterval] = []
        for iv in live:
            if merged and iv.lower <= merged[-1].upper:
                if iv.upper > merged[-1].upper:
                    merged[-1] = PredictionInterval(merged[-1].lower, iv.upper)
            else:
                merged.append(iv)
        return cls(tuple(merged))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def width(self) -> float:
        return float(sum(iv.width for iv in self.intervals))

    def contains(self, y: float) -> bool:
        return any(iv.contains(y) for iv in self.intervals)


class LooCache:
    """Fold models and residuals, shared across interval constructions.

    The cache fits its own models: ``LooCache(train, regressor, fold_of)``
    calls :meth:`Regressor.fit_folds` once on its checked partition, so
    ``models[model_of[i]]`` is fitted without row i's fold by construction,
    and ``signed_residuals[i]`` is row i's response minus its prediction
    there. ``k_folds`` counts the labels of ``fold_of`` that hold a row; at
    ``k_folds == n`` the folds are singletons: the classic leave-one-out fits.
    ``fold_of=None`` is that partition with no label vector: the cache holds
    none, and ``fold_of`` reads as ``arange(n)``, built on first read.
    The full model, the absolute ``residuals``, each model's residuals sorted
    for CV+ (absolute or signed, by the spec's mode) and each residual
    quantile are computed on first use only. Immutable once built.

    ``fit_folds`` is an override point, so its result is checked: ``model_of``
    (integer) and ``in_sample`` are 1-D arrays of length n and every model is
    some row's (``ConfigError``), and the in-sample residuals are finite
    (:class:`DataError`). Each query checks the predictions of the distinct
    models at x (one value per entry of ``models``, not one per row) and
    raises ``DataError`` unless they are finite. Together the two finiteness
    checks keep NaN out of every vector ``prediction +- residual``, so queries
    need no per-row NaN scan.
    """

    def __init__(self, train, regressor, fold_of=None):
        n = train.n
        if fold_of is None:
            self.k_folds = n
        else:
            fold_of = np.asarray(fold_of)
            self.k_folds = int(np.count_nonzero(_fold_sizes(fold_of, n)))
        models, model_of, in_sample = regressor.fit_folds(train, fold_of)
        if not (isinstance(model_of, np.ndarray) and model_of.shape == (n,)
                and np.issubdtype(model_of.dtype, np.integer)):
            raise ConfigError(f"model_of must be a 1-D integer array of length {n}")
        if not (isinstance(in_sample, np.ndarray) and in_sample.shape == (n,)):
            raise ConfigError(f"in_sample must be a 1-D array of length {n}")
        self.train = train
        self.regressor = regressor
        self.models = models
        # np.take copies an index array that is read-only or not intp on every
        # call, so the buffer path gathers through a private writeable intp
        # reference (``_gather_index``); the public index arrays are frozen views.
        self._model_index = model_of
        self._fold_of, self.model_of = fold_of, model_of.view()
        if model_of.min() < 0 or model_of.max() >= len(models):
            raise ConfigError("model_of must index into models")
        if not np.bincount(model_of, minlength=len(models)).all():
            raise ConfigError("model_of must use every one of models")
        self.signed_residuals = train.responses - in_sample
        if not np.isfinite(self.signed_residuals).all():
            raise DataError("the fold models' in-sample residuals are not finite")
        for arr in (self.signed_residuals, self.model_of):
            arr.flags.writeable = False
        self._quantiles = _ResidualQuantiles(self.signed_residuals)

    @property
    def n(self) -> int:
        return self.train.n

    @functools.cached_property
    def fold_of(self) -> np.ndarray:
        """Row i's fold label, read-only."""
        fold_of = np.arange(self.n) if self._fold_of is None else self._fold_of.view()
        fold_of.flags.writeable = False
        return fold_of

    @functools.cached_property
    def full_model(self) -> FittedModel:
        return self.regressor.fit(self.train)

    @functools.cached_property
    def residuals(self) -> np.ndarray:
        """Absolute residuals ``|signed_residuals|``, read-only."""
        residuals = np.abs(self.signed_residuals)
        residuals.flags.writeable = False
        return residuals

    @functools.cached_property
    def _gather_index(self) -> np.ndarray:
        # A copy only for narrower indices, such as parity's one byte a row.
        return self._model_index.astype(np.intp, copy=False)

    @functools.cached_property
    def _sorted_absolute(self) -> _SortedGroups:
        return self._sorted_groups(absolute=True)

    @functools.cached_property
    def _sorted_signed(self) -> _SortedGroups:
        return self._sorted_groups(absolute=False)

    def _sorted_groups(self, absolute: bool) -> _SortedGroups:
        """Each model's rows' residuals, sorted; one mask and copy per model."""
        groups = []
        for g in range(len(self.models)):
            values = self.signed_residuals[self.model_of == g]
            if absolute:
                np.abs(values, out=values)
            values.sort()
            groups.append(values)
        return _SortedGroups(groups)

    def model_predictions(self, x) -> np.ndarray:
        """Predictions of the distinct models at x, one per entry of ``models``.

        Raises :class:`DataError` unless x is a query point of the training
        set's dimension and every prediction is finite.
        """
        x = _query_point(x, self.train.d)
        per_model = np.array([m.predict(x) for m in self.models], dtype=float)
        if not np.isfinite(per_model).all():
            raise DataError("fold-model predictions at the query point are not finite")
        return per_model

    def predictions_at(self, x) -> np.ndarray:
        """Per-row fold predictions mu_{-fold(i)}(x), one entry per row."""
        return self.model_predictions(x)[self.model_of]


def build_loo_cache(
    train: Dataset,
    regressor: Regressor,
    k_folds: int | None = None,
    *,
    fold_seed: int = 0,
    strict: bool = False,
) -> LooCache:
    """Fit the K fold models (K defaults to n, i.e. leave-one-out) through
    :meth:`Regressor.fit_folds`.

    The fold partition is dealt uniformly at random over the canonical row
    order, so it is a function of row content, not row order: the deal is
    the stable argsort of n uniforms of ``random.Random(fold_seed)``. At
    K = n every fold is a singleton, so ``fold_seed`` is unused. With
    ``strict`` set, K must divide n; otherwise fold sizes may differ by
    one and a warning is emitted. For an explicit partition ``fold_of``, build
    ``LooCache(train, regressor, fold_of)``.
    """
    n = train.n
    if n < 1:
        raise ConfigError("cannot build a cache from an empty training set")
    k = n if k_folds is None else _require_int("k_folds", k_folds)
    if not 1 <= k <= n:
        raise ConfigError(f"k_folds must be in [1, {n}], got {k}")

    if k == n:
        fold_of = None
    else:
        if n % k != 0:
            if strict:
                raise ConfigError(f"k_folds={k} does not divide n={n} (strict mode)")
            warnings.warn(
                f"k_folds={k} does not divide n={n}; fold sizes will differ by one",
                stacklevel=2,
            )
        order = canonical_order(train.features, train.responses)
        deal = order[_permutation(fold_seed, n, "fold_seed")]
        fold_of = np.empty(n, dtype=int)
        fold_of[deal] = np.repeat(np.arange(k), n // k + (np.arange(k) < n % k))

    return LooCache(train, regressor, fold_of)


class _ResidualQuantiles:
    """``spec -> (q_lo, q_hi)`` for one residual vector, computed once per
    level: the signed-residual quantiles at alpha_lo and alpha_hi, or -q and q
    for q the absolute one at alpha."""

    def __init__(self, signed_residuals):
        self.signed_residuals = signed_residuals
        self.memo: dict = {}

    def __call__(self, spec: IntervalSpec) -> tuple[float, float]:
        key = (spec.alpha, spec.alpha_lo, spec.alpha_hi)
        if key not in self.memo:
            if spec.asymmetric:
                self.memo[key] = (lower_quantile(self.signed_residuals, spec.alpha_lo),
                                  upper_quantile(self.signed_residuals, spec.alpha_hi))
            else:
                q = upper_quantile(np.abs(self.signed_residuals), spec.alpha)
                self.memo[key] = (-q, q)
        return self.memo[key]


def _query_point(x, d: int) -> np.ndarray:
    """x as a float vector, after checking that it is a finite 1-D vector of
    length d (:class:`DataError` otherwise)."""
    try:
        point = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise DataError(f"a query point must be a vector of {d} numbers, "
                        f"got a {type(x).__name__}") from None
    if point.shape != (d,):
        raise DataError(f"a query point must be a 1-D vector of {d} numbers, "
                        f"got shape {point.shape}")
    if not np.isfinite(point).all():
        raise DataError("a query point must be finite (no NaN or infinities)")
    return point


def _fixed_center_interval(center_lo, center_hi, quantiles, spec) -> PredictionInterval:
    """[center_lo + q_lo - eps, center_hi + q_hi + eps] for ``(q_lo, q_hi) =
    quantiles(spec)``."""
    q_lo, q_hi = quantiles(spec)
    eps = spec.inflation_eps
    return PredictionInterval(center_lo + q_lo - eps, center_hi + q_hi + eps)


def _about(model: FittedModel, quantiles, spec: IntervalSpec, x) -> PredictionInterval:
    """Residual-quantile interval around ``model``'s prediction at x, with the
    residual quantiles read from ``quantiles``, a :class:`_ResidualQuantiles`.

    Shared core of naive, split and jackknife: only the model and the residual
    source differ between the three.
    """
    center = model.predict(x)
    if not math.isfinite(center):
        raise DataError(f"the prediction at the query point is not finite, got {center}")
    return _fixed_center_interval(center, center, quantiles, spec)


def jackknife(cache: LooCache, spec: IntervalSpec, x) -> PredictionInterval:
    """Full-fit prediction plus a leave-one-out residual quantile."""
    _require_loo(cache, "jackknife")
    return _about(cache.full_model, cache._quantiles, spec, _query_point(x, cache.train.d))


# cv+ selects from each model's sorted residuals when the models have at
# least this many rows each on average. On a 2-vCPU Xeon a grouped endpoint
# costs about 20 us plus 5 to 8 us per model and a partition of the n-vector
# about 5 ns per row, so the two cost the same near n = 4000 + 1000 G; below
# the rule the buffer path is the faster or about as fast.
_GROUPED_ROWS_PER_MODEL = 4096


def cv_plus(cache: LooCache, spec: IntervalSpec, x) -> PredictionInterval:
    """Quantiles of the per-row fold predictions shifted by their residuals.

    With K = n folds this is exactly jackknife+; the two share this code path
    bit for bit. Each endpoint is an order statistic of the n candidates
    ``prediction - residual`` or ``prediction + residual``, one per row, from
    the prediction at x of the model fitted without that row's fold. When the
    cache has few models against n (at least ``_GROUPED_ROWS_PER_MODEL`` rows
    per model, as for parity's two models or K folds at large n), it is
    selected from each model's residuals, sorted once per cache, and a query
    builds no n-vector. Otherwise it is selected from one n-length work buffer,
    filled in place from the distinct models' predictions at x. Both paths
    compute every candidate with the same float operation and agree bit for
    bit.
    """
    if cache.k_folds < 2:
        raise ConfigError("cv+ needs at least 2 folds (K=1 is leave-all-out)")
    per_model = cache.model_predictions(x)
    n = cache.n
    if spec.asymmetric:
        k_lo, k_hi = lower_index(n, spec.alpha_lo), upper_index(n, spec.alpha_hi)
    else:
        k_lo, k_hi = lower_index(n, spec.alpha), upper_index(n, spec.alpha)
    # Symmetric endpoints are prediction -+ |residual|; asymmetric ones are
    # prediction + signed residual at both ends.
    subtract = not spec.asymmetric
    if len(cache.models) * _GROUPED_ROWS_PER_MODEL <= n:
        groups = cache._sorted_signed if spec.asymmetric else cache._sorted_absolute
        lo = groups.select(per_model, subtract, k_lo)
        hi = groups.select(per_model, False, k_hi)
    else:
        residuals = cache.signed_residuals if spec.asymmetric else cache.residuals
        buf = np.empty(n)

        def order_statistic(shift, k: int) -> float:
            """k-th smallest of shift(prediction_i, residual_i) over the rows."""
            # mode="clip" skips the bounds check, which with mode="raise" writes
            # through a hidden copy of ``out``; model_of was range-checked when
            # the cache was built.
            np.take(per_model, cache._gather_index, out=buf, mode="clip")
            shift(buf, residuals, out=buf)
            return _select_inplace(buf, k)

        lo = order_statistic(np.subtract if subtract else np.add, k_lo)
        hi = order_statistic(np.add, k_hi)
    eps = spec.inflation_eps
    return PredictionInterval(lo - eps, hi + eps)


def jackknife_plus(cache: LooCache, spec: IntervalSpec, x) -> PredictionInterval:
    _require_loo(cache, "jackknife+")
    return cv_plus(cache, spec, x)


def jackknife_minmax(cache: LooCache, spec: IntervalSpec, x) -> PredictionInterval:
    """Residual quantile around the extreme leave-one-out predictions."""
    _require_loo(cache, "jackknife-mm")
    m = cache.model_predictions(x)
    lo, hi = float(np.min(m)), float(np.max(m))
    return _fixed_center_interval(lo, hi, cache._quantiles, spec)


def _require_loo(cache: LooCache, name: str) -> None:
    if cache.n < 2:
        raise ConfigError(f"{name} needs at least 2 training rows")
    if cache.k_folds != cache.n:
        raise ConfigError(f"{name} needs a leave-one-out cache (k_folds == n)")


def _require_plain_spec(spec: IntervalSpec, name: str) -> None:
    if spec.asymmetric:
        raise ConfigError(f"{name} is a rank test on absolute residuals; "
                          "asymmetric mode is not defined")
    if spec.inflation_eps != 0.0:
        raise ConfigError(f"{name} does not define epsilon inflation")


# Breakpoints are tested against all n rows in blocks of about this many
# (breakpoint, row) pairs, at least one breakpoint a block. At n = 500 a block
# holds 4 breakpoints; blocks of 32 read 0.1 to 0.2 MB higher in peak RSS on
# the 500 x 20 scoring benchmark (2-vCPU Xeon VM, numpy 2.4).
_POINT_BLOCK = 2048


def _strict_needed(n: int, alpha, tau):
    """``need(equal)``, memoised: the fewest strict cases that accept a cell
    with ``equal`` equality cases, i.e. the least integer ``strict`` with
    strict + tau (1 + equal) > alpha (n + 1). That is
    floor(alpha (n + 1) - tau (1 + equal)) + 1, computed exactly in integers
    over the common denominator of the ratios alpha = a / b and tau = t / u."""
    t, u = _check_alpha(tau, "tau")
    a, b = _exact_ratio(alpha)
    threshold = a * (n + 1) * u

    @functools.cache
    def need(equal: int) -> int:
        return (threshold - t * (1 + equal) * b) // (b * u) + 1

    return need


def cross_conformal_set(
    cache: LooCache, spec: IntervalSpec, x, tau: float
) -> PredictionSet:
    """Exact membership set of the cross-conformal rank test.

    y belongs to the set iff

        (tau + #{i: |y - m_i| < R_i} + tau * #{i: |y - m_i| = R_i}) / (n + 1)
            > alpha

    with m_i the fold prediction at x for row i and R_i its residual. The
    count is piecewise constant between the breakpoints m_i +- R_i, so the
    predicate is decided exactly on every open gap and at every breakpoint,
    and adjacent accepted cells are merged. The returned set is the closure
    of the exact membership set (components are closed intervals).

    One sorted sweep of the breakpoints per query, with no ``np.unique``:
    O(n log n), plus O(n) for each breakpoint between two rejected gaps.
    """
    if cache.k_folds < 2:
        raise ConfigError("cross-conformal needs at least 2 folds")
    _require_plain_spec(spec, "cross-conformal")
    need = _strict_needed(cache.n, spec.alpha, tau)

    m = cache.predictions_at(x)
    r = cache.residuals
    lo, hi = m - r, m + r
    n = cache.n

    # Distinct breakpoints by a neighbour mask: np.unique imports numpy.ma.
    breaks = np.concatenate([lo, hi])
    breaks.sort()
    breaks = breaks[np.concatenate(([True], breaks[1:] != breaks[:-1]))]
    lo.sort()
    hi.sort()
    # Gap j lies between breakpoints j - 1 and j; gap 0 is left of them all
    # and gap N right of them all. On the gap right of b, row i counts iff
    # lo_i <= b < hi_i: the rank of b among the lo_i minus its rank among the
    # hi_i, exact because every lo_i and hi_i is a breakpoint. Where m_i + R_i
    # overflows to inf, gap N is (inf, inf) and counts 0 here, not the rows
    # with hi_i = inf; gap N - 1 counts them too, so the closed set is the same.
    lefts = np.concatenate(([-math.inf], breaks))
    gap_counts = np.searchsorted(lo, lefts, "right") - np.searchsorted(hi, lefts, "right")
    gap_ok = gap_counts >= need(0)

    # A breakpoint keeps the pointwise float test, since fl(fl(m_i + R_i) - m_i)
    # need not equal R_i. Next to an accepted gap it cannot change the closed
    # set, so only breakpoints between two rejected gaps are tested.
    point_ok = gap_ok[:-1] | gap_ok[1:]
    tested = np.flatnonzero(~point_ok)
    step = max(1, _POINT_BLOCK // n)
    for start in range(0, len(tested), step):
        idx = tested[start:start + step]
        dist = np.abs(breaks[idx, None] - m)
        strict = np.count_nonzero(dist < r, axis=1)
        equal = np.count_nonzero(dist == r, axis=1)
        point_ok[idx] = strict >= [need(e) for e in equal.tolist()]

    # Cells alternate gap, point, gap, ..., gap; cell c spans
    # [edges[(c + 1) // 2], edges[c // 2 + 1]], which with each edge listed
    # twice is [twice[c + 1], twice[c + 2]].
    cells = np.empty(2 * len(breaks) + 1, dtype=bool)
    cells[0::2] = gap_ok
    cells[1::2] = point_ok
    twice = np.repeat(np.concatenate((lefts, [math.inf])), 2)
    return _runs_to_set(cells, twice[1:-2], twice[2:-1])


def full_conformal_set(
    train: Dataset,
    regressor: Regressor,
    spec: IntervalSpec,
    x,
    grid: GridSpec | None = None,
) -> PredictionSet:
    """Refit-on-augmented-sample membership over a candidate grid.

    Each candidate y is added to the training set, the model is refit, and y
    is kept iff its own residual is at most the corrected quantile of the
    original rows' residuals under the refit model. Contiguous accepted grid
    points merge into closed intervals.
    """
    _require_plain_spec(spec, "full-conformal")
    if grid is None:
        grid = GridSpec()
    lo = grid.lower if grid.lower is not None else float(np.min(train.responses))
    hi = grid.upper if grid.upper is not None else float(np.max(train.responses))
    if lo > hi:
        raise ConfigError("grid lower bound exceeds upper bound")
    ys = np.linspace(lo, hi, grid.num_points)

    x = _query_point(x, train.d)
    aug_features = np.vstack([train.features, x])
    accepted = np.zeros(len(ys), dtype=bool)
    for idx, y in enumerate(ys):
        aug = Dataset(aug_features, np.append(train.responses, y))
        model = regressor.fit(aug)
        resid = np.abs(train.responses - model.predict_many(train.features))
        accepted[idx] = abs(y - model.predict(x)) <= upper_quantile(resid, spec.alpha)

    return _runs_to_set(accepted, ys, ys)


def _runs_to_set(accepted, lefts, rights) -> PredictionSet:
    """The set whose components are the closed hulls of the maximal runs of
    accepted cells, cell c spanning ``[lefts[c], rights[c]]`` in increasing
    order; ``accepted`` is the boolean mask of the cells."""
    # A run starts at an accepted cell whose left neighbour is rejected and
    # ends at one whose right neighbour is; padding rejects both outer ends.
    # Boolean operators rather than np.diff: a process's first int8 subtract
    # and compares fault in about 0.2 MB more of numpy's loop code.
    padded = np.concatenate(([False], accepted, [False]))
    first = np.flatnonzero(padded[1:] & ~padded[:-1])
    last = np.flatnonzero(padded[:-1] & ~padded[1:]) - 1
    return PredictionSet.from_intervals(
        PredictionInterval(float(lefts[a]), float(rights[b]))
        for a, b in zip(first.tolist(), last.tolist())
    )
