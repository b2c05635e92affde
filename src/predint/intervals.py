"""Prediction intervals and sets from leave-one-out and K-fold residuals.

Eight constructions share the two corrected quantile operators; each is one
row of the method table ``_METHODS``, whose builder answers a block of query
rows. Naive (in-sample residual quantile around the full fit), split
(holdout residual quantile around the split fit) and full conformal (refit
on the augmented sample per candidate y of a grid) read no cache and have no
public function: ``_evaluate``, the one block loop under
:func:`evaluate_methods`, the trials and the ``intervals`` command, builds
them from :class:`_Fits`. The other five read a :class:`LooCache` and are
public, each its builder on a block of one row; the four intervals take
``(cache, spec, x)``:

* ``jackknife``          - leave-one-out residual quantile around the full fit
* ``jackknife_plus``     - quantiles of per-point leave-one-out predictions
                           shifted by their own residuals
* ``jackknife_minmax``   - residual quantile around the extreme LOO predictions
* ``cv_plus``            - jackknife+ with K-fold instead of leave-one-out fits
* ``cross_conformal_set``- exact rank-test membership set from one sorted
                           sweep of the 2n breakpoints per query: O(n log n),
                           plus O(n) per breakpoint between two rejected
                           gaps; no ``np.unique``

All intervals are closed. Empty intervals (lower > upper) are kept explicit
rather than silently swapped. The interval methods accept an epsilon
inflation and an asymmetric (signed-residual) mode; the two set-valued
methods are rank tests on absolute residuals and reject both options. Both
turn their mask of accepted cells (sweep gaps and breakpoints, or grid points)
into components through one run merger, ``_runs_to_set``. One check,
``_check_method``, reads that rule and the folds each method needs from the
table; ``_evaluate`` runs it on every entry before its first fit.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dataset import Dataset, SplitSpec
from .errors import (ConfigError, DataError, _require_finite, _require_fraction, _require_int,
                     _require_sequence, _require_type)
from .quantiles import (
    _POINT_BLOCK,
    _check_alpha,
    _exact_ratio,
    _select_inplace,
    _SortedGroups,
    lower_index,
    lower_quantile,
    upper_index,
    upper_quantile,
)
from .regressors import FittedModel, LinearStack, Regressor, _fold_sizes, _points, canonical_order
from .rng import _permutation, _uniforms, derive_seed

__all__ = [
    "IntervalSpec",
    "PredictionInterval",
    "PredictionSet",
    "LooCache",
    "build_loo_cache",
    "jackknife",
    "jackknife_plus",
    "jackknife_minmax",
    "cv_plus",
    "cross_conformal_set",
    "METHOD_TOKENS",
    "MethodSpec",
    "evaluate_methods",
]


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
        _require_finite("inflation_eps", self.inflation_eps, 0)
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
    calls :meth:`Regressor.fit_folds` once on its checked partition of a
    nonempty training set, so ``models[model_of[i]]`` is fitted without row
    i's fold by construction, and ``signed_residuals[i]`` is row i's
    response minus its prediction there. ``k_folds`` counts the labels of ``fold_of`` that hold a row; at
    ``k_folds == n`` the folds are singletons: the classic leave-one-out fits.
    ``fold_of=None`` is that partition with no label vector: the cache holds
    none, and ``fold_of`` reads as ``arange(n)``, built on first read.
    The full model, the absolute ``residuals``, each model's residuals sorted
    for CV+ (absolute or signed, by the spec's mode) and each residual
    quantile are computed on first use only. Immutable once built.

    ``fit_folds`` is an override point, so its result is checked: the models
    are :class:`FittedModel` instances, ``model_of`` (integer) and
    ``in_sample`` are 1-D arrays of length n and every model is some row's
    (``ConfigError``), and the in-sample residuals are finite
    (:class:`DataError`), as :class:`_Block` checks the predictions of the
    models at a block's rows (one value per model, not per row). So no vector
    ``prediction +- residual`` holds NaN, and queries need no per-row NaN
    scan. The residuals go into
    ``in_sample`` itself when it owns its float data and is writeable. Every
    reader gathers row i's fold prediction by indexing with ``model_of``.
    """

    def __init__(self, train, regressor, fold_of=None):
        n = _require_type("train", train, Dataset).n
        _require_type("regressor", regressor, Regressor)
        if n < 1:
            raise ConfigError("cannot build a cache from an empty training set")
        if fold_of is None:
            self.k_folds = n
        else:
            fold_of = np.asarray(fold_of)
            self.k_folds = int(np.count_nonzero(_fold_sizes(fold_of, n)))
        models, model_of, in_sample = regressor.fit_folds(train, fold_of)
        # A list of the models, unless they are a LinearStack: it stays one.
        checked = _require_sequence("fit_folds' models", models, FittedModel)
        if not (isinstance(model_of, np.ndarray) and model_of.shape == (n,)
                and np.issubdtype(model_of.dtype, np.integer)):
            raise ConfigError(f"model_of must be a 1-D integer array of length {n}")
        if not (isinstance(in_sample, np.ndarray) and in_sample.shape == (n,)):
            raise ConfigError(f"in_sample must be a 1-D array of length {n}")
        self.train = train
        self.regressor = regressor
        self.models = models if isinstance(models, LinearStack) else checked
        self._fold_of, self.model_of = fold_of, model_of
        if model_of.min() < 0 or model_of.max() >= len(self.models):
            raise ConfigError("model_of must index into models")
        if not np.bincount(model_of, minlength=len(self.models)).all():
            raise ConfigError("model_of must use every one of models")
        owned = in_sample.flags.owndata and in_sample.flags.writeable and in_sample.dtype == float
        with np.errstate(over="ignore"):  # an overflow is the DataError below
            self.signed_residuals = np.subtract(train.responses, in_sample,
                                                out=in_sample if owned else None)
        if not np.isfinite(self.signed_residuals).all():
            raise DataError("the fold models' in-sample residuals are not finite")
        for arr in (self.signed_residuals, self.model_of):
            arr.flags.writeable = False
        self._quantiles, self._sorted = _residual_quantiles(self.signed_residuals), {}

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

    def _sorted_groups(self, absolute: bool) -> _SortedGroups:
        """Each model's rows' residuals, sorted, once per mode; one copy a model."""
        if absolute not in self._sorted:
            groups = [self.signed_residuals[self.model_of == g] for g in range(len(self.models))]
            for values in groups:
                if absolute:
                    np.abs(values, out=values)
                values.sort()
            self._sorted[absolute] = _SortedGroups(groups)
        return self._sorted[absolute]

    def predictions_at(self, x) -> np.ndarray:
        """Per-row fold predictions mu_{-fold(i)}(x), one entry per row."""
        return _Block(_query_rows(x, self.train.d, one=True), None).predictions(
            self.models)[0, self.model_of]


def build_loo_cache(
    train: Dataset,
    regressor: Regressor,
    k_folds: int | None = None,
    *,
    fold_seed: int = 0,
) -> LooCache:
    """Fit the K fold models (K defaults to n, i.e. leave-one-out) through
    :meth:`Regressor.fit_folds`.

    The fold partition is dealt uniformly at random over the canonical row
    order, so it is a function of row content, not row order: the deal is
    the stable argsort of n uniforms of ``random.Random(fold_seed)``. At
    K = n every fold is a singleton, so ``fold_seed`` is unused. When K does
    not divide n, fold sizes differ by one, silently here;
    :func:`evaluate_methods` warns or, strict, refuses before it fits
    anything. For an explicit partition ``fold_of``, build
    ``LooCache(train, regressor, fold_of)``.
    """
    n = _require_type("train", train, Dataset).n  # LooCache checks the regressor
    k = n if k_folds is None else _require_int("k_folds", k_folds)
    if k == n or n == 0:  # leave-one-out, or the empty training set LooCache rejects
        fold_of = None
    elif not 1 <= k <= n:
        raise ConfigError(f"k_folds must be in [1, {n}], got {k}")
    else:
        order = canonical_order(train.features, train.responses)
        deal = order[_permutation(fold_seed, n, "fold_seed")]
        fold_of = np.empty(n, dtype=int)
        fold_of[deal] = np.repeat(np.arange(k), n // k + (np.arange(k) < n % k))

    return LooCache(train, regressor, fold_of)


def _residual_quantiles(signed_residuals):
    """``spec -> (q_lo, q_hi)`` for one residual vector, computed once per
    level: the signed-residual quantiles at alpha_lo and alpha_hi, or -q and q
    for q the absolute one at alpha."""

    @functools.cache
    def at_level(alpha, alpha_lo, alpha_hi) -> tuple[float, float]:
        if alpha_lo is not None:
            return (lower_quantile(signed_residuals, alpha_lo),
                    upper_quantile(signed_residuals, alpha_hi))
        q = upper_quantile(np.abs(signed_residuals), alpha)
        return -q, q

    return lambda spec: at_level(spec.alpha, spec.alpha_lo, spec.alpha_hi)


def _query_rows(X, d: int, one: bool = False) -> np.ndarray:
    """X as a checked, finite float (q, d) block of query points, else a
    :class:`DataError`; with ``one``, X is one 1-D point, made a block of one."""
    noun = "a query point" if one else "query points"
    try:
        X = np.asarray(X, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{noun} must be numbers: {exc}") from None
    if one and X.shape != (d,):
        raise DataError(f"a query point must be a 1-D vector of {d} numbers, got shape {X.shape}")
    X = _points(X[None] if one else X, d)
    if not np.isfinite(X).all():
        raise DataError(f"{noun} must be finite (no NaN or infinities)")
    return X


class _Block:
    """Query rows ``X`` (q, d) and their cross-conformal ``taus``. The (q, G)
    ``predictions(models)`` of ``models[g].predict_many(X)``, a DataError
    unless finite, are made once for all methods and levels that read them."""

    def __init__(self, X, taus):
        self.X, self.taus, self._memo = X, taus, {}

    def predictions(self, models) -> np.ndarray:
        key = tuple(models)
        if key not in self._memo:
            if isinstance(models, LinearStack):
                per_model = models.block(self.X)
            else:
                per_model = np.empty((len(self.X), len(key)))
                for g, model in enumerate(key):
                    per_model[:, g] = model.predict_many(self.X)
            if not np.isfinite(per_model).all():
                raise DataError("model predictions at the query points are not finite")
            self._memo[key] = per_model
        return self._memo[key]


def _fixed_center(models, quantiles, spec: IntervalSpec, block: _Block):
    """Endpoint arrays ``min + q_lo - eps`` and ``max + q_hi + eps`` of each
    row of the block's predictions of ``models``, ``(q_lo, q_hi) = quantiles(spec)``:
    jackknife-mm on a cache's models; naive, split and jackknife on one."""
    per_model = block.predictions(models)
    q_lo, q_hi = quantiles(spec)
    eps = spec.inflation_eps
    return per_model.min(axis=1) + q_lo - eps, per_model.max(axis=1) + q_hi + eps


# cv+ selects from each model's sorted residuals when the models have at
# least this many rows each on average, else from candidate rows. At that n,
# in _evaluate's blocks of _POINT_BLOCK // G rows (G this cache's models) on a
# 2-vCPU Xeon, an endpoint costs about 1, 5, 20, 110-180 and 660-770 us grouped
# and 50, 65-90, 130, 290-460 and 920-960 us by partition at G = 3, 5, 10, 24
# and 48. A lone query pays every elimination round: 2.8 ms at n = 1e5, G = 10.
_GROUPED_ROWS_PER_MODEL = 4096


def _cv_plus_block(cache: LooCache, mspec, spec: IntervalSpec, block: _Block):
    """cv+ endpoint arrays from the block's (q, G) fold predictions."""
    per_model = block.predictions(cache.models)
    n = cache.n
    lo_alpha, hi_alpha = (spec.alpha_lo, spec.alpha_hi) if spec.asymmetric else (spec.alpha,) * 2
    k_lo, k_hi = lower_index(n, lo_alpha), upper_index(n, hi_alpha)
    # Symmetric endpoints are prediction -+ |residual|; asymmetric ones are
    # prediction + signed residual at both ends.
    lo_shift = np.add if spec.asymmetric else np.subtract
    if len(cache.models) * _GROUPED_ROWS_PER_MODEL <= n:
        groups = cache._sorted_groups(absolute=not spec.asymmetric)
        lo = groups.select_rows(per_model, not spec.asymmetric, k_lo)
        hi = groups.select_rows(per_model, False, k_hi)
    else:
        residuals = cache.signed_residuals if spec.asymmetric else cache.residuals
        lo, hi = np.empty(len(per_model)), np.empty(len(per_model))
        # Rows of n candidates, about _POINT_BLOCK candidates at a time.
        step = max(1, _POINT_BLOCK // n)
        for start in range(0, len(per_model), step):
            rows = slice(start, start + step)
            for shift, k, out in ((lo_shift, k_lo, lo), (np.add, k_hi, hi)):
                work = per_model[rows][:, cache.model_of]
                shift(work, residuals, out=work)
                out[rows] = _select_inplace(work, k)
                del work  # one candidate array at a time
    eps = spec.inflation_eps
    return lo - eps, hi + eps


def _at(token: str, cache: LooCache, spec: IntervalSpec, x, tau=None):
    """Method ``token``'s interval or set at the query point x: its builder on one row."""
    block = _Block(_query_rows(x, _require_type("cache", cache, LooCache).train.d, one=True), [tau])
    _check_method(token, [_require_type("spec", spec, IntervalSpec)], cache.n, cache.k_folds)
    ends = _METHODS[token].build(cache, None, spec, block)
    if isinstance(ends, list):
        return ends[0]
    return PredictionInterval(float(ends[0][0]), float(ends[1][0]))


def jackknife(cache: LooCache, spec: IntervalSpec, x) -> PredictionInterval:
    """Full-fit prediction plus a leave-one-out residual quantile."""
    return _at("jackknife", cache, spec, x)


def cv_plus(cache: LooCache, spec: IntervalSpec, x) -> PredictionInterval:
    """Quantiles of the per-row fold predictions shifted by their residuals.

    With K = n folds this is exactly jackknife+; the two share this code path
    bit for bit. Each endpoint is an order statistic of the n candidates
    ``prediction -+ residual``, one per row, from the prediction at x of the
    model fitted without that row's fold. It runs the block builder of
    :func:`evaluate_methods` on a block of one. With at least
    ``_GROUPED_ROWS_PER_MODEL`` rows per model (parity's two models, or K
    folds at large n) it selects from each model's sorted residuals and
    builds no n-vector; otherwise from candidate rows indexed by ``model_of``,
    one end at a time (an index narrower than intp, as parity's one byte a
    row, is converted per chunk). Both paths compute each candidate with the
    same float operation and return a zero as 0.0, so they agree bit for bit.
    """
    return _at("cv+", cache, spec, x)


def jackknife_plus(cache: LooCache, spec: IntervalSpec, x) -> PredictionInterval:
    return _at("jackknife+", cache, spec, x)


def jackknife_minmax(cache: LooCache, spec: IntervalSpec, x) -> PredictionInterval:
    """Residual quantile around the extreme leave-one-out predictions."""
    return _at("jackknife-mm", cache, spec, x)


def _check_method(token: str, specs, n: int, k: int | None) -> None:
    """Raise method ``token``'s ConfigError, if any, at ``specs``, n rows and k folds."""
    folds, _, _, rank_test = _METHODS[token]
    if n < 1:
        raise ConfigError(f"the training set is empty; {token} needs at least one row")
    if (folds == "n" or token == "split") and n < 2:
        raise ConfigError(f"{token} needs at least 2 training rows")
    if folds == "n" and k != n:
        raise ConfigError(f"{token} needs a leave-one-out cache (k_folds == n)")
    if folds and not 2 <= k <= n:
        raise ConfigError(f"{token} needs at least 2 folds and at most n = {n}, got {k}")
    if rank_test and any(spec.asymmetric or spec.inflation_eps != 0.0 for spec in specs):
        raise ConfigError(f"{token} is a rank test on absolute residuals; it defines "
                          "neither asymmetric mode nor epsilon inflation")


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
    O(n log n), plus O(n) for each breakpoint between two rejected gaps. It
    runs its block builder on a block of one, as :func:`cv_plus` does.
    """
    return _at("cross-conformal", cache, spec, x, tau)


def _cross_conformal_block(cache: LooCache, mspec, spec: IntervalSpec, block: _Block) -> list:
    """The cross-conformal set at each row of a block, by one sorted sweep."""
    n, r, sets = cache.n, cache.residuals, []
    for row, tau in zip(block.predictions(cache.models), block.taus):
        need, m = _strict_needed(n, spec.alpha, tau), row[cache.model_of]
        lo, hi = m - r, m + r
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
        # set, so only breakpoints between two rejected gaps are tested, against
        # all n rows about _POINT_BLOCK (breakpoint, row) pairs at a time.
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
        sets.append(_runs_to_set(cells, twice[1:-2], twice[2:-1]))
    return sets


def _grid(responses, mspec) -> np.ndarray:
    """Full conformal's candidate responses: ``mspec.grid_points`` evenly
    spaced over its bounds, which default to the range of ``responses``."""
    lo = float(responses.min() if mspec.grid_lower is None else mspec.grid_lower)
    hi = float(responses.max() if mspec.grid_upper is None else mspec.grid_upper)
    if lo > hi:
        raise ConfigError("grid lower bound exceeds upper bound")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"the grid [{lo}, {hi}] is too wide: its span overflows")
    return np.linspace(lo, hi, mspec.grid_points)


def _full_conformal_block(fits, mspec, spec: IntervalSpec, block: _Block) -> list:
    """The full-conformal set at each row of a block, over ``mspec``'s grid.

    Each candidate y is added to the training set, the model is refit, and y
    is kept iff its own residual is at most the corrected quantile of the
    original rows' residuals under the refit model; runs of kept grid points
    merge into closed intervals. The refits are ``regressor.fit``'s on one
    augmented buffer: each query overwrites its last row, each candidate its
    last response. The canonical order of the augmented rows is sorted once
    per query: y can move the query row only past a training row with
    exactly its features, so on such a tie it is sorted per candidate.
    """
    train, regressor, ys = fits.train, fits.regressor, fits.grids[mspec]
    X_aug = np.vstack([train.features, block.X[:1]])
    y_aug = np.append(train.responses, 0.0)
    sets = []
    for x in block.X:
        X_aug[-1] = x
        order = None if (train.features == x).all(axis=1).any() else canonical_order(X_aug, y_aug)
        accepted = np.zeros(len(ys), dtype=bool)
        for idx, y in enumerate(ys):
            y_aug[-1] = y
            model = regressor._fit_rows(X_aug, y_aug, canonical_order(X_aug, y_aug)
                                        if order is None else order)
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the DataError below
                resid = np.abs(y_aug - model.predict_many(X_aug))
            if not np.isfinite(resid).all():
                raise DataError("the full-conformal refit's residuals are not finite")
            accepted[idx] = resid[-1] <= upper_quantile(resid[:-1], spec.alpha)
        sets.append(_runs_to_set(accepted, ys, ys))
    return sets


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


class _Method(NamedTuple):
    """A method's row of the one table every dispatch reads: the cache it reads
    (``folds`` "n", "k" for its K or n, or None), ``build(source, mspec, spec,
    block)`` answering a :class:`_Block` from that cache or, for no cache, from
    :class:`_Fits` (only ``evaluate_methods`` builds those methods),
    ``floor``, its coverage_lower_bounds key, and ``rank_test``, true for a
    rank test: it takes only symmetric, uninflated levels."""

    folds: str | None
    build: Callable
    floor: str | None = None
    rank_test: bool = False


_METHODS = {
    "naive": _Method(None, lambda fits, mspec, spec, block: _fixed_center(
        *fits[None], spec, block)),
    "split": _Method(None, lambda fits, mspec, spec, block: _fixed_center(
        *fits[mspec.split_holdout], spec, block), "split_conformal"),
    "jackknife": _Method("n", lambda cache, mspec, spec, block: _fixed_center(
        [cache.full_model], cache._quantiles, spec, block)),
    "jackknife+": _Method("n", _cv_plus_block, "jackknife_plus"),
    "jackknife-mm": _Method("n", lambda cache, mspec, spec, block: _fixed_center(
        cache.models, cache._quantiles, spec, block), "jackknife_minmax"),
    "cv+": _Method("k", _cv_plus_block, "cv_plus_floor"),  # the floor that holds at every K
    "cross-conformal": _Method("k", _cross_conformal_block, rank_test=True),
    "full-conformal": _Method(None, _full_conformal_block, rank_test=True),
}
METHOD_TOKENS = tuple(_METHODS)


@dataclass(frozen=True)
class MethodSpec:
    """One interval/set construction plus its method-specific knobs. Full
    conformal's grid bounds default to the training response range."""

    method: str
    k_folds: int | None = None
    split_holdout: float = 0.5
    grid_points: int = 200
    grid_lower: float | None = None
    grid_upper: float | None = None

    def __post_init__(self):
        # The grid first: the CLI reports a bad grid flag before any other.
        if _require_int("grid_points", self.grid_points) < 2:
            raise ConfigError(f"grid needs at least 2 points, got {self.grid_points}")
        for bound in (self.grid_lower, self.grid_upper):
            if bound is not None:
                _require_finite("grid bounds", bound)
        if None not in (self.grid_lower, self.grid_upper) and self.grid_lower > self.grid_upper:
            raise ConfigError("grid lower bound exceeds upper bound")
        if self.method not in _METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; expected one of {', '.join(_METHODS)}")
        if self.k_folds is not None:
            _require_int("k_folds", self.k_folds, 1)
        _require_fraction("split_holdout", self.split_holdout)

    @property
    def label(self) -> str:
        if _METHODS[self.method].folds == "k" and self.k_folds is not None:
            return f"{self.method}(K={self.k_folds})"
        return self.method


def evaluate_methods(
    train: Dataset,
    X_test,
    regressor: Regressor,
    methods: list[MethodSpec],
    specs: list[IntervalSpec],
    seed: int = 0,
    *,
    strict: bool = False,
) -> list:
    """Prediction objects of every method at every level and query row.

    Returns ``out[m][s][j]``: the interval or set of ``methods[m]`` at
    ``specs[s]`` for row j of ``X_test``. Entries follow list positions, so a
    repeated method gives repeated entries. Fits are shared: one cache per
    distinct K (fold seed ``derive_seed(seed, f"folds/{K}")``, derived for
    K < n only, since a leave-one-out cache deals no folds), one full fit,
    made only when naive or jackknife reads it and shared through the
    leave-one-out cache when there is one, one split fit per holdout fraction
    (``SplitSpec``'s positions at seed ``derive_seed(seed, "split")``, dealt
    over the canonical row order), and one cross-conformal tau per query row,
    shared across levels: the uniforms of ``random.Random(derive_seed(seed,
    "tau"))``, the one generator every predint draw comes from. Each residual
    quantile is computed once per residual vector and level. Before any fit,
    each K < n that does not divide n warns once (fold sizes differ by one),
    or raises ConfigError if ``strict``, and each full-conformal grid is
    resolved, so a bound past the other raises ConfigError. Each cache, and
    the full and split fits together, predict a block of rows at a time for
    every method reading them. Interval objects are made only for the return.
    """
    return [[ends if isinstance(ends, list) else
             list(map(PredictionInterval, ends[0].tolist(), ends[1].tolist())) for ends in per_spec]
            for per_spec in _evaluate(train, X_test, regressor, methods, specs, seed, strict)]


class _Fits(dict):
    """The ``([model], quantiles)`` of the methods that read no cache, made on
    first use: ``fits[None]`` the full fit (``loo``'s when given), ``fits[h]``
    the split at holdout h, as :func:`evaluate_methods` describes. Sorted
    positions of the canonical order keep each part in its canonical order.
    ``grids[mspec]`` is a full-conformal entry's :func:`_grid`."""

    def __init__(self, train: Dataset, regressor: Regressor, seed: int, loo=None, grids=None):
        self.train, self.regressor, self.seed, self.loo = train, regressor, seed, loo
        self.grids = grids

    def __missing__(self, holdout):
        X, y, held = self.train.features, self.train.responses, slice(None)
        if holdout is None:
            model = self.regressor.fit(self.train) if self.loo is None else self.loo.full_model
        else:
            fit_at, hold_at = SplitSpec(holdout, derive_seed(self.seed, "split")).resolve(len(y))
            order = canonical_order(X, y)
            model, held = self.regressor._fit_rows(X, y, order[fit_at]), order[hold_at]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the DataError below
            residuals = y[held] - model.predict_many(X[held])
        if not np.isfinite(residuals).all():
            raise DataError(f"the {'full' if holdout is None else 'split'} model's residuals "
                            "are not finite")
        self[holdout] = [model], _residual_quantiles(residuals)
        return self[holdout]


def _evaluate(train, X_test, regressor, methods, specs, seed, strict) -> list:
    """:func:`evaluate_methods` with no interval objects: ``out[m][s]`` is an
    interval method's endpoint arrays (lower, upper), or a set method's sets."""
    methods = _require_sequence("methods", methods, MethodSpec)
    specs = _require_sequence("specs", specs, IntervalSpec)
    X_test = _query_rows(X_test, _require_type("train", train, Dataset).d)
    _require_type("regressor", regressor, Regressor)
    n, table = train.n, [_METHODS[m.method] for m in methods]
    ks = [{"n": n, "k": m.k_folds or n}.get(method.folds) for method, m in zip(table, methods)]
    for m, k in zip(methods, ks):  # every entry, before the first fit
        _check_method(m.method, specs, n, k)
    for k in dict.fromkeys(k for k in ks if k and n % k):  # each uneven K, before any fit
        if strict:
            raise ConfigError(f"k_folds={k} does not divide n={n} (strict mode)")
        warnings.warn(f"k_folds={k} does not divide n={n}; fold sizes will differ by one",
                      stacklevel=3)
    grids = {m: _grid(train.responses, m) for m in methods if m.method == "full-conformal"}
    sources = {k: build_loo_cache(train, regressor, k,
                                  fold_seed=derive_seed(seed, f"folds/{k}") if k < n else 0)
               for k in dict.fromkeys(ks) if k is not None}
    sources[None] = _Fits(train, regressor, seed, sources.get(n), grids)

    # Each source walks the rows in its own blocks, of about _POINT_BLOCK predictions.
    taus = _uniforms(derive_seed(seed, "tau"), len(X_test))
    out = [[[] for _ in specs] for _ in methods]
    for key in dict.fromkeys(ks):
        step = _POINT_BLOCK if key is None else max(1, _POINT_BLOCK // len(sources[key].models))
        readers = [entry for entry, k in zip(zip(methods, table, out), ks) if k == key]
        for start in range(0, len(X_test), step):
            block = _Block(X_test[start:start + step], taus[start:start + step])
            for mspec, method, per_spec in readers:
                for spec, parts in zip(specs, per_spec):
                    parts.append(method.build(sources[key], mspec, spec, block))
    return [[_joined(parts) for parts in per_spec] for per_spec in out]


def _joined(parts):
    """One method's block results in row order: sets listed, endpoint arrays joined."""
    if not parts or isinstance(parts[0], list):
        return [s for part in parts for s in part]
    return tuple(np.concatenate(ends) for ends in zip(*parts))


def _scored(ends, responses):
    """The hits and widths of one method's endpoint arrays or sets at the test
    responses, each width as :class:`PredictionInterval`'s."""
    if isinstance(ends, list):
        return [s.contains(y) for s, y in zip(ends, responses)], np.array([s.width for s in ends])
    lower, upper = ends
    with np.errstate(invalid="ignore"):
        widths = np.where(lower > upper, 0.0, upper - lower)
    return (lower <= responses) & (responses <= upper), widths
