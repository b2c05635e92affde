"""Monte Carlo coverage experiments and adversarial pathology runs.

A trial is the unit of randomness: each trial owns a seed derived from the
experiment's master seed by purpose tag and trial index, draws its own data
(including a fresh coefficient vector where applicable), and reports a
one-row CoverageReport per (method, level): coverage and mean width over its
test points. One driver runs every experiment's trials one at a time and
pools the rows with :func:`aggregate` in trial order, so results do not
depend on how work is batched. Every experiment, the parity pathology
included, evaluates a trial through :func:`run_trial`.

Widths are totals of finite component lengths; infinite-width intervals are
counted separately and excluded from width means (they still count toward
coverage). A report none of whose trials has a finite width gives NaN for
both the width mean and its standard error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, SplitSpec, gen_gaussian_linear, gen_pathological_abc
from .errors import ConfigError, DataError, _require_int, _require_real, _require_sequence
from .intervals import (
    _METHODS,
    GridSpec,
    IntervalSpec,
    PredictionInterval,
    _Block,
    _check_method,
    _query_rows,
    _residual_quantiles,
    build_loo_cache,
)
from .quantiles import _POINT_BLOCK
from .regressors import (Memorizer, MinNormOLS, ParityAdversary, Regressor, canonical_order,
                         make_regressor)
from .rng import _normals, _uniforms, derive_seed
from .stability import coverage_lower_bounds

__all__ = [
    "MethodSpec",
    "CoverageReport",
    "aggregate",
    "evaluate_methods",
    "run_trial",
    "default_method_list",
    "figure2_experiment",
    "run_coverage_mc",
    "pathology_memorizer",
    "pathology_parity",
    "ParityResult",
    "parity_vacuity_slack",
]

@dataclass(frozen=True)
class MethodSpec:
    """One interval/set construction plus its method-specific knobs."""

    method: str
    k_folds: int | None = None
    split_holdout: float = 0.5
    grid: GridSpec = GridSpec()

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; expected one of {', '.join(_METHODS)}")
        if self.k_folds is not None and _require_int("k_folds", self.k_folds) < 1:
            raise ConfigError(f"k_folds must be >= 1, got {self.k_folds}")
        if not 0 < _require_real("split_holdout", self.split_holdout) < 1:
            raise ConfigError(f"split_holdout must be in (0, 1), got {self.split_holdout}")
        if not isinstance(self.grid, GridSpec):
            raise ConfigError(f"grid must be a GridSpec, got {self.grid!r}")

    @property
    def label(self) -> str:
        if _METHODS[self.method].folds == "k" and self.k_folds is not None:
            return f"{self.method}(K={self.k_folds})"
        return self.method


@dataclass(frozen=True)
class CoverageReport:
    """Per-trial coverage rows for one method at one level. A trial's result
    is a one-row report (``trials == 1``); :func:`aggregate` pools them."""

    method: str
    alpha: float
    coverages: tuple[float, ...]
    widths: tuple[float, ...]
    infinite_count: int

    @property
    def trials(self) -> int:
        return len(self.coverages)

    @property
    def coverage_mean(self) -> float:
        return float(np.mean(self.coverages))

    @property
    def coverage_se(self) -> float:
        return _standard_error(self.coverages)

    @property
    def width_mean(self) -> float:
        finite = [w for w in self.widths if not math.isnan(w)]
        return float(np.mean(finite)) if finite else math.nan

    @property
    def width_se(self) -> float:
        finite = [w for w in self.widths if not math.isnan(w)]
        return _standard_error(finite) if finite else math.nan


def _standard_error(values) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def aggregate(reports) -> CoverageReport:
    """Pool per-trial rows from reports of the same method and level."""
    reports = list(reports)
    if not reports:
        raise ConfigError("nothing to aggregate")
    first = reports[0]
    for rep in reports[1:]:
        if rep.method != first.method or rep.alpha != first.alpha:
            raise ConfigError(
                f"cannot aggregate {rep.method!r}@{rep.alpha} with "
                f"{first.method!r}@{first.alpha}"
            )
    return CoverageReport(first.method, first.alpha,
                          tuple(c for rep in reports for c in rep.coverages),
                          tuple(w for rep in reports for w in rep.widths),
                          sum(rep.infinite_count for rep in reports))


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
    or raises ConfigError if ``strict``. Each cache, and the full and split
    fits together, predict a block of rows at a time for every method reading
    them; interval objects are made only for the return.
    """
    return [[ends if isinstance(ends, list) else
             list(map(PredictionInterval, ends[0].tolist(), ends[1].tolist())) for ends in per_spec]
            for per_spec in _evaluate(train, X_test, regressor, methods, specs, seed, strict)]


class _Fits(dict):
    """The ``([model], quantiles)`` of the methods that read no cache, made on
    first use: ``fits[None]`` the full fit (``loo``'s when given), ``fits[h]``
    the split at holdout h, as :func:`evaluate_methods` describes. Sorted
    positions of the canonical order keep each part in its canonical order."""

    def __init__(self, train: Dataset, regressor: Regressor, seed: int, loo=None):
        self.train, self.regressor, self.seed, self.loo = train, regressor, seed, loo

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
    X_test = _query_rows(X_test, train.d)
    n, table = train.n, [_METHODS[m.method] for m in methods]
    ks = [{"n": n, "k": m.k_folds or n}.get(method.folds) for method, m in zip(table, methods)]
    for m, k in zip(methods, ks):  # every entry, before the first fit
        _check_method(m.method, specs, n, k)
    for k in dict.fromkeys(k for k in ks if k and n % k):  # each uneven K, before any fit
        if strict:
            raise ConfigError(f"k_folds={k} does not divide n={n} (strict mode)")
        warnings.warn(f"k_folds={k} does not divide n={n}; fold sizes will differ by one",
                      stacklevel=3)
    sources = {k: build_loo_cache(train, regressor, k,
                                  fold_seed=derive_seed(seed, f"folds/{k}") if k < n else 0)
               for k in dict.fromkeys(ks) if k is not None}
    sources[None] = _Fits(train, regressor, seed, sources.get(n))

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


def run_trial(
    train: Dataset,
    test: Dataset,
    regressor: Regressor,
    methods: list[MethodSpec],
    specs: list[IntervalSpec],
    seed: int = 0,
) -> dict:
    """Evaluate every (method, spec) on one train/test draw.

    Returns ``{(label, spec_index): CoverageReport}``, each a one-row report
    (``trials == 1``) scored by :func:`_scored`: the coverage fraction, mean
    finite width (NaN when none is finite) and count of infinite widths over
    the test points. Fits are shared across methods and levels, as in
    :func:`evaluate_methods`; intervals are scored as endpoint arrays.
    """
    methods = _require_sequence("methods", methods, MethodSpec)
    specs = _require_sequence("specs", specs, IntervalSpec)
    if not methods or not specs:
        raise ConfigError("need at least one method and one spec")
    if test.n < 1:
        raise ConfigError(f"n_test must be >= 1, got {test.n}")
    labels = [m.label for m in methods]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"duplicate method labels: {labels}")

    results = _evaluate(train, test.features, regressor, methods, specs, seed, False)
    reports = {}
    for label, per_spec in zip(labels, results):
        for si, ends in enumerate(per_spec):
            hits, widths = _scored(ends, test.responses)
            finite = widths[np.isfinite(widths)]
            width_mean = float(np.mean(finite)) if finite.size else math.nan
            reports[label, si] = CoverageReport(label, specs[si].alpha, (float(np.mean(hits)),),
                                                (width_mean,), int(np.isinf(widths).sum()))
    return reports


def _scored(ends, responses):
    """The hits and widths of one method's endpoint arrays or sets at the test
    responses, each width as :class:`PredictionInterval`'s."""
    if isinstance(ends, list):
        return [s.contains(y) for s, y in zip(ends, responses)], np.array([s.width for s in ends])
    lower, upper = ends
    with np.errstate(invalid="ignore"):
        widths = np.where(lower > upper, 0.0, upper - lower)
    return (lower <= responses) & (responses <= upper), widths


def default_method_list(n: int, k_folds: int = 10) -> list[MethodSpec]:
    """The six default comparison methods (full conformal costs n_grid fits
    per test point and is opt-in)."""
    _require_int("n", n)
    if _require_int("k_folds", k_folds) < 1:
        raise ConfigError(f"k_folds must be >= 1, got {k_folds}")
    k = k_folds if k_folds <= n and n % k_folds == 0 else None
    tokens = ("naive", "split", "jackknife", "jackknife+", "jackknife-mm")
    return [MethodSpec(token) for token in tokens] + [MethodSpec("cv+", k_folds=k)]


def _coverage_reports(trials: int, trial) -> dict:
    """Run trials 0..trials-1 one at a time and pool their one-row reports.

    ``trial(t)`` returns :func:`run_trial`'s ``{(label, spec index):
    CoverageReport}`` for trial t. Returns each key's reports pooled by
    :func:`aggregate`, in the key order of the first trial, each report
    listing its rows in trial order.
    """
    if _require_int("trials", trials) < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    rows: dict = {}
    for t in range(trials):
        for key, report in trial(t).items():
            rows.setdefault(key, []).append(report)
    return {key: aggregate(reports) for key, reports in rows.items()}


def figure2_experiment(
    n: int = 100,
    d_list=(20, 100, 180),
    trials: int = 20,
    n_test: int = 100,
    alpha: float = 0.1,
    seed: int = 0,
    methods: list[MethodSpec] | None = None,
) -> dict:
    """Coverage and width of the default methods, fitting minimum-norm least
    squares, across feature dimensions.

    For each d, each trial draws train and test jointly from one Gaussian
    linear model (the coefficient vector is redrawn every trial). Returns
    ``{d: {label: CoverageReport}}``.
    """
    d_list = _require_sequence("d_list", d_list)
    if not d_list:
        raise ConfigError("d_list must name at least one feature dimension")
    if len(set(d_list)) != len(d_list):
        raise ConfigError(f"d_list must not repeat a dimension, got {d_list}")
    for d in d_list:  # every entry, before the first trial
        if _require_int("d", d) < 1:
            raise ConfigError(f"d must be >= 1, got {d}")
    if methods is None:
        methods = default_method_list(n)
    specs = [IntervalSpec(alpha)]

    def trial(d, t):
        data, _ = gen_gaussian_linear(n + n_test, d, derive_seed(seed, f"figure2/d={d}", t))
        return run_trial(data.head(n), data.tail_from(n), MinNormOLS(), methods, specs,
                         seed=derive_seed(seed, f"figure2-trial/d={d}", t))

    out: dict = {}
    for d in d_list:
        reports = _coverage_reports(trials, lambda t: trial(d, t))
        out[d] = {label: report for (label, _), report in reports.items()}
    return out


def run_coverage_mc(
    n: int = 20,
    d: int = 5,
    trials: int = 500,
    n_test: int = 50,
    alphas=(0.1, 0.2),
    regressors=("mean", "ols"),
    k_list=(2, 5, None),
    seed: int = 0,
) -> list[dict]:
    """Guarantee-versus-empirical coverage table on Gaussian linear data.

    Methods: jackknife+, jackknife-mm, split, and cv+ at each K in
    ``k_list`` (None means K = n). Returns one row per (regressor, method,
    alpha) with the matching assumption-free lower bound.
    """
    names = _require_sequence("regressors", regressors)
    if not names:
        raise ConfigError("regressors must name at least one regressor")
    # Every token is checked before the first trial, so a bad one late in
    # the list fails at once rather than after the earlier regressors' runs.
    regs = [make_regressor(t) for t in names]
    alphas, k_list = _require_sequence("alphas", alphas), _require_sequence("k_list", k_list)
    if _require_int("d", d) < 1:
        raise ConfigError(f"d must be >= 1, got {d}")
    for what, values in (("regressors", names), ("alphas", alphas)):
        if len(set(values)) != len(values):
            raise ConfigError(f"{what} must not repeat an entry, got {values}")
    methods = [MethodSpec("jackknife+"), MethodSpec("jackknife-mm"), MethodSpec("split")]
    methods += [MethodSpec("cv+", k_folds=k) for k in k_list]
    specs = [IntervalSpec(a) for a in alphas]
    floors = [coverage_lower_bounds(spec.alpha, 0.0, n, n) for spec in specs]

    rows = []
    for reg, name in zip(regs, names):
        def trial(t):
            data, _ = gen_gaussian_linear(
                n + n_test, d, derive_seed(seed, f"coverage-mc/{name}", t)
            )
            return run_trial(data.head(n), data.tail_from(n), reg, methods, specs,
                             seed=derive_seed(seed, f"coverage-mc-trial/{name}", t))

        reports = _coverage_reports(trials, trial)
        rows += [
            {"regressor": name, "method": m.label, "alpha": spec.alpha,
             "report": reports[(m.label, si)], "bound": floors[si][_METHODS[m.method].floor]}
            for m in methods
            for si, spec in enumerate(specs)
        ]
    return rows


def pathology_memorizer(
    n: int = 10,
    eps: float = 1.0,
    trials: int = 50,
    n_test: int = 10,
    alpha: float = 0.1,
    seed: int = 0,
) -> dict:
    """Interpolating-memorizer failure case: X ~ N(0,1), Y identically 0.

    The naive and jackknife intervals sit entirely above zero (coverage 0);
    jackknife+ pins its lower endpoint at 0 (coverage 1).
    """
    regressor = Memorizer(eps=eps)
    methods = [MethodSpec("naive"), MethodSpec("jackknife"), MethodSpec("jackknife+")]
    specs = [IntervalSpec(alpha)]

    def trial(t):
        X = _normals(derive_seed(seed, "memorizer", t), n + n_test).reshape(-1, 1)
        data = Dataset(X, np.zeros(n + n_test))
        return run_trial(data.head(n), data.tail_from(n), regressor, methods, specs,
                         seed=derive_seed(seed, "memorizer-trial", t))

    reports = _coverage_reports(trials, trial)
    return {label: report for (label, _), report in reports.items()}


@dataclass(frozen=True)
class ParityResult:
    """Outcome of the sign-flip pathology run for epsilon-inflated jackknife+."""

    n: int
    alpha: float
    eps: float
    gamma: float
    tau: float
    n_test: int
    report: CoverageReport
    bound_upper: float  # 1 - 2*alpha + 6*sqrt(log(n)/n)


def parity_vacuity_slack(n: int) -> float:
    return 6.0 * math.sqrt(math.log(n) / n)


def pathology_parity(
    n: int = 100_000,
    alpha: float = 0.25,
    eps: float = 0.01,
    trials: int = 5,
    n_test: int = 2000,
    seed: int = 0,
    gamma: float | None = None,
    tau: float | None = None,
) -> ParityResult:
    """Sign-flip pathology: epsilon-inflated jackknife+ coverage near 1 - 2*alpha.

    Uses gamma = (2.15 / alpha) * sqrt(log(n) / n) and tau = eps * n unless
    overridden. Rejects configurations where the theoretical noncoverage
    slack 6*sqrt(log(n)/n) exceeds alpha, since the coverage window is then
    too loose to demonstrate anything.
    """
    if not _require_real("eps", eps) > 0:
        raise ConfigError(f"eps must be > 0, got {eps}")
    if not math.isfinite(eps):
        raise ConfigError(f"eps must be finite, got {eps}")
    if not 0.0 < _require_real("alpha", alpha) < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if _require_int("n_test", n_test) < 1:
        raise ConfigError(f"n_test must be >= 1, got {n_test}")
    if _require_int("n", n) < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if n == 1:
        # log(1) = 0 zeroes the slack below, yet jackknife+ needs two rows.
        raise ConfigError("pathology is vacuous at n=1: jackknife+ needs at least "
                          "2 training rows; increase n")
    slack = parity_vacuity_slack(n)
    if slack > alpha:
        raise ConfigError(
            f"pathology is vacuous at n={n}, alpha={alpha}: noncoverage slack "
            f"6*sqrt(log(n)/n) = {slack:.5f} exceeds alpha; increase n"
        )
    if gamma is None:
        gamma = (2.15 / alpha) * math.sqrt(math.log(n) / n)
    if not 0.0 < _require_real("gamma", gamma) < 1.0:
        raise ConfigError(f"gamma must be in (0, 1), got {gamma}")
    if tau is None:
        tau = eps * n

    methods = [MethodSpec("jackknife+")]
    specs = [IntervalSpec(alpha, inflation_eps=eps)]

    def draw(size, tag, t):
        return gen_pathological_abc(size, alpha, gamma, derive_seed(seed, tag, t), tau)

    def trial(t):
        # The adversary fits two leave-one-out models, so jackknife+ selects a
        # block of queries' endpoints from their two sorted residual groups by
        # elimination.
        return run_trial(draw(n, "parity-train", t), draw(n_test, "parity-test", t),
                         ParityAdversary(tau), methods, specs)

    reports = _coverage_reports(trials, trial)
    return ParityResult(n=n, alpha=alpha, eps=eps, gamma=gamma, tau=tau, n_test=n_test,
                        report=reports[("jackknife+", 0)], bound_upper=1.0 - 2.0 * alpha + slack)
