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
coverage).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, SplitSpec, attach_tau, gen_gaussian_linear, gen_pathological_abc
from .errors import ConfigError, DataError, _require_int, _require_real
from .intervals import (
    METHOD_TOKENS,
    GridSpec,
    IntervalSpec,
    _about,
    _ResidualQuantiles,
    build_loo_cache,
    cross_conformal_set,
    cv_plus,
    full_conformal_set,
    jackknife,
    jackknife_minmax,
    jackknife_plus,
)
from .regressors import Memorizer, MinNormOLS, ParityAdversary, Regressor, make_regressor
from .rng import _uniforms, derive_rng, derive_seed
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
        if self.method not in METHOD_TOKENS:
            raise ConfigError(
                f"unknown method {self.method!r}; expected one of {', '.join(METHOD_TOKENS)}"
            )
        if self.k_folds is not None and _require_int("k_folds", self.k_folds) < 1:
            raise ConfigError(f"k_folds must be >= 1, got {self.k_folds}")
        if not 0 < _require_real("split_holdout", self.split_holdout) < 1:
            raise ConfigError(f"split_holdout must be in (0, 1), got {self.split_holdout}")

    @property
    def label(self) -> str:
        if self.method in ("cv+", "cross-conformal") and self.k_folds is not None:
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
        if self.trials < 2:
            return 0.0
        return float(np.std(self.coverages, ddof=1) / math.sqrt(self.trials))

    @property
    def width_mean(self) -> float:
        finite = [w for w in self.widths if not math.isnan(w)]
        return float(np.mean(finite)) if finite else math.nan

    @property
    def width_se(self) -> float:
        finite = [w for w in self.widths if not math.isnan(w)]
        if len(finite) < 2:
            return 0.0
        return float(np.std(finite, ddof=1) / math.sqrt(len(finite)))


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
    return CoverageReport(
        method=first.method,
        alpha=first.alpha,
        coverages=tuple(c for rep in reports for c in rep.coverages),
        widths=tuple(w for rep in reports for w in rep.widths),
        infinite_count=sum(rep.infinite_count for rep in reports),
    )


def _cache_k(mspec: MethodSpec, n: int) -> int | None:
    """Fold count of the cache a method reads, or None when it reads none."""
    if mspec.method in ("cv+", "cross-conformal"):
        return n if mspec.k_folds is None else mspec.k_folds
    if mspec.method in ("jackknife", "jackknife+", "jackknife-mm"):
        return n
    return None


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
    K < n only, since a leave-one-out cache deals no folds; ``strict`` as
    in :func:`build_loo_cache`), one full fit, made only when naive or
    jackknife reads it and shared through the leave-one-out cache when there
    is one, one split fit per holdout fraction
    (seed ``derive_seed(seed, "split")``), and one cross-conformal tau per
    query row, shared across levels: the uniforms of
    ``random.Random(derive_seed(seed, "tau"))``, so no draw here loads
    ``numpy.random``. Each residual quantile is computed once per residual
    vector and level.
    """
    X_test = np.asarray(X_test, dtype=float)
    if X_test.ndim != 2 or X_test.shape[1] != train.d:
        raise DataError(
            f"query points must form a 2-D array with {train.d} columns, got shape {X_test.shape}"
        )
    if not np.isfinite(X_test).all():
        raise DataError("query points must be finite (no NaN or infinities)")
    n = train.n
    tokens = {m.method for m in methods}
    caches = {
        k: build_loo_cache(
            train, regressor, k, strict=strict,
            fold_seed=derive_seed(seed, f"folds/{k}") if k < n else 0,
        )
        for k in dict.fromkeys(_cache_k(m, n) for m in methods)
        if k is not None
    }
    full_model = None
    if "naive" in tokens:
        full_model = caches[n].full_model if n in caches else regressor.fit(train)
    splits = {}
    for holdout in dict.fromkeys(m.split_holdout for m in methods if m.method == "split"):
        fit_idx, hold_idx = SplitSpec(
            holdout_fraction=holdout, seed=derive_seed(seed, "split")
        ).resolve(n)
        model = regressor.fit(train.take(fit_idx))
        held = train.take(hold_idx)
        splits[holdout] = (
            model, _ResidualQuantiles(held.responses - model.predict_many(held.features))
        )
    taus = None
    if "cross-conformal" in tokens:
        taus = _uniforms(derive_seed(seed, "tau"), len(X_test))

    def construction(mspec: MethodSpec):
        """(spec, j) -> object for one method."""
        token = mspec.method
        if token == "naive":
            quantiles = _ResidualQuantiles(
                train.responses - full_model.predict_many(train.features)
            )
            return lambda spec, j: _about(full_model, quantiles, spec, X_test[j])
        if token == "split":
            model, quantiles = splits[mspec.split_holdout]
            return lambda spec, j: _about(model, quantiles, spec, X_test[j])
        if token == "full-conformal":
            return lambda spec, j: full_conformal_set(train, regressor, spec, X_test[j], mspec.grid)
        cache = caches[_cache_k(mspec, n)]
        if token == "cross-conformal":
            return lambda spec, j: cross_conformal_set(cache, spec, X_test[j], taus[j])
        # Bound here, not at import, so a rebound module name (as bench/tracer.py
        # rebinds each public function to count its calls) is the one called.
        fn = {"jackknife": jackknife, "jackknife+": jackknife_plus,
              "jackknife-mm": jackknife_minmax, "cv+": cv_plus}[token]
        return lambda spec, j: fn(cache, spec, X_test[j])

    rows = range(len(X_test))
    return [
        [[make(spec, j) for j in rows] for spec in specs]
        for make in map(construction, methods)
    ]


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
    (``trials == 1``): the coverage fraction and mean finite width over the
    test points. The objects come from :func:`evaluate_methods`, so fits are
    shared across methods and levels.
    """
    if not methods or not specs:
        raise ConfigError("need at least one method and one spec")
    if test.n < 1:
        raise ConfigError(f"n_test must be >= 1, got {test.n}")
    labels = [m.label for m in methods]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"duplicate method labels: {labels}")

    objects = evaluate_methods(train, test.features, regressor, methods, specs, seed)
    return {
        (label, si): _trial_report(label, specs[si].alpha, objs, test.responses)
        for label, per_spec in zip(labels, objects)
        for si, objs in enumerate(per_spec)
    }


def _trial_report(label: str, alpha: float, objs, responses) -> CoverageReport:
    """One-row report of the objects built for one test draw: coverage, mean
    finite width (NaN when none is finite) and the count of infinite widths."""
    hits = [o.contains(y) for o, y in zip(objs, responses)]
    widths = [o.width for o in objs]
    finite = [w for w in widths if math.isfinite(w)]
    width_mean = float(np.mean(finite)) if finite else math.nan
    return CoverageReport(label, alpha, (float(np.mean(hits)),), (width_mean,),
                          sum(map(math.isinf, widths)))


def default_method_list(n: int, k_folds: int = 10) -> list[MethodSpec]:
    """The six default comparison methods (full conformal costs n_grid fits
    per test point and is opt-in)."""
    if _require_int("k_folds", k_folds) < 1:
        raise ConfigError(f"k_folds must be >= 1, got {k_folds}")
    k = k_folds if k_folds <= n and n % k_folds == 0 else None
    return [
        MethodSpec("naive"),
        MethodSpec("split"),
        MethodSpec("jackknife"),
        MethodSpec("jackknife+"),
        MethodSpec("jackknife-mm"),
        MethodSpec("cv+", k_folds=k),
    ]


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
    regressor: Regressor | None = None,
) -> dict:
    """Coverage and width of the default methods across feature dimensions.

    For each d, each trial draws train and test jointly from one Gaussian
    linear model (the coefficient vector is redrawn every trial). Returns
    ``{d: {label: CoverageReport}}``.
    """
    if not d_list:
        raise ConfigError("d_list must name at least one feature dimension")
    if len(set(d_list)) != len(d_list):
        raise ConfigError(f"d_list must not repeat a dimension, got {list(d_list)}")
    if regressor is None:
        regressor = MinNormOLS()
    if methods is None:
        methods = default_method_list(n)
    specs = [IntervalSpec(alpha)]

    def trial(d, t):
        data, _ = gen_gaussian_linear(n + n_test, d, derive_seed(seed, f"figure2/d={d}", t))
        return run_trial(data.head(n), data.tail_from(n), regressor, methods, specs,
                         seed=derive_seed(seed, f"figure2-trial/d={d}", t))

    out: dict = {}
    for d in d_list:
        reports = _coverage_reports(trials, lambda t: trial(d, t))
        out[d] = {label: report for (label, _), report in reports.items()}
    return out


# The coverage_lower_bounds entry of each coverage-mc method; cv+ reads the
# floor that holds at every K.
_FLOOR_KEY = {"jackknife+": "jackknife_plus", "jackknife-mm": "jackknife_minmax",
              "split": "split_conformal", "cv+": "cv_plus_floor"}


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
    if not regressors:
        raise ConfigError("regressors must name at least one regressor")
    names = [t if isinstance(t, str) else t.token for t in regressors]
    for what, values in (("regressors", names), ("alphas", list(alphas))):
        if len(set(values)) != len(values):
            raise ConfigError(f"{what} must not repeat an entry, got {values}")
    methods = [MethodSpec("jackknife+"), MethodSpec("jackknife-mm"), MethodSpec("split")]
    methods += [MethodSpec("cv+", k_folds=k) for k in k_list]
    specs = [IntervalSpec(a) for a in alphas]
    floors = [coverage_lower_bounds(spec.alpha, 0.0, n, n) for spec in specs]

    # Every token is checked before the first trial, so a bad one late in
    # the list fails at once rather than after the earlier regressors' runs.
    regs = [make_regressor(t) if isinstance(t, str) else t for t in regressors]

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
             "report": reports[(m.label, si)], "bound": floors[si][_FLOOR_KEY[m.method]]}
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
        X = derive_rng(seed, "memorizer", t).standard_normal((n + n_test, 1))
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
        return attach_tau(gen_pathological_abc(size, alpha, gamma, derive_seed(seed, tag, t)), tau)

    def trial(t):
        # The adversary fits two leave-one-out models, so jackknife+ selects
        # from their sorted residuals and a query builds no n-vector.
        return run_trial(draw(n, "parity-train", t), draw(n_test, "parity-test", t),
                         ParityAdversary(tau), methods, specs)

    reports = _coverage_reports(trials, trial)
    return ParityResult(
        n=n,
        alpha=alpha,
        eps=eps,
        gamma=gamma,
        tau=tau,
        n_test=n_test,
        report=reports[("jackknife+", 0)],
        bound_upper=1.0 - 2.0 * alpha + slack,
    )
