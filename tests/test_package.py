"""The package surface: what ``predint`` exports, integer and real settings at
the API boundary, and the names README's methods table gives."""

import ast
import importlib
import inspect
import math
import pathlib
import re

import numpy as np
import pytest

import predint
from predint import (
    KNN,
    ConfigError,
    DataError,
    Dataset,
    IntervalSpec,
    LooCache,
    MethodSpec,
    Memorizer,
    MinNormOLS,
    ParityAdversary,
    Ridge,
    SplitSpec,
    audit_instance,
    build_loo_cache,
    coverage_lower_bounds,
    cv_plus,
    default_method_list,
    estimate_stability,
    evaluate_methods,
    figure2_experiment,
    gen_gaussian_linear,
    gen_pathological_abc,
    jackknife_plus,
    lower_index,
    make_regressor,
    parity_vacuity_slack,
    pathology_memorizer,
    pathology_parity,
    residual_matrix,
    run_audit,
    run_coverage_mc,
    run_trial,
    upper_index,
    upper_quantile,
)
from predint.cli import build_parser
from predint.errors import (_require_finite, _require_fraction, _require_int, _require_sequence,
                            _require_type)
from predint.intervals import _METHODS


def test_all_has_no_duplicates():
    assert len(predint.__all__) == len(set(predint.__all__))


def test_every_entry_of_all_resolves():
    missing = [name for name in predint.__all__ if not hasattr(predint, name)]
    assert not missing


# The layers in the order the package lists their names; cli is the front end.
LAYERS = ("errors", "rng", "quantiles", "dataset", "regressors", "intervals", "audit",
          "stability", "experiments")
SOURCES = sorted(pathlib.Path(predint.__file__).parent.glob("*.py"))


def test_every_layer_declares_all():
    modules = {path.stem for path in SOURCES} - {"__init__", "cli"}
    assert modules == set(LAYERS)
    missing = [name for name in LAYERS
               if not hasattr(importlib.import_module(f"predint.{name}"), "__all__")]
    assert not missing


def test_all_is_each_layers_all_in_order():
    # The package declares no name itself: it re-exports each layer's __all__,
    # and every name is the layer's own object.
    layers = [importlib.import_module(f"predint.{name}") for name in LAYERS]
    assert predint.__all__ == ["__version__", *(name for m in layers for name in m.__all__)]
    foreign = [f"{m.__name__}.{name}" for m in layers for name in m.__all__
               if getattr(predint, name) is not getattr(m, name)]
    assert not foreign


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads as a
    name and does not list in a literal ``__all__``."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_unused_imports_are_detected():
    assert unused_imports("import itertools\nfrom .a import b, c\nprint(c)\n") == [
        "line 1: itertools", "line 2: b"]
    assert not unused_imports('from .a import b\n__all__ = ["b"]\n')
    assert not unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_keeps_an_unused_import(path):
    assert not unused_imports(path.read_text())


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def unused_public_names(names, sources, readme: str) -> list[str]:
    """Those of ``names`` that no source reads as a name or an attribute and
    that no backticked span of ``readme`` mentions. Fenced blocks go first:
    each fence adds three backticks, which would pair every later span
    with the wrong partner."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    prose = re.sub(r"^```.*?^```", "", readme, flags=re.MULTILINE | re.DOTALL)
    for span in re.findall(r"`([^`]+)`", prose):
        read.update(re.findall(r"[A-Za-z_]\w*", span))
    return [name for name in names if name not in read]


def test_unused_public_names_are_detected():
    sources = ["def f():\n    pass\ndef g():\n    pass\nclass C:\n    pass\n"
               '__all__ = ["f", "g", "C", "h", "k"]\nf()\nx.C\n']
    assert unused_public_names(["f", "g", "C", "h", "k"], sources,
                               "call `h(1)`; k is not code") == ["g", "k"]
    # With the fence's backticks counted, "k` or `g" would read as a span.
    fenced = "```\npredint run\n```\n\nthen `h` and k, or g, and `x`\n"
    assert unused_public_names(["f", "g", "C", "h", "k"], sources, fenced) == ["g", "k"]


def test_every_public_name_is_used_or_documented():
    # A public name that nothing in the package calls is code to keep with no
    # use: the package reads it, or README documents it.
    names = [name for layer in LAYERS
             for name in importlib.import_module(f"predint.{layer}").__all__]
    assert not unused_public_names(names, [path.read_text() for path in SOURCES],
                                   README.read_text())


def stream_sources(source: str) -> list[str]:
    """Where code (not text) in ``source`` reaches a generator: an import of
    ``random`` or ``numpy.random``, or an ``np.random`` attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            names = ["numpy.random"]
        else:
            continue
        if any(name == "random" or name.startswith("numpy.random") for name in names):
            found.append(f"line {node.lineno}")
    return found


def test_stream_sources_are_detected():
    source = ("import random\nfrom numpy import random as r\nfrom numpy.random import x\n"
              "np.random.default_rng\nimport numpy as np\nnp.sort\n'random.Random(0)'\n")
    assert stream_sources(source) == ["line 1", "line 2", "line 3", "line 4"]


# rng.py owns every generator, so no other module can seed a stream of its own.
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "rng.py"],
                         ids=lambda path: path.name)
def test_only_rng_reaches_a_generator(path):
    assert not stream_sources(path.read_text())


# The range wordings errors.py owns; a module that writes one itself drifts.
RANGE_WORDINGS = ("must be >= ", "must be finite", "must be in (0, 1)", "must not repeat")


def hand_worded_range_checks(source: str) -> list[str]:
    """Where ``source`` builds a ConfigError message in one of RANGE_WORDINGS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ConfigError":
            texts = [c.value for arg in node.args for c in ast.walk(arg)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)]
            if any(wording in text for text in texts for wording in RANGE_WORDINGS):
                found.append(f"line {node.lineno}")
    return found


def test_hand_worded_range_checks_are_detected():
    source = ('raise ConfigError(f"n must be >= 1, got {n}")\n'
              'raise ConfigError("eps must be finite")\n'
              'raise ConfigError(f"{a} must be in (0, 1), got {a}")\n'
              'raise ConfigError(f"{what} must not repeat an entry, got {values}")\n'
              'raise DataError("query points must be finite")\n'
              'raise ConfigError(f"k must lie in [0, {n}], got {k}")\n'
              '"""Entries must be finite."""\n')
    assert hand_worded_range_checks(source) == ["line 1", "line 2", "line 3", "line 4"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "errors.py"],
                         ids=lambda path: path.name)
def test_only_errors_words_a_range_check(path):
    assert not hand_worded_range_checks(path.read_text())


def linear_model_reads(source: str) -> list[str]:
    """Where ``source`` names ``LinearModel`` or reads an attribute ``coef``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            hit = any(alias.name == "LinearModel" for alias in node.names)
        elif isinstance(node, ast.Name):
            hit = node.id == "LinearModel"
        elif isinstance(node, ast.Attribute):
            hit = node.attr in ("LinearModel", "coef")
        else:
            continue
        if hit:
            lines.add(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


def test_linear_model_reads_are_detected():
    source = ("from .regressors import LinearModel as Linear, Regressor\n"
              "isinstance(model, LinearModel)\n"
              "predint.regressors.LinearModel\n"
              "C = np.array([m.coef for m in models])\n"
              "coef, intercept = fit(X, y)\n"
              "from .regressors import LinearStack\n"
              '"LinearModel.coef"\n')
    assert linear_model_reads(source) == ["line 1", "line 2", "line 3", "line 4"]


# regressors.py owns LinearModel's parts; other modules predict through the
# models or their LinearStack, so a stacked rule has one home.
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "regressors.py"],
                         ids=lambda path: path.name)
def test_only_regressors_reads_a_linear_model(path):
    assert not linear_model_reads(path.read_text())


# The method table's protocol: the names its builders and the block loop share.
ENGINE_NAMES = ("_Block", "_check_method", "_query_rows", "_residual_quantiles", "_Fits")


def engine_leaks(source: str, owner: bool) -> list[str]:
    """Where ``source`` imports or reads one of ENGINE_NAMES, unless it is the
    ``owner`` of the table; or, if it is, where it imports experiments."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if (any(name.split(".")[-1] == "experiments" for name in names) if owner
                else any(name in ENGINE_NAMES for name in names)):
            found.append(f"line {node.lineno}")
    return found


def test_engine_leaks_are_detected():
    source = ("from .intervals import _Block, build_loo_cache\nimport predint.experiments\n"
              "from . import experiments\nfrom .experiments import run_trial\n"
              "intervals._Fits(train)\nfrom .intervals import _METHODS, _evaluate\n")
    assert engine_leaks(source, owner=False) == ["line 1", "line 5"]
    assert engine_leaks(source, owner=True) == ["line 2", "line 3", "line 4"]


# One module holds the method table, its builders, their sources and the block
# loop, so a new method or source edits that module alone.
@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_the_method_table_protocol_stays_in_intervals(path):
    assert not engine_leaks(path.read_text(), owner=path.name == "intervals.py")


@pytest.mark.parametrize("low, strict", [(None, False), (0, False), (0, True), (2.5, False)])
def test_require_finite_at_its_edges(low, strict):
    for bad in (math.nan, math.inf, -math.inf, np.float64(math.nan)):
        with pytest.raises(ConfigError, match="^x must be finite"):
            _require_finite("x", bad, low, strict)
    with pytest.raises(ConfigError, match="^x must be a real number, got True$"):
        _require_finite("x", True, low, strict)
    if low is None:
        assert _require_finite("x", -1e300) == -1e300
        return
    bound = f"{'>' if strict else '>='} {low}"
    below = low - 1
    with pytest.raises(ConfigError, match=f"^x must be finite and {bound}, got {below}$"):
        _require_finite("x", below, low, strict)
    if strict:
        with pytest.raises(ConfigError, match=f"^x must be finite and > {low}, got {low}$"):
            _require_finite("x", low, low, strict)
    else:
        assert _require_finite("x", low, low) == low
        if low == 0:
            assert _require_finite("x", -0.0, low) == 0.0
    assert _require_finite("x", np.float64(low + 1), low, strict) == low + 1


def test_require_int_at_its_bound():
    for low in (0, 1, 2):
        with pytest.raises(ConfigError, match=f"^n must be >= {low}, got {low - 1}$"):
            _require_int("n", low - 1, low)
        with pytest.raises(ConfigError, match=f"^n must be >= {low}, got {low - 1}$"):
            _require_int("n", np.int64(low - 1), low)
        assert _require_int("n", low, low) == low
        assert _require_int("n", np.int32(low), low) == low
    assert _require_int("n", -10**30) == -10**30  # no bound, no range check
    with pytest.raises(ConfigError, match="^n must be an integer, got True$"):
        _require_int("n", True, 0)


def test_require_fraction_is_open():
    for bad in (0, 1, 0.0, 1.0, -0.5, 1.5, math.nan, math.inf):
        with pytest.raises(ConfigError, match=rf"^p must be in \(0, 1\), got {bad}$"):
            _require_fraction("p", bad)
    with pytest.raises(ConfigError, match="^p must be a real number, got False$"):
        _require_fraction("p", False)
    for good in (1e-300, 0.5, np.float64(0.25), np.float32(0.75), 1 - 2**-53):
        assert _require_fraction("p", good) == good


def test_require_sequence_can_refuse_a_repeat():
    assert _require_sequence("xs", (1, 1)) == [1, 1]
    assert _require_sequence("xs", (1, 2), distinct=True) == [1, 2]
    for repeated in ((1, 1), (2, np.int64(2)), ("a", "b", "a")):
        shown = re.escape(str(list(repeated)))
        with pytest.raises(ConfigError, match=f"^xs must not repeat an entry, got {shown}$"):
            _require_sequence("xs", repeated, distinct=True)


def test_require_type_names_the_setting_and_the_type():
    ridge = Ridge()
    assert _require_type("regressor", ridge, predint.Regressor) is ridge
    with pytest.raises(ConfigError, match="^train must be a Dataset, got 5$"):
        _require_type("train", 5, Dataset)
    with pytest.raises(ConfigError, match=r"^spec must be an IntervalSpec, got \(0.1,\)$"):
        _require_type("spec", (0.1,), IntervalSpec)


TRAIN = Dataset(np.arange(12.0).reshape(6, 2), np.arange(6.0))


def gaussian_rows(size, seed):
    """A stability sampler: ``size`` Gaussian linear rows in 2 dimensions."""
    return gen_gaussian_linear(size, 2, seed)[0]


@pytest.mark.parametrize(
    "name, make",
    [
        ("grid_points", lambda v: MethodSpec("full-conformal", grid_points=v)),
        ("k_folds", lambda v: MethodSpec("cv+", k_folds=v)),
        ("k_folds", lambda v: build_loo_cache(TRAIN, MinNormOLS(), v)),
        ("k_folds", lambda v: default_method_list(12, v)),
        ("k", lambda v: KNN(k=v)),
    ],
    ids=["MethodSpec.grid_points", "MethodSpec.k_folds", "build_loo_cache.k_folds",
         "default_method_list.k_folds", "KNN.k"],
)
def test_integer_settings_reject_non_integers(name, make):
    for bad in (2.5, 3.0, np.float64(3.0), "3", True):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            make(bad)
    for good in (3, np.int64(3), np.int32(3)):
        make(good)


@pytest.mark.parametrize(
    "name, make",
    [
        ("trials", lambda v: figure2_experiment(n=10, d_list=(2,), trials=v, n_test=3)),
        ("n", lambda v: figure2_experiment(n=v, d_list=(2,), trials=1, n_test=3)),
        ("n_test", lambda v: figure2_experiment(n=5, d_list=(2,), trials=1, n_test=v)),
        ("n", lambda v: run_coverage_mc(n=v, d=2, trials=1, n_test=2)),
        ("n_test", lambda v: run_coverage_mc(n=6, d=2, trials=1, n_test=v)),
        ("n", lambda v: pathology_memorizer(n=v, trials=1, n_test=2)),
        ("n_test", lambda v: pathology_memorizer(n=4, trials=1, n_test=v)),
        ("n", parity_vacuity_slack),
        ("trials", lambda v: run_coverage_mc(n=6, d=2, trials=v, n_test=2)),
        ("trials", lambda v: pathology_memorizer(n=4, trials=v, n_test=2)),
        ("trials", lambda v: pathology_parity(n=40_000, trials=v, n_test=10)),
        ("n", lambda v: gen_gaussian_linear(v, 2, 1)),
        ("d", lambda v: gen_gaussian_linear(5, v, 1)),
        ("n", lambda v: gen_pathological_abc(v, 0.25, 0.05, 1)),
        ("n", lambda v: pathology_parity(n=v, trials=1, n_test=10)),
        ("n_test", lambda v: pathology_parity(n=40_000, trials=1, n_test=v)),
        ("trials", lambda v: run_audit(v, 3, 0.25, MinNormOLS())),
        ("n", lambda v: run_audit(1, v, 0.25, MinNormOLS())),
        ("d", lambda v: run_audit(1, 3, 0.25, MinNormOLS(), d=v)),
        ("n", lambda v: estimate_stability(MinNormOLS(), gaussian_rows, n=v, epsilon=0.1,
                                           trials=2)),
        ("trials", lambda v: estimate_stability(MinNormOLS(), gaussian_rows, n=5, epsilon=0.1,
                                                trials=v)),
    ],
    ids=["figure2_experiment.trials", "figure2_experiment.n", "figure2_experiment.n_test",
         "run_coverage_mc.n", "run_coverage_mc.n_test", "pathology_memorizer.n",
         "pathology_memorizer.n_test", "parity_vacuity_slack.n",
         "run_coverage_mc.trials", "pathology_memorizer.trials",
         "pathology_parity.trials", "gen_gaussian_linear.n", "gen_gaussian_linear.d",
         "gen_pathological_abc.n", "pathology_parity.n", "pathology_parity.n_test",
         "run_audit.trials", "run_audit.n", "run_audit.d", "estimate_stability.n",
         "estimate_stability.trials"],
)
def test_integer_sizes_reject_non_integers(name, make):
    # Sizes reach range() or numpy shapes, which raised a raw TypeError.
    for bad in (2.5, 40_000.0, np.float64(3.0), "3", True):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            make(bad)


@pytest.mark.parametrize(
    "name, make",
    [
        ("inflation_eps", lambda v: IntervalSpec(0.1, inflation_eps=v)),
        ("grid bounds", lambda v: MethodSpec("full-conformal", grid_lower=v)),
        ("grid bounds", lambda v: MethodSpec("full-conformal", grid_upper=v)),
        ("ridge lambda_rel", lambda v: Ridge(lambda_rel=v)),
        ("memorizer eps", lambda v: Memorizer(eps=v)),
        ("tau", lambda v: ParityAdversary(tau=v)),
        ("tau", lambda v: gen_pathological_abc(5, 0.25, 0.05, 1, tau=v)),
        ("epsilon", lambda v: estimate_stability(MinNormOLS(), gaussian_rows, n=5, epsilon=v)),
        ("eps", lambda v: pathology_parity(n=40_000, eps=v, trials=1, n_test=10)),
        ("alpha", lambda v: pathology_parity(n=40_000, alpha=v, trials=1, n_test=10)),
        ("gamma", lambda v: pathology_parity(n=40_000, gamma=v, trials=1, n_test=10)),
        ("holdout_fraction", lambda v: SplitSpec(holdout_fraction=v)),
        ("split_holdout", lambda v: MethodSpec("split", split_holdout=v)),
    ],
    ids=["IntervalSpec.inflation_eps", "MethodSpec.grid_lower", "MethodSpec.grid_upper",
         "Ridge.lambda_rel",
         "Memorizer.eps", "ParityAdversary.tau", "gen_pathological_abc.tau",
         "estimate_stability.epsilon", "pathology_parity.eps", "pathology_parity.alpha",
         "pathology_parity.gamma", "SplitSpec.holdout_fraction", "MethodSpec.split_holdout"],
)
def test_real_settings_reject_non_reals(name, make):
    # Each reached a float comparison or math.isfinite, which raised a raw
    # TypeError on a string or accepted a bool as 0 or 1.
    for bad in ("1", True, 1j):
        with pytest.raises(ConfigError, match=f"{name} must be a real number"):
            make(bad)


@pytest.mark.parametrize("make", [lambda v: Ridge(intercept=v),
                                  lambda v: make_regressor("ridge", intercept=v)],
                         ids=["Ridge.intercept", "make_regressor.intercept"])
def test_ridge_intercept_must_be_a_bool(make):
    # A truthy string fitted with an intercept and None without one.
    for bad in ("False", None, 0, 1):
        with pytest.raises(ConfigError, match="ridge intercept must be a bool"):
            make(bad)
    for good in (True, False, np.bool_(False)):
        assert make(good).intercept == good


def run_command(line):
    """Run the CLI command ``line`` and let its error propagate (main would
    print it and exit 2 or 3)."""
    args = build_parser().parse_args(line.split())
    return args.func(args)


@pytest.mark.parametrize(
    "error, message, make",
    [
        (DataError, "features and responses must be arrays of numbers",
         lambda: Dataset("abc", [1.0])),
        (DataError, "features and responses must be arrays of numbers",
         lambda: Dataset([[1.0, 2.0], [3.0]], [1.0, 2.0])),
        (ConfigError, "row indices must be integers", lambda: TRAIN.take([0.5])),
        (ConfigError, "row indices must be integers", lambda: TRAIN.drop([1.7])),
        (ConfigError, r"row indices must lie in \[0, 6\)", lambda: TRAIN.take([100])),
        (ConfigError, r"row indices must lie in \[0, 6\)", lambda: TRAIN.drop([-1])),
        (ConfigError, "k must be an integer", lambda: TRAIN.head("3")),
        (ConfigError, r"k must lie in \[0, 6\]", lambda: TRAIN.tail_from(7)),
        (DataError, "query points must be numbers",
         lambda: evaluate_methods(TRAIN, "ab", MinNormOLS(), [MethodSpec("naive")],
                                  [IntervalSpec(0.1)])),
        (ConfigError, "values must be numbers", lambda: upper_quantile("abc", 0.1)),
        (ConfigError, "n must be >= 0", lambda: upper_index(-5, 0.1)),
        (ConfigError, "n must be an integer", lambda: default_method_list("10")),
        (ConfigError, "d must be >= 1, got 0$", lambda: run_audit(1, 10, 0.1, MinNormOLS(), d=0)),
        (ConfigError, "d must be >= 1, got 0$",
         lambda: run_coverage_mc(n=6, d=0, trials=1, n_test=2)),
        (ConfigError, "d must be >= 1, got 0$", lambda: run_command("audit --n 10 --d 0")),
        (ConfigError, "d must be >= 1, got 0$", lambda: run_command("stability --n 6 --d 0")),
        (ConfigError, "d must be >= 1, got 0$",
         lambda: run_command("simulate --experiment coverage-mc --d 0")),
        # Every range rule in one wording, from errors.py.
        (ConfigError, "trials must be >= 1, got 0$", lambda: run_audit(0, 10, 0.1, MinNormOLS())),
        (ConfigError, "n must be >= 1, got 0$", lambda: gen_gaussian_linear(0, 2, 1)),
        (ConfigError, "d must be >= 1, got 0$", lambda: gen_gaussian_linear(5, 0, 1)),
        (ConfigError, "n must be >= 1, got 0$", lambda: gen_pathological_abc(0, 0.25, 0.05, 1)),
        (ConfigError, "k_folds must be >= 1, got 0$", lambda: MethodSpec("cv+", k_folds=0)),
        (ConfigError, "k_folds must be >= 1, got 0$", lambda: default_method_list(10, 0)),
        (ConfigError, "trials must be >= 1, got 0$",
         lambda: figure2_experiment(n=10, d_list=(2,), trials=0, n_test=3)),
        (ConfigError, "d must be >= 1, got 0$",
         lambda: figure2_experiment(n=10, d_list=(2, 0), trials=1, n_test=3)),
        (ConfigError, "n_test must be >= 1, got 0$",
         lambda: run_trial(TRAIN, TRAIN.head(0), MinNormOLS(), [MethodSpec("naive")],
                           [IntervalSpec(0.1)])),
        (ConfigError, "n_test must be >= 1, got 0$",
         lambda: pathology_parity(n=40_000, trials=1, n_test=0)),
        (ConfigError, "n must be >= 1, got 0$", lambda: pathology_parity(n=0, trials=1, n_test=10)),
        (ConfigError, "n must be >= 0, got -5$", lambda: lower_index(-5, 0.1)),
        (ConfigError, "k must be >= 1, got 0$", lambda: KNN(k=0)),
        (ConfigError, "n must be >= 2, got 1$",
         lambda: estimate_stability(MinNormOLS(), gaussian_rows, n=1, epsilon=0.1, trials=2)),
        (ConfigError, "trials must be >= 1, got 0$",
         lambda: estimate_stability(MinNormOLS(), gaussian_rows, n=5, epsilon=0.1, trials=0)),
        (ConfigError, "inflation_eps must be finite and >= 0, got -1.0$",
         lambda: IntervalSpec(0.1, inflation_eps=-1.0)),
        (ConfigError, "grid bounds must be finite, got inf$",
         lambda: MethodSpec("full-conformal", grid_lower=math.inf)),
        (ConfigError, "tau must be finite, got nan$",
         lambda: gen_pathological_abc(5, 0.25, 0.05, 1, tau=math.nan)),
        (ConfigError, "ridge lambda_rel must be finite and >= 0, got -1.0$",
         lambda: Ridge(lambda_rel=-1.0)),
        (ConfigError, "memorizer eps must be finite and > 0, got 0.0$", lambda: Memorizer(eps=0.0)),
        (ConfigError, "tau must be finite, got -inf$", lambda: ParityAdversary(tau=-math.inf)),
        (ConfigError, "epsilon must be finite and >= 0, got -0.5$",
         lambda: estimate_stability(MinNormOLS(), gaussian_rows, n=5, epsilon=-0.5)),
        (ConfigError, "eps must be finite and > 0, got 0.0$",
         lambda: pathology_parity(n=40_000, eps=0.0, trials=1, n_test=10)),
        (ConfigError, r"holdout_fraction must be in \(0, 1\), got 1.0$",
         lambda: SplitSpec(holdout_fraction=1.0)),
        (ConfigError, r"split_holdout must be in \(0, 1\), got 0.0$",
         lambda: MethodSpec("split", split_holdout=0.0)),
        (ConfigError, r"alpha must be in \(0, 1\), got 1.0$",
         lambda: pathology_parity(n=40_000, alpha=1.0, trials=1, n_test=10)),
        (ConfigError, r"gamma must be in \(0, 1\), got 0.0$",
         lambda: pathology_parity(n=40_000, gamma=0.0, trials=1, n_test=10)),
        (ConfigError, r"d_list must not repeat an entry, got \[2, 2\]$",
         lambda: figure2_experiment(n=10, d_list=(2, 2), trials=1, n_test=3)),
        (ConfigError, r"regressors must not repeat an entry, got \['mean', 'mean'\]$",
         lambda: run_coverage_mc(n=6, d=2, trials=1, n_test=2, regressors=("mean", "mean"))),
        (ConfigError, r"alphas must not repeat an entry, got \[0.1, 0.1\]$",
         lambda: run_coverage_mc(n=6, d=2, trials=1, n_test=2, alphas=(0.1, 0.1))),
        # The retired grid= keyword fails at the constructor, as Python's own TypeError.
        (TypeError, r"MethodSpec.__init__\(\) got an unexpected keyword argument 'grid'$",
         lambda: MethodSpec("naive", grid=5)),
        # The experiment drivers check their own sizes before the first draw.
        (ConfigError, "n must be >= 1, got -5$",
         lambda: figure2_experiment(n=-5, d_list=(2,), trials=1, n_test=3)),
        (ConfigError, "n_test must be >= 1, got -3$",
         lambda: figure2_experiment(n=5, d_list=(2,), trials=1, n_test=-3)),
        (ConfigError, "n must be >= 1, got -5$",
         lambda: run_coverage_mc(n=-5, d=2, trials=1, n_test=2)),
        (ConfigError, "n_test must be >= 1, got -3$",
         lambda: run_coverage_mc(n=6, d=2, trials=1, n_test=-3)),
        (ConfigError, "n must be >= 1, got -5$",
         lambda: pathology_memorizer(n=-5, trials=1, n_test=2)),
        (ConfigError, "n_test must be >= 1, got -3$",
         lambda: pathology_memorizer(n=4, trials=1, n_test=-3)),
        (ConfigError, "n must be >= 1, got 0$", lambda: parity_vacuity_slack(0)),
        (ConfigError, "n must be >= 1, got -5$",
         lambda: run_command("simulate --experiment figure2 --n -5")),
        (ConfigError, "n must be >= 1, got -5$",
         lambda: run_command("simulate --experiment coverage-mc --n -5")),
        (ConfigError, "n_test must be >= 1, got -3$",
         lambda: run_command("simulate --experiment coverage-mc --n-test -3")),
        # Wrong-typed core arguments, which raised AttributeError.
        (ConfigError, f"train must be a Dataset, got {re.escape(repr(TRAIN.features))}$",
         lambda: evaluate_methods(TRAIN.features, TRAIN.features, MinNormOLS(),
                                  [MethodSpec("naive")], [IntervalSpec(0.1)])),
        (ConfigError, f"test must be a Dataset, got {re.escape(repr(TRAIN.features))}$",
         lambda: run_trial(TRAIN, TRAIN.features, MinNormOLS(), [MethodSpec("naive")],
                           [IntervalSpec(0.1)])),
        (ConfigError, "regressor must be a Regressor, got None$",
         lambda: evaluate_methods(TRAIN, TRAIN.features, None, [MethodSpec("naive")],
                                  [IntervalSpec(0.1)])),
        (ConfigError, f"cache must be a LooCache, got {re.escape(repr(TRAIN))}$",
         lambda: jackknife_plus(TRAIN, IntervalSpec(0.1), [0.0, 1.0])),
        (ConfigError, "spec must be an IntervalSpec, got 0.1$",
         lambda: cv_plus(build_loo_cache(TRAIN, MinNormOLS()), 0.1, [0.0, 1.0])),
        (ConfigError, f"train must be a Dataset, got {re.escape(repr(TRAIN.features))}$",
         lambda: build_loo_cache(TRAIN.features, MinNormOLS())),
        (ConfigError, "regressor must be a Regressor, got 'ols'$",
         lambda: build_loo_cache(TRAIN, "ols")),
        (ConfigError, "regressor must be a Regressor, got 'ols'$",
         lambda: estimate_stability("ols", gaussian_rows, n=5, epsilon=0.1)),
        (ConfigError, "regressor must be a Regressor, got 'ols'$",
         lambda: run_audit(1, 5, 0.1, "ols")),
        (ConfigError, "regressor must be a Regressor, got 'ols'$",
         lambda: audit_instance(TRAIN, "ols", 0.1)),
        (ConfigError, "regressor must be a Regressor, got 'ols'$",
         lambda: residual_matrix(TRAIN, "ols")),
        (ConfigError, "regressor must be a Regressor, got 'ols'$", lambda: LooCache(TRAIN, "ols")),
        (ConfigError, f"train must be a Dataset, got {re.escape(repr(TRAIN.features))}$",
         lambda: LooCache(TRAIN.features, MinNormOLS())),
        (ConfigError, f"data must be a Dataset, got {re.escape(repr(TRAIN.features))}$",
         lambda: audit_instance(TRAIN.features, MinNormOLS(), 0.1)),
        (ConfigError, f"data must be a Dataset, got {re.escape(repr(TRAIN.features))}$",
         lambda: residual_matrix(TRAIN.features, MinNormOLS())),
        # An unhashable entry of a no-repeat sequence, which raised a raw TypeError.
        (ConfigError, r"d_list must hold hashable entries, got \[\[2\]\]$",
         lambda: figure2_experiment(n=10, d_list=[[2]], trials=1, n_test=3)),
        (ConfigError, r"alphas must hold hashable entries, got \[\[0.1\]\]$",
         lambda: run_coverage_mc(n=6, d=2, trials=1, n_test=2, alphas=[[0.1]])),
        # An integer past float range, which raised a raw OverflowError.
        (ConfigError, f"ridge lambda_rel must be finite and >= 0, got {10**400}$",
         lambda: Ridge(lambda_rel=10**400)),
        (ConfigError, f"inflation_eps must be finite and >= 0, got {10**400}$",
         lambda: IntervalSpec(0.1, inflation_eps=10**400)),
        (ConfigError, f"memorizer eps must be finite and > 0, got {10**400}$",
         lambda: Memorizer(eps=10**400)),
        (ConfigError, f"eps must be finite and > 0, got {10**400}$",
         lambda: pathology_parity(n=40_000, eps=10**400, trials=1, n_test=10)),
        (ConfigError, f"epsilon must be finite and >= 0, got {10**400}$",
         lambda: estimate_stability(MinNormOLS(), gaussian_rows, n=5, epsilon=10**400)),
        (ConfigError, f"grid bounds must be finite, got {10**400}$",
         lambda: MethodSpec("full-conformal", grid_lower=10**400)),
        (ConfigError, f"alpha must be finite, got {10**400}$",
         lambda: gen_pathological_abc(5, 10**400, 0.05, 1)),
        (ConfigError, f"gamma must be finite, got {10**400}$",
         lambda: gen_pathological_abc(5, 0.25, 10**400, 1)),
        (ConfigError, f"n must be finite, got {10**400}$", lambda: parity_vacuity_slack(10**400)),
        (ConfigError, f"n must be finite, got {10**400}$",
         lambda: coverage_lower_bounds(0.1, 0.0, 10**400, 5)),
        (ConfigError, f"n must be finite, got {10**400}$",
         lambda: SplitSpec(0.5).resolve(10**400)),
    ],
    ids=["Dataset.text", "Dataset.ragged", "Dataset.take.fraction", "Dataset.drop.fraction",
         "Dataset.take.out_of_range", "Dataset.drop.negative", "Dataset.head.text",
         "Dataset.tail_from.past_the_end", "evaluate_methods.X_test", "upper_quantile.values",
         "upper_index.n", "default_method_list.n", "run_audit.d",
         "run_coverage_mc.d", "cli.audit.d", "cli.stability.d", "cli.coverage-mc.d",
         "run_audit.trials", "gen_gaussian_linear.n", "gen_gaussian_linear.d",
         "gen_pathological_abc.n", "MethodSpec.k_folds", "default_method_list.k_folds",
         "figure2_experiment.trials", "figure2_experiment.d", "run_trial.n_test",
         "pathology_parity.n_test", "pathology_parity.n", "lower_index.n", "KNN.k",
         "estimate_stability.n", "estimate_stability.trials", "IntervalSpec.inflation_eps",
         "MethodSpec.grid_lower", "gen_pathological_abc.tau", "Ridge.lambda_rel", "Memorizer.eps",
         "ParityAdversary.tau", "estimate_stability.epsilon", "pathology_parity.eps",
         "SplitSpec.holdout_fraction", "MethodSpec.split_holdout", "pathology_parity.alpha",
         "pathology_parity.gamma", "figure2_experiment.d_list", "run_coverage_mc.regressors",
         "run_coverage_mc.alphas", "MethodSpec.grid", "figure2_experiment.n",
         "figure2_experiment.n_test", "run_coverage_mc.n", "run_coverage_mc.n_test",
         "pathology_memorizer.n", "pathology_memorizer.n_test", "parity_vacuity_slack.n",
         "cli.figure2.n", "cli.coverage-mc.n", "cli.coverage-mc.n-test",
         "evaluate_methods.train", "run_trial.test", "evaluate_methods.regressor",
         "jackknife_plus.cache", "cv_plus.spec", "build_loo_cache.train",
         "build_loo_cache.regressor", "estimate_stability.regressor", "run_audit.regressor",
         "audit_instance.regressor", "residual_matrix.regressor", "LooCache.regressor",
         "LooCache.train", "audit_instance.data", "residual_matrix.data",
         "figure2_experiment.d_list.unhashable", "run_coverage_mc.alphas.unhashable",
         "Ridge.lambda_rel.overflow", "IntervalSpec.inflation_eps.overflow",
         "Memorizer.eps.overflow", "pathology_parity.eps.overflow",
         "estimate_stability.epsilon.overflow", "MethodSpec.grid_lower.overflow",
         "gen_pathological_abc.alpha.overflow", "gen_pathological_abc.gamma.overflow",
         "parity_vacuity_slack.n.overflow", "coverage_lower_bounds.n.overflow",
         "SplitSpec.resolve.n.overflow"],
)
def test_bad_input_fails_at_the_boundary(error, message, make):
    # Each raised a raw ValueError, IndexError, TypeError or AttributeError,
    # returned a wrong row or index, or named an n that was never given.
    with pytest.raises(error, match=f"^{message}"):
        make()


def test_methods_table_names_resolve():
    # Each row of README's methods table names its builder and its token. A
    # method that reads no cache is built by evaluate_methods alone; every
    # other row names a public function over a cache, run on one query point.
    # So the table cannot name a retired function or miss a token, and a
    # refitting one-point function cannot come back unnoticed.
    section = README.read_text().split("## Methods and guarantees", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]
    built_by = {}
    for row in rows:
        (name,), (token,) = (re.findall(r"`([^`]+)`", cell) for cell in row.split("|")[1:3])
        built_by[token] = name
    assert list(built_by) == list(predint.METHOD_TOKENS)
    for token, name in built_by.items():
        if _METHODS[token].folds is None:
            assert name == "evaluate_methods", token
        else:
            assert name in predint.__all__, token
            assert next(iter(inspect.signature(getattr(predint, name)).parameters)) == "cache"


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    # bench/tracer.py wraps each predint.<layer> and reads vars(cls)[method]
    # for the methods it spans, so a renamed or removed one would end every
    # traced benchmark run with a KeyError. Read without importing the tracer.
    source = (README.parent / "bench" / "tracer.py").read_text()
    assigned = {node.targets[0].id: ast.literal_eval(node.value)
                for node in ast.parse(source).body
                if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("LAYERS", "METHODS")}
    assert set(assigned) == {"LAYERS", "METHODS"}
    modules = {layer: importlib.import_module(f"predint.{layer}") for layer in assigned["LAYERS"]}
    for layer, classes in assigned["METHODS"].items():
        for cls_name, methods in classes.items():
            cls = getattr(modules[layer], cls_name)
            assert [m for m in methods if m not in vars(cls)] == [], cls_name
