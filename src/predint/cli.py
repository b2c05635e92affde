"""Command-line front end.

Four subcommands: ``intervals`` (score a test file), ``simulate`` (coverage
experiments), ``audit`` (strange-set counting checks), ``stability``
(perturb-one-point estimates). Every output CSV starts with '#'-prefixed
comment lines echoing the resolved configuration, and all randomness flows
from --seed, so a rerun with the same flags is byte-identical.

Exit codes: 0 success, 1 audit violation, 2 configuration error, 3 data
error.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
import warnings

from .audit import VARIANTS, run_audit
from .dataset import _load_columns, _load_dataset, gen_gaussian_linear
from .errors import ConfigError, DataError, PredintError
from .experiments import (default_method_list, figure2_experiment, pathology_memorizer,
                          pathology_parity, run_coverage_mc)
from .intervals import METHOD_TOKENS, IntervalSpec, MethodSpec, PredictionSet, _evaluate, _scored
from .regressors import (KNN, REGRESSOR_TOKENS, _SETTINGS, Memorizer, ParityAdversary, Ridge,
                         make_regressor)
from .stability import KINDS, coverage_lower_bounds, estimate_stability

EXPERIMENTS = ("figure2", "coverage-mc", "pathology-memorizer", "pathology-parity")


def _fmt(value) -> str:
    """Full-precision, locale-free cell formatting; inf prints as inf/-inf."""
    return repr(float(value))


def format_object(obj) -> tuple[str, str, str]:
    """(lower, upper, components) cells for an interval or set.

    Sets list every component as "l:u" joined by ";", with lower/upper giving
    the hull; an empty set has lower=inf, upper=-inf and no components.
    """
    if isinstance(obj, PredictionSet):
        comps = ";".join(f"{_fmt(iv.lower)}:{_fmt(iv.upper)}" for iv in obj.intervals)
        lower = obj.intervals[0].lower if obj.intervals else math.inf
        upper = obj.intervals[-1].upper if obj.intervals else -math.inf
        return _fmt(lower), _fmt(upper), comps
    return _interval_cells(obj.lower, obj.upper)


def _interval_cells(lower, upper) -> tuple[str, str, str]:
    """:func:`format_object`'s cells for the interval [lower, upper]."""
    return _fmt(lower), _fmt(upper), f"{_fmt(lower)}:{_fmt(upper)}"


def _parse_list(text: str, parse=str, error: str = "") -> list:
    """The non-blank entries of a comma-separated flag value, each stripped and
    passed through ``parse``. An entry ``parse`` rejects with ValueError is a
    ConfigError whose message is ``error`` formatted with the whole value
    (``text``) and the entry (``token``)."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok:
            try:
                out.append(parse(tok))
            except ValueError:
                raise ConfigError(error.format(text=text, token=tok)) from None
    return out


def _fold_count(token: str) -> int | None:
    """A --k-list entry: an integer K, or 'n' (any case) for K = n, as None."""
    return None if token.lower() == "n" else int(token)


def _write_output(out_path: str | None, echo: dict, subcommand: str, header, rows) -> None:
    """Write the echo lines, the header and each row as it is formatted.

    ``rows`` may be a generator, so no list of lines or joined text is held.
    If a row fails, ``out_path`` is removed when it names a regular file this
    call opened, so no partial CSV is left; a path that is a symlink or a
    device, such as /dev/stdout, is never unlinked.
    """
    if not out_path:
        _write_lines(sys.stdout, echo, subcommand, header, rows)
        return
    with _create(out_path, "--out", newline="") as handle:
        opened = os.fstat(handle.fileno())
        try:
            _write_lines(handle, echo, subcommand, header, rows)
        except BaseException:
            handle.close()
            if stat.S_ISREG(opened.st_mode) and os.path.samestat(opened, os.lstat(out_path)):
                os.unlink(out_path)
            raise


def _create(path: str, flag: str, newline=None):
    """``path`` opened for writing, or a ConfigError naming ``flag`` and it."""
    try:
        return open(path, "w", newline=newline)
    except OSError as exc:
        raise ConfigError(f"cannot write {flag} {path}: {exc.strerror or exc}") from None


def _write_lines(handle, echo: dict, subcommand: str, header, rows) -> None:
    handle.write(f"# predint {subcommand}\n")
    for key in sorted(echo):
        handle.write(f"# {key}={echo[key]}\n")
    handle.write(",".join(header) + "\n")
    for row in rows:
        handle.write(",".join(str(cell) for cell in row) + "\n")


def _regressor(args):
    """The regressor the flags name, and its echo, read back from its fields."""
    regressor = make_regressor(args.regressor, **{name: getattr(args, name) for name in _SETTINGS})
    echo = {name: getattr(regressor, field)
            for name, (token, field) in _SETTINGS.items() if token == regressor.token}
    return regressor, {"regressor": regressor.token, **echo}


# Parsed flags that no echo lists as given: the parser's own entries, the
# output paths, and the flags a command echoes as it resolved them.
_UNECHOED = {"command", "func", "out", "replay_out", "method", "regressor", *_SETTINGS}


def _echo(args, **resolved) -> dict:
    """Every parsed flag outside ``_UNECHOED``, and what the command resolved."""
    return {**{key: value for key, value in vars(args).items() if key not in _UNECHOED},
            **resolved}


def cmd_intervals(args) -> int:
    # Test columns are fed by position, so their names must match.
    names, train = _load_dataset(args.train, args.target)
    test_names, X_test, y_test = _load_columns(args.test, args.target)
    if test_names != names:
        raise DataError(f"{args.test}: feature columns {test_names} do not match "
                        f"the training file's {names}")
    tokens = args.method or ["jackknife+"]
    methods = [MethodSpec(token, k_folds=args.k, split_holdout=args.split_fraction,
                          grid_points=args.grid_points, grid_lower=args.grid_lower,
                          grid_upper=args.grid_upper) for token in tokens]
    spec = IntervalSpec(
        alpha=args.alpha,
        alpha_lo=args.alpha_lo,
        alpha_hi=args.alpha_hi,
        inflation_eps=args.eps,
    )
    regressor, regressor_echo = _regressor(args)
    results = _evaluate(train, X_test, regressor, methods, [spec], args.seed, args.strict_folds)
    hits = [None if y_test is None else _scored(ends, y_test)[0] for (ends,) in results]

    def rows():
        for j in range(len(X_test)):
            for token, (ends,), hit in zip(tokens, results, hits):
                cells = (format_object(ends[j]) if isinstance(ends, list)
                         else _interval_cells(ends[0][j], ends[1][j]))
                covered = "" if hit is None else ("1" if hit[j] else "0")
                yield [j, token, _fmt(spec.alpha), *cells, covered]

    _write_output(
        args.out,
        _echo(args, k=args.k or "n", methods=";".join(tokens), **regressor_echo),
        "intervals",
        ["test_index", "method", "alpha", "lower", "upper", "components", "covered"],
        rows(),
    )
    return 0


# The simulate flags left unset resolve to these, except for pathology-parity,
# which takes pathology_parity's own defaults for them.
_SIMULATE_DEFAULTS = {"n": 100, "trials": 20, "n_test": 100, "alpha": 0.1}
# The flags each experiment reads, echoed after experiment and seed;
# pathology-parity echoes the values pathology_parity resolved instead.
_SIMULATE_ECHO = {
    "figure2": ("n", "d_list", "trials", "n_test", "alpha"),
    "coverage-mc": ("n", "d", "trials", "n_test", "alphas", "regressors", "k_list"),
    "pathology-memorizer": ("n", "trials", "n_test", "alpha", "memorizer_eps"),
}


def cmd_simulate(args) -> int:
    given = {key: value for key in _SIMULATE_DEFAULTS
             if (value := getattr(args, key)) is not None}
    if args.experiment != "pathology-parity":
        vars(args).update(_SIMULATE_DEFAULTS, **given)
    echo = {key: getattr(args, key)
            for key in ("experiment", "seed", *_SIMULATE_ECHO.get(args.experiment, ()))}
    if args.experiment == "figure2":
        d_list = _parse_list(args.d_list, int,
                             "expected a comma-separated list of integers, got {text!r}")
        methods = default_method_list(args.n, args.k)
        echo["k"] = next(m.k_folds for m in methods if m.method == "cv+") or "n"
        results = figure2_experiment(
            n=args.n, d_list=d_list, trials=args.trials, n_test=args.n_test,
            alpha=args.alpha, seed=args.seed, methods=methods,
        )
        header = ["d", "method", "coverage_mean", "coverage_se", "width_mean", "width_se"]
        rows = [
            [d, label, _fmt(report.coverage_mean), _fmt(report.coverage_se),
             _fmt(report.width_mean), _fmt(report.width_se)]
            for d in d_list for label, report in results[d].items()
        ]
    elif args.experiment == "coverage-mc":
        alphas = _parse_list(args.alphas, float,
                             "expected a comma-separated list of numbers, got {text!r}")
        k_list = _parse_list(args.k_list, _fold_count,
                             "fold counts must be integers or 'n', got {token!r}")
        regressors = _parse_list(args.regressors)
        header = ["regressor", "method", "alpha", "coverage_mean", "coverage_se",
                  "width_mean", "width_se", "infinite_count", "bound"]
        rows = []
        for row in run_coverage_mc(
            n=args.n, d=args.d, trials=args.trials, n_test=args.n_test,
            alphas=alphas, regressors=regressors, k_list=k_list, seed=args.seed,
        ):
            rep = row["report"]
            rows.append(
                [row["regressor"], row["method"], _fmt(row["alpha"]),
                 _fmt(rep.coverage_mean), _fmt(rep.coverage_se),
                 _fmt(rep.width_mean), _fmt(rep.width_se),
                 rep.infinite_count, _fmt(row["bound"])]
            )
    elif args.experiment == "pathology-memorizer":
        reports = pathology_memorizer(
            n=args.n, eps=args.memorizer_eps, trials=args.trials,
            n_test=args.n_test, alpha=args.alpha, seed=args.seed,
        )
        header = ["method", "trials", "coverage_mean", "coverage_min", "coverage_max",
                  "width_mean"]
        rows = [
            [label, rep.trials, _fmt(rep.coverage_mean),
             _fmt(min(rep.coverages)), _fmt(max(rep.coverages)), _fmt(rep.width_mean)]
            for label, rep in reports.items()
        ]
    else:  # pathology-parity
        result = pathology_parity(eps=args.eps, seed=args.seed, gamma=args.gamma, tau=args.tau,
                                  **given)
        rep = result.report
        echo.update(n=result.n, trials=rep.trials, n_test=result.n_test, alpha=result.alpha,
                    eps=result.eps)
        header = ["n", "alpha", "eps", "gamma", "tau", "evals", "coverage_mean",
                  "coverage_se", "bound_upper"]
        rows = [[
            result.n, _fmt(result.alpha), _fmt(result.eps), _fmt(result.gamma),
            _fmt(result.tau), rep.trials * result.n_test, _fmt(rep.coverage_mean),
            _fmt(rep.coverage_se), _fmt(result.bound_upper),
        ]]
    _write_output(args.out, echo, "simulate", header, rows)
    return 0


def cmd_audit(args) -> int:
    regressor, regressor_echo = _regressor(args)
    violations = run_audit(
        trials=args.trials, n=args.n, alpha=args.alpha, regressor=regressor,
        variant=args.variant, seed=args.seed, d=args.d,
    )
    _write_output(
        args.out, _echo(args, **regressor_echo), "audit",
        ["trials", "n", "alpha", "variant", "violations"],
        [[args.trials, args.n, _fmt(args.alpha), args.variant, len(violations)]],
    )
    if violations:
        import json  # only a failed audit writes JSON; a clean run never loads it

        failed = f"audit FAILED: {len(violations)} violation(s)"
        try:
            handle = _create(args.replay_out, "--replay-out")
        except ConfigError as exc:
            raise ConfigError(f"{failed}; {exc}") from None
        with handle:
            json.dump(violations, handle, indent=2, sort_keys=True)
        print(f"{failed}; instances written to {args.replay_out}", file=sys.stderr)
        return 1
    return 0


def cmd_stability(args) -> int:
    regressor, regressor_echo = _regressor(args)

    def sampler(size: int, seed: int):
        return gen_gaussian_linear(size, args.d, seed)[0]

    est = estimate_stability(
        regressor, sampler, n=args.n, epsilon=args.epsilon, kind=args.kind,
        trials=args.trials, seed=args.seed,
    )
    bounds = coverage_lower_bounds(args.alpha, est.nu_hat, args.n, args.n)
    _write_output(
        args.out, _echo(args, **regressor_echo), "stability",
        ["kind", "n", "epsilon", "trials", "violations", "nu_hat", "se",
         "bound_jackknife_eps", "bound_jackknife_plus_2eps", "bound_naive_2eps"],
        [[est.kind, est.n, _fmt(est.epsilon), est.trials, est.violations,
          _fmt(est.nu_hat), _fmt(est.se),
          _fmt(bounds["jackknife_eps_inflated"]),
          _fmt(bounds["jackknife_plus_2eps_inflated"]),
          _fmt(bounds["naive_2eps_inflated"])]],
    )
    return 0


def _add_regressor_flags(parser: argparse.ArgumentParser, default: str = "ols") -> None:
    parser.add_argument("--regressor", choices=REGRESSOR_TOKENS, default=default)
    parser.add_argument("--ridge-lambda", type=float, default=Ridge.lambda_rel,
                        help="relative ridge penalty (times squared spectral norm)")
    parser.add_argument("--no-intercept", dest="intercept", action="store_false",
                        help="drop the unpenalized ridge intercept")
    parser.add_argument("--knn-k", type=int, default=KNN.k)
    parser.add_argument("--memorizer-eps", type=float, default=Memorizer.eps)
    parser.add_argument("--parity-tau", type=float, default=ParityAdversary.tau)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predint",
        description="Distribution-free prediction intervals and coverage audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("intervals", help="score a test file with one or more methods")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--target", default="y")
    p.add_argument("--method", action="append",
                   help=f"repeatable; one of {', '.join(METHOD_TOKENS)} (default jackknife+)")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--alpha-lo", type=float, default=None)
    p.add_argument("--alpha-hi", type=float, default=None)
    p.add_argument("--eps", type=float, default=IntervalSpec.inflation_eps,
                   help="epsilon inflation")
    p.add_argument("--k", type=int, default=None, help="folds for cv+/cross-conformal (default n)")
    p.add_argument("--strict-folds", action="store_true")
    p.add_argument("--split-fraction", type=float, default=MethodSpec.split_holdout)
    p.add_argument("--grid-points", type=int, default=MethodSpec.grid_points)
    p.add_argument("--grid-lower", type=float, default=None)
    p.add_argument("--grid-upper", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    _add_regressor_flags(p)
    p.set_defaults(func=cmd_intervals)

    p = sub.add_parser("simulate", help="run a coverage experiment")
    p.add_argument("--experiment", choices=EXPERIMENTS, required=True)
    for key, default in _SIMULATE_DEFAULTS.items():
        p.add_argument("--" + key.replace("_", "-"), type=type(default),
                       help=f"default {default}; pathology-parity: pathology_parity's default")
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--d-list", default="20,100,180")
    p.add_argument("--alphas", default="0.1,0.2")
    p.add_argument("--regressors", default="mean,ols")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--k-list", default="2,5,n")
    p.add_argument("--eps", type=float, default=0.01,
                   help="inflation epsilon for pathology-parity")
    p.add_argument("--memorizer-eps", type=float, default=Memorizer.eps)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("audit", help="strange-set counting audit on random instances")
    p.add_argument("--n", type=int, default=10, help="training rows per instance (max 30)")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--variant", choices=VARIANTS, default="both")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--replay-out", default="audit_violations.json")
    _add_regressor_flags(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("stability", help="estimate (epsilon, nu) stability by Monte Carlo")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--kind", choices=KINDS, default="out_of_sample")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    _add_regressor_flags(p, default="knn")
    p.set_defaults(func=cmd_stability)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            return args.func(args)
    except PredintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, DataError) else 2


def _warning_line(message, *_) -> None:
    """Show a warning as one ``warning: <message>`` line on stderr."""
    print(f"warning: {message}", file=sys.stderr)


def console_main() -> None:
    """The installed ``predint`` script: exits with :func:`main`'s return code."""
    sys.exit(main())


if __name__ == "__main__":
    console_main()
