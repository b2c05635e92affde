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
import json
import math
import os
import stat
import sys

from .audit import VARIANTS, run_audit
from .dataset import _load_columns, gen_gaussian_linear, load_csv, load_features_csv
from .errors import ConfigError, DataError, PredintError
from .experiments import (
    MethodSpec,
    default_method_list,
    evaluate_methods,
    figure2_experiment,
    pathology_memorizer,
    pathology_parity,
    run_coverage_mc,
)
from .intervals import METHOD_TOKENS, GridSpec, IntervalSpec, PredictionSet
from .regressors import REGRESSOR_TOKENS, make_regressor
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
    return _fmt(obj.lower), _fmt(obj.upper), f"{_fmt(obj.lower)}:{_fmt(obj.upper)}"


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma-separated list of numbers, got {text!r}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma-separated list of integers, got {text!r}")


def _k_list(text: str) -> list[int | None]:
    out: list[int | None] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok.lower() == "n":
            out.append(None)
        else:
            try:
                out.append(int(tok))
            except ValueError:
                raise ConfigError(f"fold counts must be integers or 'n', got {tok!r}")
    return out


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
    with open(out_path, "w", newline="") as handle:
        opened = os.fstat(handle.fileno())
        try:
            _write_lines(handle, echo, subcommand, header, rows)
        except BaseException:
            handle.close()
            if stat.S_ISREG(opened.st_mode) and os.path.samestat(opened, os.lstat(out_path)):
                os.unlink(out_path)
            raise


def _write_lines(handle, echo: dict, subcommand: str, header, rows) -> None:
    handle.write(f"# predint {subcommand}\n")
    for key in sorted(echo):
        handle.write(f"# {key}={echo[key]}\n")
    handle.write(",".join(header) + "\n")
    for row in rows:
        handle.write(",".join(str(cell) for cell in row) + "\n")


def _regressor_from_args(args):
    return make_regressor(
        args.regressor,
        ridge_lambda=args.ridge_lambda,
        intercept=not args.no_intercept,
        knn_k=args.knn_k,
        memorizer_eps=args.memorizer_eps,
        parity_tau=args.parity_tau,
    )


def _regressor_echo(args) -> dict:
    echo = {"regressor": args.regressor}
    if args.regressor == "ridge":
        echo["ridge_lambda"] = args.ridge_lambda
        echo["intercept"] = not args.no_intercept
    elif args.regressor == "knn":
        echo["knn_k"] = args.knn_k
    elif args.regressor == "memorizer":
        echo["memorizer_eps"] = args.memorizer_eps
    elif args.regressor == "parity":
        echo["parity_tau"] = args.parity_tau
    return echo


def cmd_intervals(args) -> int:
    train = load_csv(args.train, args.target)
    # Test columns are fed by position, so their names must match; the
    # loaders return no names, so both headers are read again.
    names, test_names = (_load_columns(path, args.target, header_only=True)[0]
                         for path in (args.train, args.test))
    if test_names != names:
        raise DataError(f"{args.test}: feature columns {test_names} do not match "
                        f"the training file's {names}")
    X_test, y_test = load_features_csv(args.test, args.target)
    tokens = args.method or ["jackknife+"]
    grid = GridSpec(num_points=args.grid_points, lower=args.grid_lower, upper=args.grid_upper)
    methods = [
        MethodSpec(token, k_folds=args.k, split_holdout=args.split_fraction, grid=grid)
        for token in tokens
    ]
    spec = IntervalSpec(
        alpha=args.alpha,
        alpha_lo=args.alpha_lo,
        alpha_hi=args.alpha_hi,
        inflation_eps=args.eps,
    )
    objects = evaluate_methods(
        train, X_test, _regressor_from_args(args), methods, [spec], args.seed,
        strict=args.strict_folds,
    )

    def rows():
        for j in range(len(X_test)):
            for token, (per_row,) in zip(tokens, objects):
                obj = per_row[j]
                lower, upper, comps = format_object(obj)
                covered = "" if y_test is None else ("1" if obj.contains(float(y_test[j])) else "0")
                yield [j, token, _fmt(spec.alpha), lower, upper, comps, covered]

    echo = {
        "alpha": args.alpha,
        "alpha_lo": args.alpha_lo,
        "alpha_hi": args.alpha_hi,
        "eps": args.eps,
        "grid_lower": args.grid_lower,
        "grid_points": args.grid_points,
        "grid_upper": args.grid_upper,
        "k": args.k if args.k else "n",
        "methods": ";".join(tokens),
        "seed": args.seed,
        "split_fraction": args.split_fraction,
        "strict_folds": args.strict_folds,
        "target": args.target,
        "test": args.test,
        "train": args.train,
    }
    echo.update(_regressor_echo(args))
    _write_output(
        args.out,
        echo,
        "intervals",
        ["test_index", "method", "alpha", "lower", "upper", "components", "covered"],
        rows(),
    )
    return 0


def cmd_simulate(args) -> int:
    echo = {"experiment": args.experiment, "seed": args.seed}
    if args.experiment == "figure2":
        d_list = _int_list(args.d_list)
        methods = default_method_list(args.n, args.k)
        k_ran = next(m.k_folds for m in methods if m.method == "cv+")
        echo.update(
            n=args.n, d_list=args.d_list, trials=args.trials, n_test=args.n_test,
            alpha=args.alpha, k=k_ran or "n",
        )
        results = figure2_experiment(
            n=args.n, d_list=d_list, trials=args.trials, n_test=args.n_test,
            alpha=args.alpha, seed=args.seed, methods=methods,
        )
        rows = []
        for d in d_list:
            for label, report in results[d].items():
                rows.append(
                    [d, label, _fmt(report.coverage_mean), _fmt(report.coverage_se),
                     _fmt(report.width_mean), _fmt(report.width_se)]
                )
        _write_output(
            args.out, echo, "simulate",
            ["d", "method", "coverage_mean", "coverage_se", "width_mean", "width_se"],
            rows,
        )
        return 0

    if args.experiment == "coverage-mc":
        alphas = _float_list(args.alphas)
        k_list = _k_list(args.k_list)
        regressors = [tok.strip() for tok in args.regressors.split(",") if tok.strip()]
        echo.update(
            n=args.n, d=args.d, trials=args.trials, n_test=args.n_test,
            alphas=args.alphas, regressors=args.regressors, k_list=args.k_list,
        )
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
        _write_output(
            args.out, echo, "simulate",
            ["regressor", "method", "alpha", "coverage_mean", "coverage_se",
             "width_mean", "width_se", "infinite_count", "bound"],
            rows,
        )
        return 0

    if args.experiment == "pathology-memorizer":
        echo.update(
            n=args.n, trials=args.trials, n_test=args.n_test, alpha=args.alpha,
            memorizer_eps=args.memorizer_eps,
        )
        reports = pathology_memorizer(
            n=args.n, eps=args.memorizer_eps, trials=args.trials,
            n_test=args.n_test, alpha=args.alpha, seed=args.seed,
        )
        rows = [
            [label, rep.trials, _fmt(rep.coverage_mean),
             _fmt(min(rep.coverages)), _fmt(max(rep.coverages)), _fmt(rep.width_mean)]
            for label, rep in reports.items()
        ]
        _write_output(
            args.out, echo, "simulate",
            ["method", "trials", "coverage_mean", "coverage_min", "coverage_max", "width_mean"],
            rows,
        )
        return 0

    # pathology-parity
    echo.update(
        n=args.n, trials=args.trials, n_test=args.n_test, alpha=args.alpha, eps=args.eps,
    )
    result = pathology_parity(
        n=args.n, alpha=args.alpha, eps=args.eps, trials=args.trials,
        n_test=args.n_test, seed=args.seed, gamma=args.gamma, tau=args.tau,
    )
    rep = result.report
    rows = [[
        result.n, _fmt(result.alpha), _fmt(result.eps), _fmt(result.gamma),
        _fmt(result.tau), rep.trials * args.n_test, _fmt(rep.coverage_mean),
        _fmt(rep.coverage_se), _fmt(result.bound_upper),
    ]]
    _write_output(
        args.out, echo, "simulate",
        ["n", "alpha", "eps", "gamma", "tau", "evals", "coverage_mean",
         "coverage_se", "bound_upper"],
        rows,
    )
    return 0


def cmd_audit(args) -> int:
    regressor = _regressor_from_args(args)
    violations = run_audit(
        trials=args.trials, n=args.n, alpha=args.alpha, regressor=regressor,
        variant=args.variant, seed=args.seed, d=args.d,
    )
    echo = {
        "alpha": args.alpha, "d": args.d, "n": args.n, "seed": args.seed,
        "trials": args.trials, "variant": args.variant,
    }
    echo.update(_regressor_echo(args))
    _write_output(
        args.out, echo, "audit",
        ["trials", "n", "alpha", "variant", "violations"],
        [[args.trials, args.n, _fmt(args.alpha), args.variant, len(violations)]],
    )
    if violations:
        with open(args.replay_out, "w") as handle:
            json.dump(violations, handle, indent=2, sort_keys=True)
        print(
            f"audit FAILED: {len(violations)} violation(s); instances written to "
            f"{args.replay_out}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_stability(args) -> int:
    regressor = _regressor_from_args(args)

    def sampler(size: int, seed: int):
        return gen_gaussian_linear(size, args.d, seed)[0]

    est = estimate_stability(
        regressor, sampler, n=args.n, epsilon=args.epsilon, kind=args.kind,
        trials=args.trials, seed=args.seed,
    )
    bounds = coverage_lower_bounds(args.alpha, est.nu_hat, args.n, args.n)
    echo = {
        "alpha": args.alpha, "d": args.d, "epsilon": args.epsilon, "kind": args.kind,
        "n": args.n, "seed": args.seed, "trials": args.trials,
    }
    echo.update(_regressor_echo(args))
    _write_output(
        args.out, echo, "stability",
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
    parser.add_argument("--ridge-lambda", type=float, default=1e-3,
                        help="relative ridge penalty (times squared spectral norm)")
    parser.add_argument("--no-intercept", action="store_true",
                        help="drop the unpenalized ridge intercept")
    parser.add_argument("--knn-k", type=int, default=5)
    parser.add_argument("--memorizer-eps", type=float, default=1.0)
    parser.add_argument("--parity-tau", type=float, default=1.0)


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
    p.add_argument("--eps", type=float, default=0.0, help="epsilon inflation")
    p.add_argument("--k", type=int, default=None, help="folds for cv+/cross-conformal (default n)")
    p.add_argument("--strict-folds", action="store_true")
    p.add_argument("--split-fraction", type=float, default=0.5)
    p.add_argument("--grid-points", type=int, default=200)
    p.add_argument("--grid-lower", type=float, default=None)
    p.add_argument("--grid-upper", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    _add_regressor_flags(p)
    p.set_defaults(func=cmd_intervals)

    p = sub.add_parser("simulate", help="run a coverage experiment")
    p.add_argument("--experiment", choices=EXPERIMENTS, required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--d-list", default="20,100,180")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--n-test", type=int, default=100)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--alphas", default="0.1,0.2")
    p.add_argument("--regressors", default="mean,ols")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--k-list", default="2,5,n")
    p.add_argument("--eps", type=float, default=0.01,
                   help="inflation epsilon for pathology-parity")
    p.add_argument("--memorizer-eps", type=float, default=1.0)
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
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PredintError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
