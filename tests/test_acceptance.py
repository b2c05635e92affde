"""The release gate: ten end-to-end checks, one printed verdict line each.

Each test prints "[acceptance NN] name: PASS/FAIL (detail)" so the suite
doubles as a report. Tolerances and runtime caps are part of the contract;
the randomized checks are fully seeded, so a pass here is reproducible.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from predint import (
    KNN,
    ConstantMean,
    IntervalSpec,
    MethodSpec,
    MinNormOLS,
    audit_instance,
    build_loo_cache,
    cross_conformal_set,
    cv_plus,
    derive_seed,
    figure2_experiment,
    gen_gaussian_linear,
    jackknife_minmax,
    jackknife_plus,
    lower_quantile,
    pathology_memorizer,
    pathology_parity,
    run_coverage_mc,
    run_trial,
    upper_quantile,
)
from predint.cli import main
from helpers import derive_rng

ALPHAS = (0.1, 0.25, 0.5)
REGRESSORS = (ConstantMean(), MinNormOLS(), KNN(k=2))


def announce(capsys, index, name, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance {index:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def instances():
    """1000 seeded (data, regressor, alpha) triples; data = n train rows + 1.

    n cycles 4..20, the regressor and level cycle so every combination
    appears, and the feature dimension cycles 1..4.
    """
    out = []
    for t in range(1000):
        n = 4 + (t % 17)
        d = 1 + (t % 4)
        data, _ = gen_gaussian_linear(n + 1, d, derive_seed(2026, "acc-instance", t))
        out.append((data, REGRESSORS[(t // 3) % 3], ALPHAS[t % 3]))
    return out


def test_01_strange_set_audit(instances, capsys):
    start = time.perf_counter()
    violations = []
    for t, (data, reg, alpha) in enumerate(instances):
        report = audit_instance(data, reg, alpha)
        if not report.ok:
            violations.append((t, report.violations))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 120
    announce(
        capsys, 1, "strange-set audit",
        ok, f"{len(instances)} instances, {len(violations)} violations, {elapsed:.1f}s",
    )
    assert not violations, violations[:3]
    assert elapsed < 120


def test_02_containment_suite(instances, capsys):
    start = time.perf_counter()
    bad = []
    for t, (data, reg, alpha) in enumerate(instances):
        train = data.head(data.n - 1)
        x = data.features[data.n - 1]
        spec = IntervalSpec(alpha)
        cache = build_loo_cache(train, reg)

        plus = jackknife_plus(cache, spec, x)
        mm = jackknife_minmax(cache, spec, x)
        if not (mm.lower <= plus.lower and plus.upper <= mm.upper):
            bad.append((t, "jackknife+ not inside minmax"))

        explicit = build_loo_cache(train, reg, k_folds=train.n)
        cv = cv_plus(explicit, spec, x)
        if (cv.lower, cv.upper) != (plus.lower, plus.upper):
            bad.append((t, "cv+ at K=n differs from jackknife+"))

        med = float(np.median(cache.predictions_at(x)))
        if not plus.contains(med):
            bad.append((t, "median of LOO predictions escaped jackknife+"))

        tau = float(derive_rng(2026, "acc-tau", t).random())
        for comp in cross_conformal_set(cache, spec, x, tau).intervals:
            if not (plus.lower <= comp.lower and comp.upper <= plus.upper):
                bad.append((t, "cross-conformal escaped cv+"))
    elapsed = time.perf_counter() - start
    announce(
        capsys, 2, "containment suite",
        not bad, f"{len(instances)} instances, {len(bad)} violations, {elapsed:.1f}s",
    )
    assert not bad, bad[:3]


def test_03_coverage_monte_carlo(capsys):
    start = time.perf_counter()
    rows = run_coverage_mc()  # n=20, 500 trials x 50 test points, defaults
    elapsed = time.perf_counter() - start
    failures = [
        (r["regressor"], r["method"], r["alpha"],
         r["report"].coverage_mean, r["bound"])
        for r in rows
        if r["report"].coverage_mean < r["bound"] - 0.02
    ]
    worst = min(r["report"].coverage_mean - r["bound"] for r in rows)
    ok = not failures and elapsed < 300
    announce(
        capsys, 3, "coverage monte carlo",
        ok, f"{len(rows)} rows, worst margin {worst:+.3f}, {elapsed:.1f}s",
    )
    assert not failures, failures
    assert elapsed < 300


def test_04_overparameterized_regime(capsys):
    start = time.perf_counter()
    out = figure2_experiment()  # n=100, d in {20,100,180}, 20 x 100, alpha 0.1
    elapsed = time.perf_counter() - start
    cov = {d: {m: rep.coverage_mean for m, rep in per.items()} for d, per in out.items()}
    checks = [
        ("jackknife collapses at d=100", cov[100]["jackknife"] <= 0.65),
        ("naive collapses at d=100", cov[100]["naive"] <= 0.05),
        ("jackknife+ holds at d=100", 0.85 <= cov[100]["jackknife+"] <= 1.0),
        ("jackknife ~ jackknife+ at d=20",
         abs(cov[20]["jackknife"] - cov[20]["jackknife+"]) <= 0.05),
        ("jackknife ~ jackknife+ at d=180",
         abs(cov[180]["jackknife"] - cov[180]["jackknife+"]) <= 0.05),
    ]
    failures = [name for name, passed in checks if not passed]
    ok = not failures and elapsed < 600
    announce(
        capsys, 4, "overparameterized regime",
        ok,
        "d=100 naive/jk/jk+ = {:.2f}/{:.2f}/{:.2f}, {:.0f}s".format(
            cov[100]["naive"], cov[100]["jackknife"], cov[100]["jackknife+"], elapsed
        ),
    )
    assert not failures, (failures, cov)
    assert elapsed < 600


def test_05_memorizer_pathology(capsys):
    start = time.perf_counter()
    out = pathology_memorizer()  # n=10, 50 trials
    elapsed = time.perf_counter() - start
    ok = (
        set(out["naive"].coverages) == {0.0}
        and set(out["jackknife"].coverages) == {0.0}
        and set(out["jackknife+"].coverages) == {1.0}
    )
    announce(
        capsys, 5, "memorizer pathology",
        ok,
        "naive/jk/jk+ coverage = {}/{}/{} on 50 trials, {:.1f}s".format(
            out["naive"].coverage_mean, out["jackknife"].coverage_mean,
            out["jackknife+"].coverage_mean, elapsed,
        ),
    )
    assert ok, {k: rep.coverage_mean for k, rep in out.items()}


def test_06_parity_pathology(capsys):
    start = time.perf_counter()
    n_test = 2000
    result = pathology_parity(n_test=n_test)  # n=1e5, alpha=0.25, eps=0.01
    elapsed = time.perf_counter() - start
    evals = result.report.trials * n_test
    cov = result.report.coverage_mean
    ok = 0.45 <= cov <= 0.564 and evals >= 2000 and elapsed < 120
    announce(
        capsys, 6, "parity pathology",
        ok,
        f"coverage {cov:.4f} in [0.45, 0.564], bound {result.bound_upper:.4f}, "
        f"{evals} evals, {elapsed:.1f}s",
    )
    assert 0.45 <= cov <= 0.564, cov
    assert evals >= 2000
    assert elapsed < 120


def test_07_knn_stability(capsys):
    from predint import estimate_stability

    start = time.perf_counter()
    sampler = lambda size, seed: gen_gaussian_linear(size, 3, seed)[0]
    failures = []
    details = []
    for k in (1, 3):
        for n in (20, 100):
            est = estimate_stability(
                KNN(k=k), sampler, n=n, epsilon=0.0, trials=2000,
                seed=derive_seed(2026, f"acc-stab/{k}/{n}"),
            )
            q = k / n
            cap = q + 3.0 * math.sqrt(q * (1.0 - q) / 2000)
            details.append(f"K={k},n={n}: {est.nu_hat:.3f}<={cap:.3f}")
            if est.nu_hat > cap:
                failures.append(("instability too frequent", k, n, est.nu_hat, cap))

            # Coverage floors from (0, K/n) out-of-sample stability.
            alpha = 0.1
            trials, n_test = 40, 25
            methods = [MethodSpec("jackknife"), MethodSpec("jackknife+")]
            per = {m.label: [] for m in methods}
            for t in range(trials):
                data, _ = gen_gaussian_linear(
                    n + n_test, 3, derive_seed(2026, f"acc-cov/{k}/{n}", t)
                )
                stats = run_trial(
                    data.head(n), data.tail_from(n), KNN(k=k), methods,
                    [IntervalSpec(alpha)],
                    seed=derive_seed(2026, f"acc-cov-trial/{k}/{n}", t),
                )
                for m in methods:
                    per[m.label].append(stats[(m.label, 0)].coverage_mean)
            jk = float(np.mean(per["jackknife"]))
            jkp = float(np.mean(per["jackknife+"]))
            if jk < 1 - alpha - 2 * math.sqrt(q) - 0.02:
                failures.append(("jackknife under floor", k, n, jk))
            if jkp < 1 - alpha - 4 * math.sqrt(q) - 0.02:
                failures.append(("jackknife+ under floor", k, n, jkp))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300
    announce(capsys, 7, "knn stability", ok, "; ".join(details) + f", {elapsed:.0f}s")
    assert not failures, failures
    assert elapsed < 300


def brute_quantiles(values, alpha):
    v = sorted(values)
    n = len(v)
    hi_k = math.ceil((1 - Fraction(alpha)) * (n + 1))
    lo_k = math.floor(Fraction(alpha) * (n + 1))
    hi = math.inf if hi_k > n else (-math.inf if hi_k < 1 else v[hi_k - 1])
    lo = -math.inf if lo_k < 1 else (math.inf if lo_k > n else v[lo_k - 1])
    return float(lo), float(hi)


def test_08_quantile_oracle(capsys):
    rng = derive_rng(2026, "acc-quantile")
    mismatches = 0
    for t in range(10_000):
        n = int(rng.integers(1, 41))
        values = rng.standard_normal(n) * 10
        if t % 5 == 0:  # force ties
            values = np.round(values)
        if t % 11 == 0:
            values[rng.integers(0, n)] = math.inf
        kind = t % 4
        if kind == 0:
            alpha = float(rng.random())
        elif kind == 1:
            alpha = float(rng.integers(0, n + 2)) / (n + 1)  # exact breakpoints
        elif kind == 2:
            alpha = float(rng.choice([0.0, 1.0, 0.1, 1 / 3, 2 / 3, 0.25]))
        else:
            alpha = float(rng.integers(0, n + 2)) / (n + 1) + float(rng.random()) * 1e-9
            alpha = min(alpha, 1.0)
        want_lo, want_hi = brute_quantiles(values, alpha)
        got_hi = upper_quantile(values, alpha)
        got_lo = lower_quantile(values, alpha)
        if (got_lo, got_hi) != (want_lo, want_hi):
            mismatches += 1
        if got_lo != -upper_quantile(-values, alpha):
            mismatches += 1
    announce(
        capsys, 8, "quantile oracle",
        mismatches == 0, f"10000 (values, alpha) pairs, {mismatches} mismatches",
    )
    assert mismatches == 0


def test_09_cross_conformal_sweep_vs_grid(capsys):
    rng = derive_rng(2026, "acc-sweep")
    start = time.perf_counter()
    bad = 0
    for t in range(200):
        n = int(rng.integers(3, 13))
        data, _ = gen_gaussian_linear(n + 1, 2, int(rng.integers(0, 2**32)))
        reg = ConstantMean() if t % 2 else MinNormOLS()
        cache = build_loo_cache(data.head(n), reg)
        x = data.features[n]
        alpha = float(rng.choice([0.05, 0.1, 0.25, 1 / 3, 0.5, 0.8]))
        tau = float(rng.random())
        s = cross_conformal_set(cache, IntervalSpec(alpha), x, tau)

        m = cache.predictions_at(x)
        r = cache.residuals
        breaks = np.concatenate([m - r, m + r])
        grid = np.linspace(breaks.min() - 1.0, breaks.max() + 1.0, 10_000)
        off_boundary = ~np.isin(grid, breaks)

        dist = np.abs(grid[:, None] - m[None, :])
        strict = (dist < r[None, :]).sum(axis=1)
        equal = (dist == r[None, :]).sum(axis=1)
        threshold = Fraction(alpha) * (n + 1)
        tau_frac = Fraction(tau)
        accept = np.zeros(len(grid), dtype=bool)
        for s_count, e_count in {(int(a), int(b)) for a, b in zip(strict, equal)}:
            value = tau_frac * (1 + e_count) + s_count > threshold
            accept[(strict == s_count) & (equal == e_count)] = value

        member = np.zeros(len(grid), dtype=bool)
        for iv in s.intervals:
            member |= (grid >= iv.lower) & (grid <= iv.upper)
        if not np.array_equal(member[off_boundary], accept[off_boundary]):
            bad += 1
    elapsed = time.perf_counter() - start
    announce(
        capsys, 9, "cross-conformal sweep vs grid",
        bad == 0, f"200 instances x 10000 grid points, {bad} mismatches, {elapsed:.1f}s",
    )
    assert bad == 0


def test_10_cli_determinism(tmp_path, capsys):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    train.write_text("x,y\n0,0\n1,0\n2,3\n3,9\n")
    test.write_text("x,y\n1,0\n2.5,1\n")
    commands = {
        "intervals": [
            "intervals", "--train", str(train), "--test", str(test),
            "--alpha", "0.25", "--regressor", "mean", "--method", "naive",
            "--method", "jackknife+", "--method", "cv+", "--k", "2",
            "--method", "cross-conformal", "--method", "full-conformal",
        ],
        "simulate": [
            "simulate", "--experiment", "pathology-memorizer",
            "--n", "8", "--trials", "5", "--n-test", "5",
        ],
        "audit": [
            "audit", "--trials", "10", "--n", "6", "--alpha", "0.25",
            "--replay-out", str(tmp_path / "replay.json"),
        ],
        "stability": [
            "stability", "--n", "12", "--d", "2", "--trials", "50",
            "--epsilon", "0.2", "--regressor", "knn", "--knn-k", "2",
        ],
    }
    unequal = []
    for name, argv in commands.items():
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"

        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            unequal.append(name)
    announce(
        capsys, 10, "cli determinism",
        not unequal, f"{len(commands)} subcommands rerun byte-identical",
    )
    assert not unequal, unequal
