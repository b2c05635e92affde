"""Residual matrices, strange sets, and the per-instance audit.

The worked instance everything is frozen against: X = (0, 1, 2) in one
column, y = (0, 1, 10), training-mean regressor. Dropping rows {i, j} leaves
a single row, so mu_{-(i,j)} is that row's response and

    R = [[inf, 10,  1],
         [  9, inf,  1],
         [  9, 10, inf]].

Contest wins: plus row sums (1, 0, 2), minmax row sums (0, 0, 2). At
alpha = 0.5 the strangeness threshold is 1.5, so row 2 alone is strange in
both variants.
"""

import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import predint.audit
from predint import (
    KNN,
    AuditReport,
    ConfigError,
    ConstantMean,
    Dataset,
    IntervalSpec,
    Memorizer,
    MinNormOLS,
    ParityAdversary,
    Ridge,
    audit_instance,
    build_loo_cache,
    comparison_matrix,
    gen_gaussian_linear,
    jackknife_minmax,
    jackknife_plus,
    residual_matrix,
    run_audit,
    strange_set,
)
from helpers import derive_rng

MEAN = ConstantMean()
# Every kind of real level the thresholds read as an integer ratio.
EXACT_LEVELS = [0, 1, 1 / 3, 0.1, 0.25, 0.5, Fraction(2, 7), Decimal("0.1"), np.float32(0.1),
                np.int64(0)]


def exact(level) -> Fraction:
    """The exact value of a level; a float32 widens to a float exactly."""
    return Fraction(float(level) if isinstance(level, np.floating) else level)


@pytest.fixture
def worked():
    return Dataset([[0.0], [1.0], [2.0]], [0.0, 1.0, 10.0])


@pytest.fixture
def worked_R(worked):
    return residual_matrix(worked, MEAN)


def random_instance(seed):
    rng = derive_rng(seed, "audit-case")
    n = int(rng.integers(4, 9))  # pairwise fits drop 2 rows, keep them viable
    data, _ = gen_gaussian_linear(n, 2, int(rng.integers(0, 2**32)))
    reg = [MEAN, MinNormOLS(), KNN(k=2)][seed % 3]
    return data, reg


# Rows with every kind of tie the canonical order meets: rows 0 and 1 repeat,
# rows 2 and 3 differ only in the response, rows 4 and 5 share their two
# leading columns, and rows 6 and 7 differ only in the sign of a zero.
# Column 1 is a sign, so the parity regressor can fit them too.
TIED = Dataset([[0.5, 1.0, 0.25], [0.5, 1.0, 0.25], [1.0, -1.0, 0.0], [1.0, -1.0, 0.0],
                [0.0, 1.0, -0.5], [0.0, 1.0, 0.75], [1.0, 1.0, 0.0], [1.0, 1.0, -0.0]],
               [1.0, 1.0, 2.0, -1.0, 0.0, 0.5, 3.0, 3.0])


class TestResidualMatrix:
    @pytest.mark.parametrize(
        "reg", [MinNormOLS(), Ridge(lambda_rel=0.01), KNN(k=2), MEAN, Memorizer(eps=0.5),
                ParityAdversary(tau=2.0)],
        ids=lambda r: r.token,
    )
    def test_matches_pair_refits_on_tied_rows_bitwise(self, reg):
        """The slow reference: one ``fit(data.drop([i, j]))`` per pair."""
        m = TIED.n
        want = np.full((m, m), math.inf)
        for i in range(m):
            for j in range(i + 1, m):
                model = reg.fit(TIED.drop([i, j]))
                want[i, j] = abs(TIED.responses[i] - model.predict(TIED.features[i]))
                want[j, i] = abs(TIED.responses[j] - model.predict(TIED.features[j]))
        assert residual_matrix(TIED, reg).tobytes() == want.tobytes()

    def test_worked_values(self, worked_R):
        expected = np.array(
            [
                [math.inf, 10.0, 1.0],
                [9.0, math.inf, 1.0],
                [9.0, 10.0, math.inf],
            ]
        )
        np.testing.assert_array_equal(worked_R, expected)

    def test_needs_three_rows(self):
        with pytest.raises(ConfigError, match="at least 3"):
            residual_matrix(Dataset([[0.0], [1.0]], [0.0, 1.0]), MEAN)

    def test_duplicate_rows_tie_exactly(self):
        data = Dataset([[1.0], [1.0], [2.0], [3.0]], [4.0, 4.0, 1.0, 2.0])
        R = residual_matrix(data, MEAN)
        assert R[0, 1] == R[1, 0]

    def test_matches_direct_refits(self, worked):
        R = residual_matrix(worked, KNN(k=1))
        for i in range(3):
            for j in range(3):
                if i == j:
                    assert R[i, j] == math.inf
                    continue
                model = KNN(k=1).fit(worked.drop([i, j]))
                want = abs(worked.responses[i] - model.predict(worked.features[i]))
                assert R[i, j] == want


class TestComparisonMatrix:
    def test_worked_row_sums(self, worked_R):
        assert comparison_matrix(worked_R, "plus").sum(axis=1).tolist() == [1, 0, 2]
        assert comparison_matrix(worked_R, "minmax").sum(axis=1).tolist() == [0, 0, 2]

    def test_minmax_entries_never_exceed_plus(self):
        # min_j' R_ij' <= R_ij, so every minmax win is also a plus win.
        for seed in range(20):
            data, reg = random_instance(seed)
            R = residual_matrix(data, reg)
            assert np.all(
                comparison_matrix(R, "minmax") <= comparison_matrix(R, "plus")
            )

    def test_diagonal_is_zero_and_ties_do_not_count(self):
        R = np.zeros((4, 4))
        np.fill_diagonal(R, math.inf)
        for variant in ("plus", "minmax"):
            assert comparison_matrix(R, variant).sum() == 0

    def test_validation(self, worked_R):
        with pytest.raises(ConfigError, match="square"):
            comparison_matrix(np.zeros((2, 3)))
        with pytest.raises(ConfigError, match="variant"):
            comparison_matrix(worked_R, "median")


class TestStrangeSet:
    def test_worked_sets(self, worked_R):
        assert strange_set(comparison_matrix(worked_R, "plus"), 0.5) == [2]
        assert strange_set(comparison_matrix(worked_R, "minmax"), 0.5) == [2]

    def test_alpha_extremes(self):
        A = np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
        assert strange_set(A, 1.0) == [0, 1, 2]  # threshold 0
        assert strange_set(np.zeros((3, 3), dtype=int), 0.25) == []

    def test_threshold_is_closed_at_exact_integers(self):
        # m = 4, alpha = 0.25 (an exact binary float): threshold is exactly 3
        # and a row with 3 wins counts as strange.
        A = np.array(
            [[0, 1, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        )
        assert strange_set(A, 0.25) == [0]

    def test_threshold_uses_the_exact_alpha_value(self):
        # The double for 1/3 is below 1/3, so the threshold at m = 3 is
        # strictly above 2: a row with 2 wins out of 3 is NOT strange even
        # though it would be at alpha exactly one third.
        A = np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
        assert strange_set(A, 1 / 3) == []
        assert (1 - Fraction(1 / 3)) * 3 > 2

    def test_matches_rational_reference_on_fuzz(self):
        rng = derive_rng(5, "strange-fuzz")
        for _ in range(50):
            m = int(rng.integers(2, 8))
            A = rng.integers(0, 2, size=(m, m))
            np.fill_diagonal(A, 0)
            alpha = float(rng.choice([0.1, 0.25, 1 / 3, 0.5, 2 / 3, 0.9]))
            sums = A.sum(axis=1)
            want = [
                i for i in range(m) if sums[i] >= (1 - Fraction(alpha)) * m
            ]
            assert strange_set(A, alpha) == want

    @pytest.mark.parametrize("alpha", EXACT_LEVELS, ids=repr)
    def test_exact_levels_match_the_rational_reference(self, alpha):
        rng = derive_rng(6, "strange-levels")
        for m in range(2, 12):
            A = rng.integers(0, 2, size=(m, m))
            np.fill_diagonal(A, 0)
            sums = A.sum(axis=1)
            want = [i for i in range(m) if sums[i] >= (1 - exact(alpha)) * m]
            assert strange_set(A, alpha) == want

    def test_float32_matches_its_float_value(self):
        A = np.array([[0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 1], [0, 0, 0, 0]])
        assert strange_set(A, np.float32(0.25)) == strange_set(A, 0.25) == [0]

    @pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 2, 2), ()], ids=str)
    def test_the_matrix_must_be_square(self, shape):
        # A 1-D array raised numpy's AxisError; a 3x2 matrix counted against m = 3.
        got = re.escape(str(shape))
        message = rf"^comparison matrix must be a square 2-D array, got shape {got}$"
        with pytest.raises(ConfigError, match=message):
            strange_set(np.zeros(shape, dtype=int), 0.25)
        with pytest.raises(ConfigError, match=message.replace("comparison", "residual")):
            comparison_matrix(np.zeros(shape))

    @pytest.mark.parametrize("alpha", ["0.5", True, 0.5 + 0j, math.nan], ids=repr)
    def test_alpha_must_be_a_real_number(self, worked_R, alpha):
        A = comparison_matrix(worked_R, "plus")
        with pytest.raises(ConfigError, match="alpha must be a real number"):
            strange_set(A, alpha)


class TestCountingBounds:
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 1 / 3, 0.5, 0.77])
    def test_fuzzed_instances_respect_both_bounds(self, alpha):
        for seed in range(12):
            data, reg = random_instance(seed)
            R = residual_matrix(data, reg)
            m = data.n
            s_plus = strange_set(comparison_matrix(R, "plus"), alpha)
            s_mm = strange_set(comparison_matrix(R, "minmax"), alpha)
            assert Fraction(len(s_plus)) < 2 * Fraction(alpha) * m
            assert Fraction(len(s_mm)) <= Fraction(alpha) * m

    @pytest.mark.parametrize("alpha", EXACT_LEVELS, ids=repr)
    def test_audited_bounds_match_the_rational_forms(self, alpha, monkeypatch):
        # The bounds hold on every real instance, so strange sets of each size
        # are handed in to reach both sides of them.
        data, _ = gen_gaussian_linear(6, 2, seed=4)
        m = data.n
        for size in range(m + 1):
            monkeypatch.setattr(predint.audit, "strange_set", lambda A, a: list(range(size)))
            flagged = audit_instance(data, MEAN, alpha).violations
            plus = any(v.startswith("plus strange set") for v in flagged)
            minmax = any(v.startswith("minmax strange set") for v in flagged)
            assert plus == (Fraction(size) >= 2 * exact(alpha) * m), size
            assert minmax == (Fraction(size) > exact(alpha) * m), size

    def test_strange_sets_permute_with_the_rows(self):
        data, _ = gen_gaussian_linear(6, 2, seed=8)
        R = residual_matrix(data, MinNormOLS())
        base = strange_set(comparison_matrix(R, "plus"), 0.4)
        rng = derive_rng(4, "audit-perm")
        for _ in range(4):
            perm = rng.permutation(6)
            R2 = residual_matrix(data.take(perm), MinNormOLS())
            got = strange_set(comparison_matrix(R2, "plus"), 0.4)
            assert sorted(perm[got]) == base


class TestAuditInstance:
    def test_worked_report(self, worked):
        rep = audit_instance(worked, MEAN, 0.5)
        assert rep.n == 2 and rep.variant == "both"
        assert rep.strange_plus == [2] and rep.strange_minmax == [2]
        assert (rep.interval_plus.lower, rep.interval_plus.upper) == (-1.0, 2.0)
        assert (rep.interval_minmax.lower, rep.interval_minmax.upper) == (-1.0, 2.0)
        assert rep.covered_plus is False and rep.covered_minmax is False
        assert rep.ok  # uncovered test row, but it is strange: no violation

    def test_single_variant_reports(self, worked):
        plus = audit_instance(worked, MEAN, 0.5, variant="plus")
        assert plus.interval_minmax is None and plus.covered_minmax is None
        mm = audit_instance(worked, MEAN, 0.5, variant="minmax")
        assert mm.interval_plus is None and mm.covered_plus is None
        assert plus.ok and mm.ok

    def test_interval_ignores_the_test_response(self):
        data, _ = gen_gaussian_linear(7, 2, seed=11)
        rep = audit_instance(data, MinNormOLS(), 0.25)
        moved = Dataset(
            data.features, np.append(data.responses[:-1], 1234.5)
        )
        rep2 = audit_instance(moved, MinNormOLS(), 0.25)
        assert rep2.interval_plus == rep.interval_plus
        assert rep2.interval_minmax == rep.interval_minmax

    @pytest.mark.parametrize(
        "reg", [MEAN, MinNormOLS(), KNN(k=2), Ridge(lambda_rel=0.1), Memorizer(eps=0.5),
                ParityAdversary(tau=2.0)],
        ids=lambda r: r.token,
    )
    def test_the_report_is_free_of_the_training_row_order(self, reg):
        # The n training rows permuted, the test row kept last: the same bits,
        # the same violations, and strange sets that move with their rows.
        cases = [TIED]
        if not isinstance(reg, ParityAdversary):  # parity reads column 1 as a sign
            cases.append(gen_gaussian_linear(9, 3, 5)[0])
        rng = derive_rng(6, "audit-order")
        for data in cases:
            rep = audit_instance(data, reg, 0.25)
            for _ in range(3):
                rows = np.append(rng.permutation(data.n - 1), data.n - 1)
                moved = audit_instance(data.take(rows), reg, 0.25)
                for name in ("plus", "minmax"):
                    iv, iv2 = getattr(rep, f"interval_{name}"), getattr(moved, f"interval_{name}")
                    assert (iv2.lower.hex(), iv2.upper.hex()) == (iv.lower.hex(), iv.upper.hex())
                    assert getattr(moved, f"covered_{name}") == getattr(rep, f"covered_{name}")
                    assert sorted(rows[getattr(moved, f"strange_{name}")]) == getattr(
                        rep, f"strange_{name}")
                assert moved.violations == rep.violations

    @pytest.mark.parametrize("side", ["above", "below"])
    def test_noncoverage_forces_strangeness(self, side):
        # alpha = 0.4 keeps the interval finite down to 3 training rows, so
        # there is always room to place the test response outside it.
        for seed in range(10):
            data, reg = random_instance(seed)
            rep = audit_instance(data, reg, 0.4)
            iv = rep.interval_plus
            assert math.isfinite(iv.lower) and math.isfinite(iv.upper)
            y_out = iv.upper + 1.0 if side == "above" else iv.lower - 1.0
            moved = Dataset(
                data.features, np.append(data.responses[:-1], y_out)
            )
            rep2 = audit_instance(moved, reg, 0.4)
            last = data.n - 1
            assert rep2.covered_plus is False
            assert last in rep2.strange_plus
            if rep2.covered_minmax is False:
                assert last in rep2.strange_minmax
            assert rep2.ok

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.25, 1 / 3, 0.5, 1.0])
    @pytest.mark.parametrize(
        "reg", [MEAN, MinNormOLS(), KNN(k=1), Ridge(lambda_rel=0.1)], ids=lambda r: r.token
    )
    def test_intervals_are_the_library_methods(self, reg, alpha):
        # The audit's intervals are the library's jackknife+ and jackknife-mm
        # on a leave-one-out cache of the training rows.
        for seed in range(4):
            data, _ = gen_gaussian_linear(4 + 2 * seed, 2, seed=seed)
            n = data.n - 1
            rep = audit_instance(data, reg, alpha)
            cache = build_loo_cache(data.head(n), reg)
            spec, x = IntervalSpec(alpha), data.features[n]
            assert rep.interval_plus == jackknife_plus(cache, spec, x)
            assert rep.interval_minmax == jackknife_minmax(cache, spec, x)

    def test_flags_fold_fits_that_see_their_own_row(self):
        # fit_folds is the hook a closed form plugs into; this one returns the
        # full fit for every row, so its "leave-one-out" residuals are
        # in-sample ones and its intervals are too narrow.
        class LeakyOLS(MinNormOLS):
            def fit_folds(self, train, fold_of):
                full = self.fit(train)
                return [full], np.zeros(train.n, dtype=np.intp), full.predict_many(train.features)

        def flagged(reg):
            return sum(not audit_instance(gen_gaussian_linear(9, 3, seed)[0], reg, 0.2).ok
                       for seed in range(50))

        assert flagged(LeakyOLS()) >= 1
        assert flagged(MinNormOLS()) == 0

    def test_fit_count(self):
        fits = [0]

        class Counting(MinNormOLS):
            def _fit(self, X, y):
                fits[0] += 1
                return super()._fit(X, y)

        for n in (2, 5, 8):
            fits[0] = 0
            audit_instance(gen_gaussian_linear(n + 1, 2, n)[0], Counting(), 0.25)
            # n(n+1)/2 pairwise fits, then n leave-one-out fits of the cache
            assert fits[0] == n * (n + 3) // 2

    def test_validation(self, worked):
        with pytest.raises(ConfigError, match="variant"):
            audit_instance(worked, MEAN, 0.5, variant="median")
        with pytest.raises(ConfigError, match="at least 3"):
            audit_instance(worked.head(2), MEAN, 0.5)
        with pytest.raises(ConfigError, match="alpha"):
            audit_instance(worked, MEAN, 1.5)


class TestRunAudit:
    def test_clean_on_gaussian_instances(self):
        assert run_audit(trials=40, n=6, alpha=0.25, regressor=MEAN) == []
        assert run_audit(trials=15, n=5, alpha=0.4, regressor=MinNormOLS()) == []
        assert run_audit(trials=15, n=7, alpha=0.1, regressor=KNN(k=3)) == []

    def test_determinism(self):
        a = run_audit(trials=5, n=4, alpha=0.3, regressor=MinNormOLS(), seed=9)
        b = run_audit(trials=5, n=4, alpha=0.3, regressor=MinNormOLS(), seed=9)
        assert a == b

    def test_size_limits(self):
        with pytest.raises(ConfigError, match="n <= 30"):
            run_audit(trials=1, n=40, alpha=0.1, regressor=MEAN)
        with pytest.raises(ConfigError, match="n >= 2"):
            run_audit(trials=1, n=1, alpha=0.1, regressor=MEAN)

    def test_needs_a_trial(self):
        for trials in (0, -3):
            with pytest.raises(ConfigError, match=f"trials must be >= 1, got {trials}"):
                run_audit(trials=trials, n=5, alpha=0.1, regressor=MEAN)


def test_report_ok_reflects_violations():
    rep = AuditReport(n=3, alpha=0.1, variant="both")
    assert rep.ok
    rep.violations.append("anything")
    assert not rep.ok
