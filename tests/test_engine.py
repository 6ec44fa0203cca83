import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catlr.engine import (
    NO_SMOOTHING,
    SmoothingPolicy,
    conditional_probability,
    full_table_lrs,
    likelihood_ratio,
    lr_from_error_rates,
    presentation_round,
)
from catlr.model import ConfusionTable, DataError, GroundTruth

SAME = GroundTruth.SAME_SOURCE
DIFF = GroundTruth.DIFFERENT_SOURCE


def fraction_lr(table, statement):
    """Independent oracle: the LR as an exact rational (None for 0/0)."""
    k = table.categories.index(statement)
    n1 = sum(table.same_source)
    n2 = sum(table.different_source)
    p1 = Fraction(table.same_source[k], n1)
    p2 = Fraction(table.different_source[k], n2)
    if p2 > 0:
        return p1 / p2
    return math.inf if p1 > 0 else None


class TestConditionalProbability:
    def test_bullets_id_same_source(self, bullets):
        p = conditional_probability(bullets, "ID", SAME)
        assert p == 1076 / 1429
        assert p == pytest.approx(0.7530, abs=5e-5)

    def test_bullets_id_different_source(self, bullets):
        p = conditional_probability(bullets, "ID", DIFF)
        assert p == 20 / 2891
        assert p == pytest.approx(0.006918, abs=5e-7)

    def test_full_row_gives_one(self):
        t = ConfusionTable(("only", "never"), (7, 0), (3, 1))
        assert conditional_probability(t, "only", SAME) == 1.0

    def test_zero_row_total_without_smoothing(self):
        t = ConfusionTable(("a",), (0,), (3,))
        with pytest.raises(DataError, match="no observations under hypothesis"):
            conditional_probability(t, "a", SAME)

    def test_add_alpha_formula(self):
        t = ConfusionTable(("a", "b"), (3, 1), (0, 4))
        smoothing = SmoothingPolicy.add_alpha(0.5)
        assert conditional_probability(t, "a", SAME, smoothing) == (3 + 0.5) / (4 + 1.0)
        assert conditional_probability(t, "a", DIFF, smoothing) == 0.5 / 5.0

    def test_raw_frequency_is_the_correctly_rounded_quotient_above_2_to_the_53(self):
        # (c + 0.0) / (N + 0.0) rounds c and N first: 0.3333333333333333 here
        t = ConfusionTable(("ID", "Elim"), (2**53 + 1, 2**54 - 1), (1, 2))
        assert conditional_probability(t, "ID", SAME) == 0.33333333333333337
        rng = random.Random(64)
        for _ in range(200):
            total = rng.randrange(2**53, 2**64)
            count = rng.randrange(total + 1)
            t = ConfusionTable(("a", "b"), (count, total - count), (1, 1))
            assert conditional_probability(t, "a", SAME) == float(Fraction(count, total))

    @pytest.mark.parametrize("alpha", [1e307, 1e308, 1.7976931348623157e308])
    def test_alpha_so_large_that_n_plus_alpha_k_overflows_gives_the_uniform_limit(self, bullets, alpha):
        # N + alpha K is past the largest float from alpha = 1e308 on; in
        # integers each probability is still near 1 / K, so each LR near 1
        smoothing = SmoothingPolicy.add_alpha(alpha)
        for est in full_table_lrs(bullets, smoothing):
            assert est.p_given_h1 == pytest.approx(1 / 6) and est.p_given_h2 == pytest.approx(1 / 6)
            assert presentation_round(est) == "1"

    def test_smoothed_frequencies_are_the_correctly_rounded_exact_values(self):
        t = ConfusionTable(("a", "b", "c"), (3, 1, 0), (0, 4, 2))
        for alpha in (1e-320, 0.1, 0.5, 1e300, 5e307, 1e308):
            smoothing = SmoothingPolicy.add_alpha(alpha)
            exact = (3 + Fraction(alpha)) / (4 + 3 * Fraction(alpha))
            assert conditional_probability(t, "a", SAME, smoothing) == float(exact)

    def test_add_alpha_allows_empty_row(self):
        t = ConfusionTable(("a", "b"), (0, 0), (1, 1))
        p = conditional_probability(t, "a", SAME, SmoothingPolicy.add_alpha(1.0))
        assert p == 0.5


class TestLikelihoodRatio:
    def test_bullets_id(self, bullets):
        est = likelihood_ratio(bullets, "ID")
        assert est.lr == pytest.approx(108.84, abs=0.005)
        assert presentation_round(est.lr) == "109"
        assert est.p_given_h1 == 1076 / 1429
        assert est.p_given_h2 == 20 / 2891

    def test_bullets_elimination(self, bullets):
        est = likelihood_ratio(bullets, "Elimination")
        assert est.lr == pytest.approx(0.0863, abs=5e-4)
        assert presentation_round(est.lr) == "1 / 12"

    def test_count_provenance_is_exact(self, bullets):
        est = likelihood_ratio(bullets, "ID")
        assert Fraction(est.h1_count, est.h1_total) == Fraction(1076, 1429)
        assert Fraction(est.h2_count, est.h2_total) == Fraction(20, 2891)

    def test_identical_rows_give_exactly_one(self):
        t = ConfusionTable(("a", "b", "c"), (10, 30, 60), (10, 30, 60))
        for est in full_table_lrs(t):
            assert est.lr == 1.0

    def test_zero_denominator_count_is_infinite(self):
        t = ConfusionTable(("a", "b"), (5, 5), (0, 10))
        est = likelihood_ratio(t, "a")
        assert est.lr == math.inf
        assert presentation_round(est.lr) == "∞"

    def test_zero_both_counts_is_undefined(self):
        t = ConfusionTable(("a", "b"), (0, 5), (0, 10))
        est = likelihood_ratio(t, "a")
        assert est.is_undefined

    def test_estimate_carries_the_exact_ratio_of_the_counts(self, bullets):
        est = likelihood_ratio(bullets, "ID")
        assert Fraction(*est.exact_lr) == Fraction(1076 * 2891, 1429 * 20)
        # p1 / p2 in floats is 108.84240727781665, one unit in the last place low
        assert est.lr == float(Fraction(1076 * 2891, 1429 * 20)) == 108.84240727781666

    def test_smoothed_zero_cells_give_exactly_one(self):
        # at alpha = 1e-320 each smoothed probability of B is below the
        # smallest float, but their ratio is exactly 1
        t = ConfusionTable(("A", "B"), (10**6, 0), (10**6, 0))
        est = likelihood_ratio(t, "B", SmoothingPolicy.add_alpha(1e-320))
        assert est.lr == 1.0
        assert presentation_round(est) == "1"

    def test_ratio_past_the_largest_float_is_a_data_error(self):
        t = ConfusionTable(("ID", "Elim"), (5, 5), (0, 5))
        smoothing = SmoothingPolicy.add_alpha(1e-320)
        message = r"^the likelihood ratio of 'ID' at smoothing add-alpha\(9.99989e-321\) is past"
        with pytest.raises(DataError, match=message):
            likelihood_ratio(t, "ID", smoothing)
        with pytest.raises(DataError, match=message):
            full_table_lrs(t, smoothing)

    def test_positive_ratio_below_the_smallest_float_is_a_data_error(self):
        # the LR of a is alpha (N2 + 2 alpha) / ((N1 + 2 alpha)(2 + alpha)), about 5e-431:
        # positive, so its display is "1 / n", but it would round to the float 0
        t = ConfusionTable(("a", "b"), (0, 10**248), (2, 10**138))
        smoothing = SmoothingPolicy.add_alpha(1e-320)
        message = r"^the likelihood ratio of 'a' at smoothing add-alpha\(9.99989e-321\) is below the smallest"
        with pytest.raises(DataError, match=message):
            likelihood_ratio(t, "a", smoothing)
        with pytest.raises(DataError, match=message):
            full_table_lrs(t, smoothing)
        assert likelihood_ratio(t, "b", smoothing).lr == 1.0
        # unsmoothed, the zero cell gives the exact LR 0, which is no error
        assert likelihood_ratio(t, "a").lr == 0.0

    @given(
        n=st.integers(1, 1000),
        scale=st.tuples(st.integers(1, 50), st.integers(1, 50)),
        extra=st.integers(0, 1000),
        below_one=st.booleans(),
    )
    @settings(max_examples=300)
    def test_exact_halves_round_up(self, n, scale, extra, below_one):
        # the same row holds (2n + 1) of 2n + 1 + extra, the different row 2
        # of as many, each row scaled: the LR of "s" is exactly n + 1/2
        same = (scale[0] * (2 * n + 1), scale[0] * extra)
        different = (scale[1] * 2, scale[1] * (2 * n - 1 + extra))
        if below_one:
            same, different = different, same
        est = likelihood_ratio(ConfusionTable(("s", "rest"), same, different), "s")
        exact = Fraction(2 * n + 1, 2)
        assert est.lr == float(1 / exact if below_one else exact)
        assert presentation_round(est) == (f"1 / {n + 1}" if below_one else str(n + 1))

    def test_smoothing_recorded(self, bullets):
        est = likelihood_ratio(bullets, "ID", SmoothingPolicy.add_alpha(0.5))
        assert est.smoothing == "add-alpha(0.5)"
        assert likelihood_ratio(bullets, "ID").smoothing == "none"

    def test_add_alpha_converges_to_raw(self, bullets):
        raw = likelihood_ratio(bullets, "ID").lr
        gaps = [
            abs(likelihood_ratio(bullets, "ID", SmoothingPolicy.add_alpha(a)).lr - raw)
            for a in (1.0, 1e-2, 1e-4, 1e-6)
        ]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-4


class TestErrorRateShortcut:
    def test_perfect_detector(self):
        assert lr_from_error_rates(0.0, 1.0) == 1.0

    def test_direct_arithmetic(self):
        assert lr_from_error_rates(0.5, 0.25) == 2.0

    def test_zero_fpr_is_infinite(self):
        assert lr_from_error_rates(0.2, 0.0) == math.inf

    def test_zero_fpr_full_fnr_is_undefined(self):
        assert lr_from_error_rates(1.0, 0.0) is None

    def test_rates_validated(self):
        with pytest.raises(DataError):
            lr_from_error_rates(1.5, 0.5)
        with pytest.raises(DataError):
            lr_from_error_rates(0.5, -0.1)

    def test_matches_two_category_likelihood_ratio(self):
        # On an ID/Elimination-only table the shortcut and the table route
        # must agree: FNR = elimination rate under same source, FPR = ID
        # rate under different source.
        rng = random.Random(99)
        for _ in range(1000):
            t = ConfusionTable(
                ("ID", "Elimination"),
                (rng.randint(0, 500), rng.randint(0, 500)),
                (rng.randint(1, 500), rng.randint(0, 500)),
            )
            if t.row_total(SAME) == 0:
                continue
            fnr = t.count(SAME, "Elimination") / t.row_total(SAME)
            fpr = t.count(DIFF, "ID") / t.row_total(DIFF)
            shortcut = lr_from_error_rates(fnr, fpr)
            direct = likelihood_ratio(t, "ID").lr
            assert shortcut == pytest.approx(direct, rel=1e-12)


class TestPresentationRound:
    @pytest.mark.parametrize(
        "lr,expected",
        [
            (108.84, "109"),
            (0.0863, "1 / 12"),
            (1.0, "1"),
            (2.4, "2"),
            (2.5, "3"),  # half-up, not banker's
            (11.5, "12"),
            (0.5, "1 / 2"),
            (0.75, "1"),  # reciprocal 1.33 rounds to 1
            (0.9587, "1"),
            (0.0, "0"),
            (math.inf, "∞"),
        ],
    )
    def test_cases(self, lr, expected):
        assert presentation_round(lr) == expected

    def test_inconclusive_a_recomputed_from_counts(self, bullets):
        # second route: exact rationals, then float, then display
        ratio = Fraction(127, 1429) / Fraction(268, 2891)
        assert float(ratio) == pytest.approx(0.9587, abs=5e-5)
        assert presentation_round(float(ratio)) == "1"
        assert presentation_round(likelihood_ratio(bullets, "Inconcl.-A").lr) == "1"

    @pytest.mark.parametrize("lr", [5e-324, 2e-321, 1e-320, 5.5e-309])
    def test_reciprocal_past_the_largest_float_is_rounded_exactly(self, lr):
        assert 1.0 / lr == math.inf
        reciprocal = math.floor(1 / Fraction(lr) + Fraction(1, 2))
        assert presentation_round(lr) == f"1 / {reciprocal}"

    def test_a_float_is_rounded_by_its_exact_value(self):
        # the float 0.4 lies above 2/5: its reciprocal is just below 2.5
        assert Fraction(0.4) > Fraction(2, 5)
        assert presentation_round(0.4) == "1 / 2"
        assert presentation_round(2 / 3) == "1 / 2"  # 2 / 3 rounds below 2/3

    def test_undefined_renders_as_undefined(self):
        assert presentation_round(None) == "undefined"

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            presentation_round(-0.5)


class TestFullTable:
    def test_bullets_display_row(self, bullets):
        displays = [presentation_round(e.lr) for e in full_table_lrs(bullets)]
        assert displays == ["109", "1", "1 / 3", "1 / 10", "1 / 12", "1"]

    def test_identical_rows_all_one(self):
        t = ConfusionTable(("a", "b"), (5, 5), (5, 5))
        assert [presentation_round(e.lr) for e in full_table_lrs(t)] == ["1", "1"]

    def test_order_matches_table(self, bullets):
        assert [e.statement for e in full_table_lrs(bullets)] == list(bullets.categories)

    def test_random_tables_match_fraction_oracle(self, exact_display):
        rng = random.Random(21)
        for _ in range(200):
            t = ConfusionTable(
                ("w", "x", "y", "z"),
                tuple(rng.randint(0, 200) for _ in range(4)),
                tuple(rng.randint(0, 200) for _ in range(4)),
            )
            if t.row_total(SAME) == 0 or t.row_total(DIFF) == 0:
                continue
            for est in full_table_lrs(t):
                oracle = fraction_lr(t, est.statement)
                assert est.lr == (oracle if oracle in (None, math.inf) else float(oracle))
                assert presentation_round(est) == exact_display(oracle)


positive_table_strategy = st.lists(
    st.tuples(st.integers(1, 5000), st.integers(1, 5000)),
    min_size=1,
    max_size=8,
).map(
    lambda rows: ConfusionTable(
        tuple(f"c{i}" for i in range(len(rows))),
        tuple(r[0] for r in rows),
        tuple(r[1] for r in rows),
    )
)


class TestAlgebraicProperties:
    @given(table=positive_table_strategy)
    @settings(max_examples=200)
    def test_calibration_identity(self, table):
        ests = full_table_lrs(table)
        assert abs(math.fsum(e.p_given_h2 * e.lr for e in ests) - 1.0) < 1e-12
        assert abs(math.fsum(e.p_given_h1 / e.lr for e in ests) - 1.0) < 1e-12

    @given(table=positive_table_strategy, k=st.integers(1, 1000))
    @settings(max_examples=150)
    def test_row_scaling_leaves_lrs_exactly_unchanged(self, table, k):
        scaled = ConfusionTable(
            table.categories,
            tuple(c * k for c in table.same_source),
            table.different_source,
        )
        for before, after in zip(full_table_lrs(table), full_table_lrs(scaled)):
            assert after.lr == before.lr

    def test_increasing_same_source_count_strictly_increases_lr(self):
        rng = random.Random(12)
        for _ in range(100):
            same = [rng.randint(0, 50) for _ in range(3)]
            diff = [rng.randint(1, 50) for _ in range(3)]
            if sum(same) == 0:
                same[0] += 1
            t = ConfusionTable(("a", "b", "c"), tuple(same), tuple(diff))
            bumped = ConfusionTable(
                ("a", "b", "c"), (same[0] + 1, same[1], same[2]), tuple(diff)
            )
            assert likelihood_ratio(bumped, "a").lr > likelihood_ratio(t, "a").lr


class TestSmoothingPolicy:
    def test_describe(self):
        assert NO_SMOOTHING.describe() == "none"
        assert SmoothingPolicy.add_alpha(0.5).describe() == "add-alpha(0.5)"

    def test_alpha_must_be_positive_for_add_alpha(self):
        with pytest.raises(DataError):
            SmoothingPolicy.add_alpha(0.0)
        with pytest.raises(DataError):
            SmoothingPolicy.add_alpha(-1.0)

    def test_nan_alpha_rejected(self):
        with pytest.raises(DataError, match="^alpha must be a finite number, got nan$"):
            SmoothingPolicy(float("nan"))

    def test_negative_alpha_rejected(self):
        with pytest.raises(DataError):
            SmoothingPolicy(-0.5)
