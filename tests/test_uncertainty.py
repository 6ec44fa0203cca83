import math

import numpy as np
import pytest

from catlr.engine import full_table_lrs, likelihood_ratio
from catlr.model import ConfusionTable, DataError
from catlr.records import tally
from catlr.rng import RNG_ALGORITHM
from catlr.simulate import PanelProfile, simulate_study, true_lr
from catlr.uncertainty import (
    Interval,
    bootstrap_interval,
    dirichlet_interval,
    zero_count_lower_bound,
)


class TestInterval:
    def test_validation(self):
        with pytest.raises(DataError):
            Interval(2.0, 1.0, 0.95, "m")
        with pytest.raises(DataError):
            Interval(1.0, 2.0, 1.5, "m")
        with pytest.raises(DataError):
            Interval(float("nan"), 2.0, 0.9, "m")

    def test_contains(self):
        interval = Interval(1.0, math.inf, 0.95, "m")
        assert interval.contains(1e9)
        assert not interval.contains(0.5)


class TestBootstrap:
    def test_deterministic_for_fixed_seed(self, bullets):
        a = bootstrap_interval(bullets, "ID", replicates=2000, seed=42)
        b = bootstrap_interval(bullets, "ID", replicates=2000, seed=42)
        assert a == b

    def test_seed_changes_interval(self, bullets):
        a = bootstrap_interval(bullets, "ID", replicates=500, seed=1)
        b = bootstrap_interval(bullets, "ID", replicates=500, seed=2)
        assert a != b

    def test_point_estimate_inside(self, bullets):
        interval = bootstrap_interval(bullets, "ID", replicates=2000, seed=42)
        point = likelihood_ratio(bullets, "ID").lr
        assert interval.contains(point)
        assert math.isfinite(interval.upper)

    def test_identical_rows_interval_contains_one(self):
        t = ConfusionTable(("a", "b", "c"), (40, 35, 25), (40, 35, 25))
        interval = bootstrap_interval(t, "a", replicates=500, seed=9)
        assert interval.contains(1.0)

    def test_infinite_replicates_push_upper_to_infinity(self):
        # 0/10 different-source count for "a": ~35% of resampled rows drop
        # the denominator entirely, so the upper percentile is infinite.
        t = ConfusionTable(("a", "b"), (5, 5), (1, 9))
        interval = bootstrap_interval(t, "a", replicates=500, seed=3)
        assert interval.upper == math.inf
        assert math.isfinite(interval.lower)

    def test_degenerate_concentrated_row_still_returns(self):
        t = ConfusionTable(("a", "b"), (50, 0), (10, 40))
        interval = bootstrap_interval(t, "a", replicates=300, seed=8)
        assert interval.lower <= interval.upper

    def test_replicate_floor(self, bullets):
        with pytest.raises(DataError, match="at least 100"):
            bootstrap_interval(bullets, "ID", replicates=20)

    def test_zero_row_total_rejected(self):
        t = ConfusionTable(("a",), (0,), (5,))
        with pytest.raises(DataError, match="no observations"):
            bootstrap_interval(t, "a")

    def test_row_total_up_to_the_binomial_limit(self):
        largest = ConfusionTable(("a", "b"), (2**63 - 11, 10), (1, 5))
        assert bootstrap_interval(largest, "a", replicates=100).lower > 0
        over = ConfusionTable(("a", "b"), (1, 5), (2**63 - 10, 10))
        message = (
            "the bootstrap cannot resample the different-source row: "
            f"its total {2**63} exceeds {2**63 - 1}"
        )
        with pytest.raises(DataError, match=f"^{message}$"):
            bootstrap_interval(over, "a", replicates=100)

    def test_method_metadata_names_algorithm(self, bullets):
        interval = bootstrap_interval(bullets, "ID", replicates=300, seed=5)
        assert RNG_ALGORITHM in interval.method
        assert "seed=5" in interval.method
        assert interval.level == 0.95

    def test_unknown_statement(self, bullets):
        with pytest.raises(DataError, match="unknown statement"):
            bootstrap_interval(bullets, "nope")

    def test_coverage_smoke(self):
        # small-scale version of the coverage experiment: simulated studies
        # with a known true LR, checking the interval traps it about 95% of
        # the time. Deterministic via fixed seeds.
        categories = ("w", "x", "y", "z")
        p1 = (0.55, 0.25, 0.12, 0.08)
        p2 = (0.05, 0.35, 0.30, 0.30)
        covered = 0
        runs = 150
        for s in range(runs):
            profile = PanelProfile(categories, p1, p2, 500, 500, seed=5000 + s)
            table = tally(simulate_study(profile), vocabulary=categories)
            interval = bootstrap_interval(
                table, "w", replicates=400, seed=6000 + s
            )
            if interval.contains(true_lr(profile, "w")):
                covered += 1
        assert 0.85 <= covered / runs <= 1.0


class TestDirichlet:
    def test_deterministic_and_contains_point(self, bullets):
        a = dirichlet_interval(bullets, "ID", alpha=0.5, draws=10000, seed=7)
        b = dirichlet_interval(bullets, "ID", alpha=0.5, draws=10000, seed=7)
        assert a == b
        assert a.contains(likelihood_ratio(bullets, "ID").lr)

    def test_width_shrinks_like_root_sample_size(self, bullets):
        base = dirichlet_interval(bullets, "ID", seed=7)
        big = ConfusionTable(
            bullets.categories,
            tuple(c * 1000 for c in bullets.same_source),
            tuple(c * 1000 for c in bullets.different_source),
        )
        scaled = dirichlet_interval(big, "ID", seed=7)
        ratio = (base.upper - base.lower) / (scaled.upper - scaled.lower)
        assert 22 <= ratio <= 45  # ~sqrt(1000) = 31.6

    def test_single_category_interval_is_exactly_one(self):
        t = ConfusionTable(("only",), (7,), (9,))
        interval = dirichlet_interval(t, "only", draws=200, seed=1)
        assert (interval.lower, interval.upper) == (1.0, 1.0)

    def test_parameter_validation(self, bullets):
        with pytest.raises(DataError):
            dirichlet_interval(bullets, "ID", alpha=0.0)
        with pytest.raises(DataError):
            dirichlet_interval(bullets, "ID", draws=0)
        with pytest.raises(DataError):
            dirichlet_interval(bullets, "ID", level=0.0)
        with pytest.raises(DataError):
            dirichlet_interval(bullets, "ID", seed=-1)


class TestDirichletCoverage:
    # The simulator is the oracle: 300 seeded studies of 1000 evaluations per
    # row, with statement w common under both hypotheses, rare under H2 only,
    # and rare under both.  Coverage of the true LR at level 0.95 must lie
    # within 3 binomial standard errors of 0.95.
    CATEGORIES = ("w", "x", "y", "z")
    STUDIES = 300

    @pytest.mark.parametrize(
        "p1, p2",
        [
            ((0.55, 0.25, 0.12, 0.08), (0.05, 0.35, 0.30, 0.30)),
            ((0.55, 0.25, 0.12, 0.08), (0.004, 0.35, 0.30, 0.346)),
            ((0.01, 0.45, 0.30, 0.24), (0.003, 0.35, 0.30, 0.347)),
        ],
        ids=["common", "sparse-denominator", "both-rare"],
    )
    def test_coverage_of_the_true_lr(self, p1, p2):
        covered = 0
        for s in range(self.STUDIES):
            profile = PanelProfile(self.CATEGORIES, p1, p2, 1000, 1000, seed=1000 + s)
            table = tally(simulate_study(profile), vocabulary=self.CATEGORIES)
            interval = dirichlet_interval(table, "w", level=0.95, seed=777 + s)
            covered += interval.contains(true_lr(profile, "w"))
        margin = 3 * math.sqrt(0.95 * 0.05 / self.STUDIES)
        assert abs(covered / self.STUDIES - 0.95) <= margin


class TestMarginalDrawLaw:
    """Each interval draws only statement k's cell of a row; its endpoints
    must follow the law of the whole-row draws that cell is taken from."""

    TABLE = ConfusionTable(("a", "b", "c", "d"), (60, 25, 10, 5), (3, 40, 57, 0))
    REFERENCE_SIZE = 200_000
    REPLICATES = 20_000

    @staticmethod
    def _tail_ok(reference, n, q, value):
        # tolerance as in bench/checks.py::IntervalLaw: 5 standard errors of a
        # percentile from n defined replicates, 5 of the reference's own, and
        # two replicates' worth of discreteness
        size = reference.size
        tol = 5.0 * math.sqrt(q * (1 - q) / n) + 5.0 * math.sqrt(q * (1 - q) / size) + 2.0 / n
        below = np.searchsorted(reference, value, "left") / size
        upto = np.searchsorted(reference, value, "right") / size
        return below <= q + tol and upto >= q - tol

    def _check(self, interval, num, den):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = num / den
        reference = np.sort(ratios[~np.isnan(ratios)])
        # 0/0 replicates are dropped before the percentile
        n = max(1.0, self.REPLICATES * reference.size / ratios.size)
        tail = (1.0 - interval.level) / 2.0
        assert self._tail_ok(reference, n, tail, interval.lower)
        assert self._tail_ok(reference, n, 1.0 - tail, interval.upper)

    def test_bootstrap_matches_whole_row_multinomial(self):
        t = self.TABLE
        g = np.random.default_rng(20240105)
        n1, n2 = sum(t.same_source), sum(t.different_source)
        rows1 = g.multinomial(n1, np.array(t.same_source) / n1, self.REFERENCE_SIZE)
        rows2 = g.multinomial(n2, np.array(t.different_source) / n2, self.REFERENCE_SIZE)
        for k, statement in enumerate(t.categories):
            interval = bootstrap_interval(t, statement, replicates=self.REPLICATES, seed=k)
            self._check(interval, rows1[:, k] / n1, rows2[:, k] / n2)

    def test_dirichlet_matches_whole_row_dirichlet(self):
        t = self.TABLE
        g = np.random.default_rng(20240106)
        rows1 = g.dirichlet(np.array(t.same_source) + 0.5, self.REFERENCE_SIZE)
        rows2 = g.dirichlet(np.array(t.different_source) + 0.5, self.REFERENCE_SIZE)
        for k, statement in enumerate(t.categories):
            interval = dirichlet_interval(
                t, statement, alpha=0.5, draws=self.REPLICATES, seed=k
            )
            self._check(interval, rows1[:, k], rows2[:, k])


class TestZeroCountBound:
    def test_matches_numeric_solve_at_n300(self):
        # independent oracle: bisect (1-p)^300 = 0.05 for p
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if (1 - mid) ** 300 > 0.05:
                lo = mid
            else:
                hi = mid
        p_solved = (lo + hi) / 2
        t = ConfusionTable(("a", "b"), (5, 0), (0, 300))
        bound = zero_count_lower_bound(t, "a", level=0.95)
        assert bound == pytest.approx(1.0 / p_solved, rel=1e-9)
        assert bound == pytest.approx(100.7, abs=0.2)

    def test_single_trial_closed_form(self):
        t = ConfusionTable(("a", "b"), (3, 1), (0, 1))
        p1 = 3 / 4
        assert zero_count_lower_bound(t, "a", level=0.95) == pytest.approx(p1 / 0.95)

    def test_bound_grows_with_sample_size(self):
        bounds = []
        for n2 in (10, 100, 1000):
            t = ConfusionTable(("a", "b"), (5, 0), (0, n2))
            bounds.append(zero_count_lower_bound(t, "a"))
        assert bounds == sorted(bounds)
        assert bounds[0] < bounds[2] / 10

    def test_nonzero_denominator_rejected(self, bullets):
        with pytest.raises(DataError, match="nonzero"):
            zero_count_lower_bound(bullets, "ID")

    def test_zero_numerator_rejected(self):
        t = ConfusionTable(("a", "b"), (0, 5), (0, 10))
        with pytest.raises(DataError, match="positive same-source count"):
            zero_count_lower_bound(t, "a")


class TestWidthVersusSampleSize:
    def test_bootstrap_interval_narrows_on_scaled_table(self, bullets):
        base = bootstrap_interval(bullets, "ID", replicates=800, seed=13)
        big = ConfusionTable(
            bullets.categories,
            tuple(c * 50 for c in bullets.same_source),
            tuple(c * 50 for c in bullets.different_source),
        )
        scaled = bootstrap_interval(big, "ID", replicates=800, seed=13)
        assert (scaled.upper - scaled.lower) < (base.upper - base.lower)


def test_interval_results_are_reproducible_across_processes(bullets):
    # replicate streams depend only on (seed, index); numpy bit-generator
    # state never leaks between calls
    first = [
        bootstrap_interval(bullets, s, replicates=200, seed=17)
        for s in bullets.categories
    ]
    np.random.seed(0)  # global numpy state must be irrelevant
    second = [
        bootstrap_interval(bullets, s, replicates=200, seed=17)
        for s in bullets.categories
    ]
    assert first == second
    assert all(
        iv.contains(e.lr) for iv, e in zip(first, full_table_lrs(bullets))
    )
