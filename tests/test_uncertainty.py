import bisect
import itertools
import math
import os
import re
from fractions import Fraction
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import catlr
from catlr import betaratio
from catlr.betaratio import _DROP, _TABLE_GRID, _LogitBeta
from catlr.binomratio import MAX_POINTS, _Ratio, _Row, ratio_quantiles
from catlr.engine import full_table_lrs, likelihood_ratio
from catlr.model import ConfusionTable, DataError
from catlr.records import tally
from catlr.simulate import PanelProfile, simulate_study, true_lr
from catlr.uncertainty import (
    Interval,
    bootstrap_interval,
    dirichlet_interval,
    interval_of,
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
    def test_deterministic(self, bullets):
        assert bootstrap_interval(bullets, "ID") == bootstrap_interval(bullets, "ID")

    def test_replicates_change_nothing_and_seed_is_gone(self, bullets):
        # the interval is the ideal bootstrap's, computed, not drawn: replicates
        # is neither checked nor used, and nothing takes a seed
        a = bootstrap_interval(bullets, "ID")
        for replicates in (20, 100, 10**6, 10**12):
            assert bootstrap_interval(bullets, "ID", replicates=replicates) == a
        with pytest.raises(TypeError):
            bootstrap_interval(bullets, "ID", seed=1)

    def test_point_estimate_inside(self, bullets):
        interval = bootstrap_interval(bullets, "ID")
        point = likelihood_ratio(bullets, "ID").lr
        assert interval.contains(point)
        assert math.isfinite(interval.upper)

    def test_identical_rows_interval_contains_one(self):
        t = ConfusionTable(("a", "b", "c"), (40, 35, 25), (40, 35, 25))
        interval = bootstrap_interval(t, "a")
        assert interval.contains(1.0)

    def test_infinite_replicates_push_upper_to_infinity(self):
        # 0/10 different-source count for "a": ~35% of resampled rows drop
        # the denominator entirely, so the upper percentile is infinite.
        t = ConfusionTable(("a", "b"), (5, 5), (1, 9))
        interval = bootstrap_interval(t, "a")
        assert interval.upper == math.inf
        assert math.isfinite(interval.lower)

    def test_degenerate_concentrated_row_still_returns(self):
        t = ConfusionTable(("a", "b"), (50, 0), (10, 40))
        interval = bootstrap_interval(t, "a")
        assert interval.lower <= interval.upper

    def test_zero_row_total_rejected(self):
        t = ConfusionTable(("a",), (0,), (5,))
        with pytest.raises(DataError, match="no observations"):
            bootstrap_interval(t, "a")

    def test_row_total_up_to_the_binomial_limit(self):
        # no row total is too large: the law is summed, not drawn
        largest = ConfusionTable(("a", "b"), (2**63 - 11, 10), (1, 5))
        assert bootstrap_interval(largest, "a").lower > 0
        over = ConfusionTable(("a", "b"), (1, 5), (2**63 - 10, 10))
        interval = bootstrap_interval(over, "a")
        # X2 / n2 is 1 within 1e-18, so R is X1 / 6: 0 with probability 0.33, at most 3 / 6 at 97.5%
        assert (interval.lower, interval.upper) == (0.0, 0.5)
        beyond = ConfusionTable(("a", "b"), (2**63 - 10, 10), (1, 5))
        assert 1.99 < bootstrap_interval(beyond, "a").lower < 2.01

    def test_method_metadata_names_algorithm(self, bullets):
        interval = bootstrap_interval(bullets, "ID")
        assert interval.method == "bootstrap-percentile(ideal,lattice-v1)"
        assert interval.method.startswith("bootstrap")
        assert interval.level == 0.95

    def test_statement_absent_from_both_rows_has_no_interval(self):
        t = ConfusionTable(("ID", "NONE", "Elimination"), (100, 0, 3), (0, 0, 40))
        message = "undefined likelihood ratio (0/0): the bootstrap law has no defined value; no interval exists"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            bootstrap_interval(t, "NONE")

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
            interval = bootstrap_interval(table, "w")
            if interval.contains(true_lr(profile, "w")):
                covered += 1
        assert 0.85 <= covered / runs <= 1.0


class TestLevel:
    """Both methods take any level whose upper quantile 1 - (1 - level) / 2 is
    below 1 in floating point, and reject the one level below 1 that is not."""

    MESSAGE = ("level must be at most 0.9999999999999998, got 0.9999999999999999: "
               "its upper quantile 1 - (1 - level) / 2 rounds to 1")

    @pytest.mark.parametrize("interval", [bootstrap_interval, dirichlet_interval])
    def test_the_last_level_below_one_is_a_data_error(self, bullets, interval):
        with pytest.raises(DataError, match=f"^{re.escape(self.MESSAGE)}$"):
            interval(bullets, "ID", level=1 - 2**-53)
        widest = interval(bullets, "ID", level=1 - 2**-52)
        assert widest.lower <= likelihood_ratio(bullets, "ID").lr <= widest.upper

    @pytest.mark.parametrize("method", ["bootstrap", "dirichlet"])
    def test_interval_of_rejects_it_before_any_table(self, method):
        with pytest.raises(DataError, match=f"^{re.escape(self.MESSAGE)}$"):
            interval_of(method, 1 - 2**-53)


class TestDirichlet:
    def test_depends_on_table_statement_alpha_and_level_only(self, bullets):
        a = dirichlet_interval(bullets, "ID", alpha=0.5)
        b = dirichlet_interval(bullets, "ID", alpha=0.5, level=0.95)
        assert a == b
        assert a.contains(likelihood_ratio(bullets, "ID").lr)
        assert a.method == "dirichlet-posterior(alpha=0.5,quadrature-v1)"
        assert dirichlet_interval(bullets, "ID", alpha=1.0) != a
        narrower = dirichlet_interval(bullets, "ID", level=0.8)
        assert a.lower < narrower.lower < narrower.upper < a.upper

    def test_width_shrinks_like_root_sample_size(self, bullets):
        base = dirichlet_interval(bullets, "ID")
        big = ConfusionTable(
            bullets.categories,
            tuple(c * 1000 for c in bullets.same_source),
            tuple(c * 1000 for c in bullets.different_source),
        )
        scaled = dirichlet_interval(big, "ID")
        ratio = (base.upper - base.lower) / (scaled.upper - scaled.lower)
        assert 22 <= ratio <= 45  # ~sqrt(1000) = 31.6

    def test_single_category_interval_is_exactly_one(self):
        t = ConfusionTable(("only",), (7,), (9,))
        interval = dirichlet_interval(t, "only")
        assert (interval.lower, interval.upper) == (1.0, 1.0)

    def test_parameter_validation(self, bullets):
        for options in ({"alpha": 0.0}, {"alpha": math.inf}, {"alpha": 1e101}, {"alpha": 1e-101},
                        {"level": 0.0}):
            with pytest.raises(DataError):
                dirichlet_interval(bullets, "ID", **options)
        with pytest.raises(TypeError):
            dirichlet_interval(bullets, "ID", seed=1)  # nothing is drawn
        # draws is neither checked nor used
        assert dirichlet_interval(bullets, "ID", draws=1000) == dirichlet_interval(bullets, "ID")

    def test_loads_neither_numpy_nor_rng(self):
        # in a fresh interpreter: the suite itself has both loaded
        script = (
            "import sys\n"
            "from catlr.model import ConfusionTable\n"
            "from catlr.uncertainty import dirichlet_interval\n"
            "dirichlet_interval(ConfusionTable(('a', 'b'), (30, 2), (1, 40)), 'a')\n"
            "print('numpy' in sys.modules, 'catlr.rng' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(catlr.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))},
        )
        assert done.stdout == "False False\n"


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
            interval = dirichlet_interval(table, "w", level=0.95)
            covered += interval.contains(true_lr(profile, "w"))
        margin = 3 * math.sqrt(0.95 * 0.05 / self.STUDIES)
        assert abs(covered / self.STUDIES - 0.95) <= margin


def scipy_ratio_quantile(same, different, q):
    """The q quantile of B1 / B2 for independent B1 ~ Beta(*same) and
    B2 ~ Beta(*different), by an independent route: scipy's adaptive
    quadrature over the probability scale of the law whose log has the
    smaller variance, of the other's regularized incomplete beta function,
    and Brent's root finder in log t.  0 or inf beyond e**-700 or e**700."""
    special = pytest.importorskip("scipy.special")
    integrate = pytest.importorskip("scipy.integrate")
    optimize = pytest.importorskip("scipy.optimize")
    (a1, b1), (a2, b2) = same, different

    def var_log(a, b):
        return special.polygamma(1, a) - special.polygamma(1, a + b)

    def cdf(s):
        t = math.exp(s)
        if var_log(a2, b2) <= var_log(a1, b1):  # E over B2 of P(B1 <= t B2)
            def g(p):
                y = t * special.betaincinv(a2, b2, p)
                return 1.0 if y >= 1 else special.betainc(a1, b1, y)
            edge = special.betainc(a2, b2, 1 / t) if t > 1 else None
        else:  # E over B1 of P(B2 >= B1 / t)
            def g(p):
                y = special.betaincinv(a1, b1, p) / t
                return 0.0 if y >= 1 else special.betaincc(a2, b2, y)
            edge = special.betainc(a1, b1, t) if t < 1 else None
        points = [edge] if edge is not None and 0 < edge < 1 else None
        with warnings.catch_warnings():
            # quad may warn that it cannot reach 1e-10; what it reaches is
            # still far inside the 1e-5 the tests ask
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            return integrate.quad(g, 0, 1, points=points, epsabs=1e-13, epsrel=1e-10, limit=500)[0]

    if cdf(700.0) < q:
        return math.inf
    if cdf(-700.0) > q:
        return 0.0
    root = optimize.brentq(lambda s: cdf(s) - q, -700.0, 700.0, xtol=1e-13, rtol=1e-14)
    return math.exp(root)


def assert_matches_scipy(table, statement, alpha=0.5, level=0.95, rel=1e-5):
    interval = dirichlet_interval(table, statement, alpha=alpha, level=level)
    k = table.index_of(statement)
    rest = (len(table.categories) - 1) * alpha
    same, different = (
        (row[k] + alpha, sum(row) - row[k] + rest)
        for row in (table.same_source, table.different_source)
    )
    tail = (1 - level) / 2
    for value, q in ((interval.lower, tail), (interval.upper, 1 - tail)):
        expected = scipy_ratio_quantile(same, different, q)
        assert value == pytest.approx(expected, rel=rel, abs=0), (statement, alpha, level, q)


def exact_bootstrap_quantiles(n1, c1, n2, c2, qs):
    """The ``qs`` quantiles of the ideal stratified bootstrap's law of the
    LR, by enumerating both binomials in exact rational arithmetic: for
    each q the smallest atom (x1 n2) / (x2 n1), with 0/0 dropped and inf
    above every finite value, whose conditional CDF reaches q, as a
    correctly rounded float."""

    def pmf(n, c):
        return [Fraction(math.comb(n, x) * c**x * (n - c) ** (n - x), n**n) for x in range(n + 1)]

    atoms, row1 = {}, pmf(n1, c1)
    for x2, m2 in enumerate(pmf(n2, c2)):
        for x1, m1 in enumerate(row1):
            if m1 and m2 and (x1 or x2):
                value = Fraction(x1 * n2, x2 * n1) if x2 else math.inf
                atoms[value] = atoms.get(value, 0) + m1 * m2
    values = sorted(atoms)
    cdf = list(itertools.accumulate(atoms[v] for v in values))
    return tuple(float(values[bisect.bisect_left(cdf, Fraction(q) * cdf[-1])]) for q in qs)


def coverage_given_zero_count(intervals, n1, p1, theta):
    """The Binomial(n1, p1) mass, in exact rational arithmetic, of the x1
    whose ``intervals[x1]``, a (lower, upper) pair, holds ``theta``."""
    p = Fraction(p1)
    mass = sum(math.comb(n1, x1) * p**x1 * (1 - p) ** (n1 - x1)
               for x1, (lower, upper) in enumerate(intervals) if lower <= theta <= upper)
    return float(mass)


def assert_equals_enumeration(table, statement, level=0.95):
    interval = bootstrap_interval(table, statement, level=level)
    k = table.index_of(statement)
    cells = (sum(table.same_source), table.same_source[k], sum(table.different_source), table.different_source[k])
    tail = (1 - level) / 2
    expected = exact_bootstrap_quantiles(*cells, (tail, 1 - tail))
    assert (interval.lower, interval.upper) == expected, (statement, level)


class TestMarginalDrawLaw:
    """Each interval reads only statement k's cell of a row; its endpoints
    must follow the law of the whole rows that cell is taken from."""

    TABLE = ConfusionTable(("a", "b", "c", "d"), (60, 25, 10, 5), (3, 40, 57, 0))

    @pytest.mark.parametrize("level", [0.95, 0.8, 0.5])
    def test_bootstrap_equals_the_exact_enumeration(self, level):
        # bit for bit: each endpoint is the atom the exact law reaches its tail at
        for statement in self.TABLE.categories:
            assert_equals_enumeration(self.TABLE, statement, level)

    def test_dirichlet_matches_the_beta_marginals(self):
        # exact to 1e-5: a 5% smaller row total, or a rest shape of (K-2)
        # alpha instead of (K-1) alpha, moves every endpoint by far more
        for statement in self.TABLE.categories:
            assert_matches_scipy(self.TABLE, statement)


class TestBootstrapExact:
    """Small tables, where both binomials can be enumerated exactly."""

    ZERO_CELLS = ConfusionTable(("ID", "Inconclusive", "Elimination"), (20, 6, 0), (0, 10, 31))
    UNDEFINED = ConfusionTable(("ID", "NONE", "Elimination"), (100, 0, 3), (0, 0, 40))
    # R is 0/0 with probability (2/3)**3 * (1/2)**2 = 0.074
    RARE = ConfusionTable(("a", "b"), (1, 2), (1, 1))

    @pytest.mark.parametrize("table", ["ZERO_CELLS", "UNDEFINED", "RARE"])
    @pytest.mark.parametrize("level", [0.95, 0.9, 0.5])
    def test_zero_cells_and_undefined_replicates(self, table, level):
        table = getattr(self, table)
        for statement in table.categories:
            if statement != "NONE":
                assert_equals_enumeration(table, statement, level)

    def test_seeded_small_tables(self):
        g = np.random.default_rng(20260105)
        for _ in range(40):
            n1, n2 = (int(n) for n in g.integers(1, 41, 2))
            c1, c2 = int(g.integers(0, n1 + 1)), int(g.integers(0, n2 + 1))
            if c1 or c2:
                table = ConfusionTable(("a", "b"), (c1, n1 - c1), (c2, n2 - c2))
                level = float(g.choice([0.95, 0.9, 0.5, 0.99, 0.999999, 1 - 1e-12, 1e-9]))
                assert_equals_enumeration(table, "a", level)

    @pytest.mark.parametrize("n1, c1, n2, c2", [(20, 19, 2, 1), (61, 31, 2, 1), (61, 47, 2, 1)])
    def test_a_walk_short_of_its_tail_by_roundings_ends_on_an_atom(self, n1, c1, n2, c2):
        # the upper endpoint is the last atom walked, 2.0, not the float above it
        assert_equals_enumeration(ConfusionTable(("a", "b"), (c1, n1 - c1), (c2, n2 - c2)), "a", 0.5)

    @pytest.mark.parametrize(
        "n1, c1, n2, c2, lower",
        [(2, 1, 61, 32, 0.5), (2, 1, 61, 57, 0.5), (2, 1, 35, 16, 35 / 66)],
    )
    def test_a_zero_atom_short_of_its_tail_by_less_than_a_rounding_is_not_the_endpoint(
        self, n1, c1, n2, c2, lower
    ):
        # P(R = 0 | defined) = 0.25 (1 - y0) / (1 - y0 / 4), y0 = P(X2 = 0), falls
        # short of the tail 0.25 by less than a float spacing.  The lower
        # endpoint is then the least positive atom, 1 / 2 over 61 / 61, or
        # where the least atoms' masses fall short of the shortfall, as those
        # over 35 / 35 and 34 / 35 do, the atom at which their sum reaches it
        table = ConfusionTable(("a", "b"), (c1, n1 - c1), (c2, n2 - c2))
        assert exact_bootstrap_quantiles(n1, c1, n2, c2, (0.25, 0.75))[0] == lower
        assert bootstrap_interval(table, "a", level=0.5).lower == lower

    @pytest.mark.xfail(strict=True, reason="float sums misplace an atom where the CDF ties its tail")
    @pytest.mark.parametrize("n1, c1, n2, c2", [(2, 1, 62, 31), (2, 1, 31, 30), (61, 29, 2, 1)])
    def test_an_atom_at_which_the_law_ties_its_tail_is_the_endpoint(self, n1, c1, n2, c2):
        # the exact CDF meets the tail at an atom to within a float rounding: the
        # lower 0.5 of the first reads 0.5081967213114754, the upper 1.0 of the
        # second 0.96875, the upper 1.9344262295081966 of the third 1.9672131147540983
        assert ratio_quantiles(n1, c1, n2, c2, 0.25) == exact_bootstrap_quantiles(n1, c1, n2, c2, (0.25, 0.75))

    def test_adjacent_floats_round_to_the_atom_of_the_exact_order(self, monkeypatch):
        # row 1's ~560 atoms per row 2 point are closer than the float spacing,
        # so the bracket narrows to two adjacent floats; the endpoints must
        # still be the atoms an exact-order walk of the tabulated masses reaches
        original, calls = _Ratio._adjacent, []

        def adjacent(law, a, b, target):
            calls.append((a, b))
            return original(law, a, b, target)

        monkeypatch.setattr(_Ratio, "_adjacent", adjacent)
        n1, c1, n2, c2, tail = 2**63, 2**63 - 1000, 100, 50, 0.025
        got = ratio_quantiles(n1, c1, n2, c2, tail)
        assert len(calls) == 2
        x, y = _Row(n1, c1), _Row(n2, c2)
        assert x.lo > 0 and y.lo > 0 and x.step == y.step == 1  # no 0, no inf
        atoms = {}
        for x2, m2 in zip(range(y.lo, y.hi + 1), y.mass):
            for x1, m1 in zip(range(x.lo, x.hi + 1), x.mass):
                value = Fraction(x1 * n2, x2 * n1)
                atoms[value] = atoms.get(value, 0) + Fraction(m1) * Fraction(m2)
        values = sorted(atoms)
        cdf = list(itertools.accumulate(atoms[v] for v in values))
        expected = tuple(float(values[bisect.bisect_left(cdf, Fraction(q) * cdf[-1])])
                         for q in (tail, 1 - tail))
        assert got == expected == (1.6666666666666665, 2.4999999999999996)

    @pytest.mark.parametrize("n1, c1, n2, c2", [(200, 60, 300, 100), (5000, 4990, 80, 40)])
    def test_a_float_floor_that_misplaces_an_atom_is_solved_again_in_integers(
        self, monkeypatch, n1, c1, n2, c2
    ):
        # a float-floor CDF understated by 1% moves the bracket's lower end
        # past the endpoint; the walk's own sum there reaches the tail, and the
        # solve taken again with every floor in integers finds the same atoms
        expected = ratio_quantiles(n1, c1, n2, c2, 0.025)
        original = _Ratio.cdf

        def cdf(law, N, D, exact_floors=False):
            value = original(law, N, D, exact_floors)
            return value if exact_floors else 0.99 * value

        monkeypatch.setattr(_Ratio, "cdf", cdf)
        assert ratio_quantiles(n1, c1, n2, c2, 0.025) == expected

    def test_the_bracketing_solve_reaches_the_same_atoms(self, monkeypatch):
        # tables this small are normally walked whole; with no atoms walked
        # until a bracket holds almost none, the solve narrows it by regula
        # falsi steps down to adjacent floats, and must still land on each atom
        from catlr import binomratio

        monkeypatch.setattr(binomratio, "_WALK_ATOMS", 1)
        for table in (TestMarginalDrawLaw.TABLE, self.ZERO_CELLS, self.RARE):
            for statement in table.categories:
                assert_equals_enumeration(table, statement, 0.9)


class TestSolverEdges:
    """Branches of the two solvers that only extreme tables reach."""

    def test_bootstrap_step_past_the_float_range_takes_every_floor_in_integers(self):
        # row 1's total is ~1e307: a walk's running offsets pass the largest
        # float.  X1 / n1 is 1 to within 1e-306 and X2 ~ Binomial(70, 1 / 70)
        # is 3 or more with probability 0.079 >= 0.025 > 0.018, 4 or more
        interval = bootstrap_interval(ConfusionTable(("a", "b"), (2**1020, 25), (1, 69)), "a")
        assert (interval.lower, interval.upper) == (70 / 3, math.inf)

    def test_bootstrap_atoms_closer_than_the_float_spacing_round_to_their_float(self):
        # every atom is within 1e-63 of 1: the bracket narrows to two adjacent
        # floats, where the float floors of the solve misplace an atom and the
        # solve is taken again in integers
        table = ConfusionTable(("same", "other"), (10**65 - 1, 1), (10**280 - 57, 57))
        interval = bootstrap_interval(table, "same")
        assert (interval.lower, interval.upper) == (1.0, 1.0)

    def test_dirichlet_interval_of_a_huge_row_scales_with_its_total(self):
        # Beta(5.5, N) is N times a Gamma(5.5) law, to within 1 / N: the same
        # interval, times N, for N = 2**40 and N = 2**1020
        def scaled(n):
            interval = dirichlet_interval(ConfusionTable(("a", "b"), (5, n), (7, 3)), "a")
            return interval.lower * n, interval.upper * n

        assert scaled(2**1020) == pytest.approx(scaled(2**40), rel=1e-9)

    def test_dirichlet_law_narrower_than_a_float_spacing_is_its_point(self):
        # posterior shapes near 1e307: log(B1 / B2) has a spread near 1e-153,
        # so no step from the guess moves it, and the solve returns the guess
        t = ConfusionTable(("a", "b"), (3 * 10**306, 2 * 10**307), (4 * 10**197, 10**307))
        interval = dirichlet_interval(t, "b", level=0.5)
        assert interval.lower == interval.upper == pytest.approx(likelihood_ratio(t, "b").lr, rel=1e-15)

    @pytest.mark.parametrize("statement", ["a", "b"])
    def test_dirichlet_shape_whose_mode_underflows_is_a_data_error(self, statement):
        # Beta(1e-80, ~1e248): a / (a + b) is below the smallest float, so
        # the log of the mode's odds, log(a / b), was a math domain error
        t = ConfusionTable(("a", "b"), (0, 10**248), (2, 10**138))
        with pytest.raises(DataError, match=r"^no quadrature grid for Beta\(1e-80, 1e\+248\): "):
            dirichlet_interval(t, statement, alpha=1e-80)

    def test_dirichlet_cdf_is_one_where_the_bound_passes_one(self):
        # P(U <= e**s D) = 1 at every point with e**s D >= 1, and P(U > e**s D) = 0
        cdf = betaratio._Cdf(2.0, 3.0)
        points = [(-0.5, 0.25), (-0.1, 0.75)]  # (log D, weight)
        assert cdf.expect(points, 1.0, upper=False) == (1.0, 0.0)
        assert cdf.expect(points, 1.0, upper=True) == (0.0, 0.0)

    @pytest.mark.parametrize("q", [0.025, 0.975])
    def test_dirichlet_solve_from_a_guess_below_the_law_steps_up_to_it(self, q):
        # at s = -700 the lower tail is 0 and the upper 1: the solve doubles
        # its step up from there until it brackets the quantile
        ratio = betaratio._Ratio((30.5, 10.5), (20.5, 20.5))
        (m1, v1), (m2, v2) = betaratio._log_beta_moments(30.5, 10.5), betaratio._log_beta_moments(20.5, 20.5)
        scale = math.sqrt(v1 + v2)
        guess = m1 - m2 + betaratio._normal_quantile(q) * scale
        assert ratio.quantile(q, -700.0, scale) == pytest.approx(ratio.quantile(q, guess, scale), abs=1e-9)


def numpy_bootstrap(n1, c1, n2, c2, size, seed):
    """``size`` replicates of the LR under the stratified bootstrap, drawn as
    catlr drew them before it computed the law: numpy binomial draws of
    each row's cell, 0/0 dropped, sorted with inf last."""
    g = np.random.default_rng(seed)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (g.binomial(n1, c1 / n1, size) / n1) / (g.binomial(n2, c2 / n2, size) / n2)
    return np.sort(ratios[~np.isnan(ratios)]), size


def assert_in_bootstrap_reference(n1, c1, n2, c2, intervals, seed=0, size=10**6):
    """Each (lower, upper, level) of ``intervals`` inside the tolerance of
    bench/checks.py::IntervalLaw, for an interval as good as a
    1e6-replicate run: 5 standard errors of a percentile from that many
    defined replicates, 5 of the reference's own, and two replicates' worth
    of discreteness.  An atom's value may differ by a rounding, as numpy
    divides the two proportions and catlr the two integer products."""
    rtol = 1e-12
    reference, drawn = numpy_bootstrap(n1, c1, n2, c2, size, seed)
    n = max(1.0, size * reference.size / drawn)
    for lower, upper, level in intervals:
        tail = (1 - level) / 2
        for q, value in ((tail, lower), (1 - tail, upper)):
            tol = 5.0 * math.sqrt(q * (1 - q) / n) + 5.0 * math.sqrt(q * (1 - q) / reference.size) + 2.0 / n
            below = np.searchsorted(reference, value * (1 - rtol), "left") / reference.size
            upto = np.searchsorted(reference, value * (1 + rtol), "right") / reference.size
            assert below <= q + tol and upto >= q - tol, ((n1, c1, n2, c2), level, q, value, below, upto)


def assert_table_in_bootstrap_reference(table, levels=(0.95, 0.8)):
    n1, n2 = sum(table.same_source), sum(table.different_source)
    for k, statement in enumerate(table.categories):
        c1, c2 = table.same_source[k], table.different_source[k]
        if c1 or c2:
            intervals = [bootstrap_interval(table, statement, level=level) for level in levels]
            assert_in_bootstrap_reference(n1, c1, n2, c2, [(i.lower, i.upper, i.level) for i in intervals], seed=k)


class TestBootstrapAccuracy:
    """Every endpoint inside the tolerance of a 1e6-replicate numpy bootstrap."""

    K20_BENCH = ConfusionTable(
        tuple(f"Level-{i:02d}" for i in range(1, 21)),
        (212, 198, 205, 187, 220, 201, 196, 209, 193, 204, 199, 211, 188, 207, 195, 202, 210, 190, 197, 176),
        (230, 185, 0, 215, 190, 205, 180, 220, 199, 210, 195, 188, 240, 200, 175, 212, 205, 198, 222, 231),
    )

    def test_corpus_tables(self):
        import cli_corpus
        from catlr.ingest import parse_aggregated

        for name in ("bullets", "infinite", "zero_same_source", "undefined", "one_category", "quoted"):
            table = parse_aggregated(cli_corpus.TABLES[name].decode(), name)
            assert_table_in_bootstrap_reference(table)

    def test_bench_tables(self):
        for table in (TestDirichletAccuracy.K2_BENCH, TestDirichletAccuracy.K6_BENCH, self.K20_BENCH):
            assert_table_in_bootstrap_reference(table)

    @pytest.mark.parametrize("total", [1, 2, 7, 40, 300, 4000, 30_000, 250_000, 10**6, 4 * 10**6, 10**7])
    def test_sparse_grid_of_totals(self, total):
        # cells 1, n / 10, n / 2 and n - 1 against one another; past ~3.2e6
        # per row the n / 2 and n / 10 cells are tabulated with a stride
        tenth, half, most = max(1, total // 10), max(1, total // 2), max(1, total - 1)
        for c1, c2 in {(1, 1), (tenth, half), (half, half), (most, 1), (1, most), (most, tenth)}:
            cells = (total, c1, total + 3, c2)
            assert_in_bootstrap_reference(*cells, [(*ratio_quantiles(*cells, 0.025), 0.95)])


class TestBootstrapStride:
    """The stride rule's error, measured against the same law tabulated at
    every count (``MAX_POINTS`` raised so that no row is strided)."""

    UNIT = 2**17

    @pytest.fixture
    def unstrided(self, monkeypatch):
        from catlr import binomratio

        def call(function, *args):
            with monkeypatch.context() as patch:
                patch.setattr(binomratio, "MAX_POINTS", self.UNIT)
                return function(*args)

        return call

    @pytest.mark.parametrize(
        "rows",
        [
            ((4_000_000, 2_000_000), (4_000_000, 1_000_000)),  # row 1 strided, row 2 not; atoms line up at t = 2
            ((9_000_000, 3_000_000), (5_000_000, 2_600_000)),  # both strided
            ((9_000_000, 3_000_000), (500_000, 20_000)),  # row 1 strided, row 2 not
            ((200_000, 1_000), (9_000_000, 4_500_000)),  # row 2 strided: the sum runs over row 1
            ((4_000_000, 2_000_000), (4_000_000, 2_000_000)),  # identical rows: atoms line up at t = 1
        ],
    )
    def test_cdf_within_the_documented_bound(self, rows, unstrided):
        strided = [_Row(n, c) for n, c in rows]
        unit = [unstrided(_Row, n, c) for n, c in rows]
        assert all(r.size <= MAX_POINTS for r in strided) and max(r.step for r in strided) > 1
        assert all(r.step == 1 for r in unit)
        sigma = min(math.sqrt(c * (n - c) / n) for (n, c), r in zip(rows, strided) if r.step > 1)
        bound = 1e-7 + 0.2 / sigma
        one, two = strided
        law = _Ratio(two, one) if two.step > 1 and one.step == 1 else _Ratio(one, two)
        exact = _Ratio(*((unit[1], unit[0]) if law.x is two else unit))
        (n1, c1), (n2, c2) = rows
        center = (c1 * n2) / (c2 * n1)
        if law.x is two:
            center = 1 / center
        worst = 0.0
        for step in range(-40, 41):
            t = center * math.exp(step * 1e-4)
            N, D = t.as_integer_ratio()
            worst = max(worst, abs(law.cdf(N, D) - exact.cdf(N, D)))
        assert worst <= bound, (rows, worst, bound)

    @pytest.mark.parametrize("tail", [0.025, 5e-7, 5e-13])
    def test_endpoints_move_by_less_than_the_bound_allows(self, unstrided, tail):
        rows = (9_000_000, 3_000_000, 5_000_000, 2_600_000)
        strided = ratio_quantiles(*rows, tail)
        unit = unstrided(ratio_quantiles, *rows, tail)
        # the law's density at the 2.5% points is ~0.058 / (t * spread): a
        # probability error of 2.3e-4 moves t by under 4e-3 spreads; in the
        # far tails the error shrinks with the mass, and the solve's
        # tolerance is relative to the tail
        spread = math.hypot(math.sqrt(6e6 / (9e6 * 3e6)), math.sqrt(2.4e6 / (5e6 * 2.6e6)))
        for a, b in zip(strided, unit):
            assert abs(a - b) / b <= 4e-3 * spread


class TestDirichletAccuracy:
    """Every endpoint within 1e-5 relative of the scipy reference."""

    K2_BENCH = ConfusionTable(("Identification", "Elimination"), (3100, 1100), (2, 4298))
    K6_BENCH = ConfusionTable(
        ("ID", "Inconcl.-A", "Inconcl.-B", "Inconcl.-C", "Elimination", "Other"),
        (170000, 160000, 150000, 200000, 150000, 170500),
        (0, 200000, 210000, 190000, 200000, 200400),
    )
    ZERO_CELLS = ConfusionTable(("ID", "Inconclusive", "Elimination"), (20, 6, 0), (0, 10, 31))
    UNDEFINED = ConfusionTable(("ID", "NONE", "Elimination"), (100, 0, 3), (0, 0, 40))

    @pytest.mark.parametrize("statement", ["Identification", "Elimination"])
    def test_bench_k2(self, statement):
        assert_matches_scipy(self.K2_BENCH, statement)

    @pytest.mark.parametrize("statement", ["ID", "Inconcl.-B"])
    def test_bench_k6_at_a_million_per_row(self, statement):
        assert_matches_scipy(self.K6_BENCH, statement, level=0.8)

    def test_bullets(self, bullets):
        for statement in bullets.categories:
            assert_matches_scipy(bullets, statement)

    @pytest.mark.parametrize("alpha", [1e-3, 0.5, 1.0, 100.0])
    @pytest.mark.parametrize("table", ["ZERO_CELLS", "UNDEFINED"])
    def test_zero_cells_and_undefined_rows(self, table, alpha):
        table = getattr(self, table)
        for statement in table.categories:
            if statement == "NONE" and alpha == 1e-3:
                continue  # below: the reference loses the mass under e**-700
            assert_matches_scipy(table, statement, alpha=alpha, level=0.9)

    def test_undefined_row_with_a_tiny_prior_leaves_the_float_range(self):
        # each cell of the 0/0 row is Beta(0.001, ~100): its log is close to
        # minus an exponential of mean 1000, so log(B1 / B2) is close to a
        # Laplace law of scale 1000, whose 5% and 95% points are -+2303
        interval = dirichlet_interval(self.UNDEFINED, "NONE", alpha=1e-3, level=0.9)
        assert (interval.lower, interval.upper) == (0.0, math.inf)

    def test_single_category(self):
        interval = dirichlet_interval(ConfusionTable(("only",), (1, ), (10**6,)), "only", alpha=100.0)
        assert (interval.lower, interval.upper) == (1.0, 1.0)

    @pytest.mark.xfail(strict=True, reason="a posterior near a point law is solved to "
                       "1.04e-20 to 1.055e-20, which excludes the point LR 1.3e-20")
    def test_narrow_posterior_over_a_wide_one_is_the_mean_over_its_quantiles(self):
        # B1 = Beta(1e40 + 0.5, 1e60 + 0.5) is nearly its mean, so B1 / B2
        # is that mean over B2 = Beta(40.5, 12.5); its 0.975 and 0.025
        # points by scipy.stats.beta.ppf give the endpoints (abs=0: approx's
        # default absolute tolerance, 1e-12, would pass any value this small)
        table = ConfusionTable(("a", "b"), (10**40, 10**60), (40, 12))
        interval = dirichlet_interval(table, "a")
        assert interval.lower == pytest.approx(1.1531274158894064e-20, rel=1e-5, abs=0)
        assert interval.upper == pytest.approx(1.557049722693079e-20, rel=1e-5, abs=0)


def best_of_three_seconds(call):
    """The least processor time of three calls, and the last call's result:
    processor time, and the best of three, so that other load on the host
    does not count."""
    times = []
    for _ in range(3):
        start = time.process_time()
        result = call()
        times.append(time.process_time() - start)
    return min(times), result


class TestDirichletCost:
    """Extreme priors and row totals finish fast, with a bounded grid."""

    @pytest.mark.parametrize("alpha", [1e-100, 1e-9, 1e-3, 1.0, 1e9, 1e100])
    @pytest.mark.parametrize("total", [1, 4000, 2**63 - 1])
    def test_extremes_finish_under_100_ms(self, alpha, total):
        table = ConfusionTable(("a", "b", "c"), (total - 1, 1, 0) if total > 1 else (1, 0, 0),
                               (0, 0, total))
        for statement in table.categories:
            seconds, interval = best_of_three_seconds(lambda: dirichlet_interval(table, statement, alpha=alpha))
            assert seconds < 0.1, (alpha, total, statement)
            assert 0.0 <= interval.lower <= interval.upper <= math.inf

    def test_node_count_is_bounded_for_every_shape(self):
        # a Dirichlet row has at least one observation, so a + b >= 1
        shapes = [10.0**e for e in range(-100, 101, 10)] + [0.5, 2.0**63]
        for a in shapes:
            for b in shapes:
                if max(a, b) >= 0.5:
                    assert len(_LogitBeta(a, b).grid(*_TABLE_GRID, _DROP)) < 500, (a, b)


class TestBootstrapCost:
    """Every row total finishes fast, and no row is tabulated at more than
    ``MAX_POINTS`` points, however large its total."""

    @pytest.mark.parametrize("total", [1, 4000, 10**6, 2**63 - 1, 2**70])
    def test_extremes_finish_under_100_ms(self, total):
        cells = sorted({0, 1, total // 2, total - 1})
        for c1 in cells:
            for c2 in cells:
                if c1 == c2 == 0:
                    continue
                table = ConfusionTable(("a", "b"), (c1, total - c1), (c2, total - c2))
                seconds, interval = best_of_three_seconds(lambda: bootstrap_interval(table, "a"))
                assert seconds < 0.1, (total, c1, c2)
                assert 0.0 <= interval.lower <= interval.upper <= math.inf
                for c in (c1, c2):
                    if c:
                        assert _Row(total, c).size <= MAX_POINTS == 2**14, (total, c)


class TestZeroCountRows:
    # Given c2 = 0 the point LR is infinite.  The bootstrap law is then a
    # point mass at inf; the Dirichlet interval is finite, but no interval
    # holds its level once the true p2 nears u = 1 - 0.05**(1/n2), the
    # one-sided binomial bound on a zero count (README, *Zero-count rows*).
    SHAPES = {
        (100, 0.5, 100): (0.9999999999998, 0.0666053096, 0.0000062896),
        (20, 0.2, 100): (0.9678573369, 0.6296482639, 0.4114488620),
    }

    @staticmethod
    def tables(n1, n2):
        return [ConfusionTable(("a", "b"), (x1, n1 - x1), (0, n2)) for x1 in range(n1 + 1)]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "n1=%d,p1=%g,n2=%d" % s)
    def test_coverage_given_a_zero_different_source_count(self, shape):
        n1, p1, n2 = shape
        intervals = [(i.lower, i.upper)
                     for i in (dirichlet_interval(t, "a") for t in self.tables(n1, n2))]
        u = 1 - 0.05 ** (1 / n2)
        for factor, coverage in zip((0.5, 1.0, 1.5), self.SHAPES[shape]):
            theta = p1 / (factor * u)
            assert coverage_given_zero_count(intervals, n1, p1, theta) == pytest.approx(
                coverage, abs=1e-4), factor

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "n1=%d,p1=%g,n2=%d" % s)
    def test_bootstrap_interval_is_settled_at_inf(self, shape):
        n1, _, n2 = shape
        for t in self.tables(n1, n2)[1:]:
            interval = bootstrap_interval(t, "a")
            assert (interval.lower, interval.upper) == (math.inf, math.inf)

    def test_bootstrap_interval_is_settled_at_zero_given_a_zero_same_source_count(self):
        interval = bootstrap_interval(ConfusionTable(("a", "b"), (0, 20), (5, 100)), "a")
        assert (interval.lower, interval.upper) == (0.0, 0.0)

    def test_dirichlet_interval_of_the_readme_example_is_finite(self):
        # README, *Zero-count rows*: `ID,100,0` over `Elim,20,100` gives 33.48–1.695e+05
        interval = dirichlet_interval(ConfusionTable(("ID", "Elim"), (100, 20), (0, 100)), "ID")
        # each within half a unit of the printed figure's last digit
        assert interval.lower == pytest.approx(33.48, abs=0.005)
        assert interval.upper == pytest.approx(1.695e5, abs=50)


class TestWidthVersusSampleSize:
    def test_bootstrap_interval_narrows_on_scaled_table(self, bullets):
        base = bootstrap_interval(bullets, "ID")
        big = ConfusionTable(
            bullets.categories,
            tuple(c * 50 for c in bullets.same_source),
            tuple(c * 50 for c in bullets.different_source),
        )
        scaled = bootstrap_interval(big, "ID")
        assert (scaled.upper - scaled.lower) < (base.upper - base.lower)


def test_interval_results_are_reproducible_across_processes(bullets):
    # the bootstrap interval is computed, not drawn: numpy's global random
    # state is irrelevant to it
    first = [bootstrap_interval(bullets, s) for s in bullets.categories]
    np.random.seed(0)  # global numpy state must be irrelevant
    second = [bootstrap_interval(bullets, s) for s in bullets.categories]
    assert first == second
    assert all(
        iv.contains(e.lr) for iv, e in zip(first, full_table_lrs(bullets))
    )
