"""Sampling-uncertainty intervals for likelihood-ratio point estimates.

The source studies report point values only; interval methodology is this
module's own choice and is labeled as such in every Interval's ``method``
string.  Two interval methods are provided, each bound to its options by
``interval_of``, plus a closed-form bound for the zero-denominator case:

* ``bootstrap_interval`` — stratified percentile bootstrap, in the limit
  of infinitely many replicates (Efron's ideal bootstrap).  The study
  design fixes how many same-source and different-source comparisons are
  administered, so each row is resampled separately with its total held
  fixed.  Rows are resampled as aggregated counts; clustering of
  evaluations within examiners is ignored (a documented limitation,
  matching the pooled treatment of the tables themselves).  Statement
  k's LR reads only cell k of each row, and that cell of a multinomial
  row is exactly Binomial(n, f_k), so the LR's bootstrap law is that of
  the ratio of two independent binomial proportions, and the interval is
  its percentiles, computed exactly.
* ``dirichlet_interval`` — posterior credible interval: each row's
  category probabilities get an independent Dirichlet(counts + alpha)
  posterior.  Cell k of a Dirichlet(c + alpha) row is exactly Beta(c_k +
  alpha, sum(c) - c_k + (K-1) alpha), so the LR is the ratio B1 / B2 of two
  independent Betas, and the interval is that ratio's equal-tailed
  quantiles, computed by deterministic quadrature.
* ``zero_count_lower_bound`` — when a statement was never given under
  the different-source condition the point LR is infinite; this returns
  the finite lower bound obtained by replacing the zero-count probability
  with its one-sided upper binomial bound 1 - (1-level)^(1/N).  No output
  renders it; ``"> " + presentation_round(bound)`` gives its display.

Neither interval draws anything: each depends on the table, the
statement and the level, plus alpha for the Dirichlet, and on nothing
else.  A level whose upper quantile 1 - (1 - level) / 2 rounds to 1 is a
data error for both.  The bootstrap's endpoints are the smallest atoms of
the ratio's law at which its CDF reaches each tail, computed in
``catlr.binomratio``; the Dirichlet's are the quantiles of B1 / B2
computed by quadrature in ``catlr.betaratio``.  This module loads each
solver only for a call of its method.  Infinite ratios are ordered above
all finite ones; 0/0 ratios (possible only when a resampled row loses the
statement entirely under both hypotheses) carry no information about the
ratio and are excluded, and a statement with no count in either row has
no bootstrap interval.  A statement with no count in one row has as its
bootstrap interval the point its LR settles at, 0 or inf, and loads no
solver.
"""

from __future__ import annotations

import math

from .model import (
    ConfusionTable,
    DataError,
    Frozen,
    GroundTruth,
    check_interval_method,
    check_level,
)


class Interval(Frozen):
    """An uncertainty interval for a likelihood ratio."""

    __slots__ = _fields = ("lower", "upper", "level", "method")

    def __init__(self, lower: float, upper: float, level: float, method: str):
        check_level(level)
        if math.isnan(lower) or math.isnan(upper):
            raise DataError("interval endpoints must not be NaN")
        if lower > upper:
            raise DataError(f"lower {lower} exceeds upper {upper}")
        self._init(lower, upper, level, method)

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def _normal_quantile(q: float) -> float:
    """A rough standard normal quantile, within ~0.01 for 1e-6 < q < 1 - 1e-6:
    the start of both interval methods' solves."""
    if q < 0.5:
        return -_normal_quantile(1.0 - q)
    return 5.5556 * (1.0 - ((1.0 - q) / q) ** 0.1186)


def _tail(level: float) -> float:
    """Each tail's probability at ``level``; DataError unless ``level`` is in
    (0, 1) and leaves the upper tail's quantile, 1 - tail, below 1."""
    tail = (1.0 - check_level(level)) / 2.0
    if 1.0 - tail == 1.0:
        raise DataError(f"level must be at most {1.0 - 2.0**-52!r}, got {level!r}: "
                        "its upper quantile 1 - (1 - level) / 2 rounds to 1")
    return tail


def bootstrap_interval(
    table: ConfusionTable,
    statement: str,
    level: float = 0.95,
    *,
    replicates: int = 2000,
) -> Interval:
    """Stratified percentile-bootstrap interval for one statement's LR, in the
    limit of infinitely many replicates (Efron's ideal bootstrap).

    The endpoints are exact quantiles of the law the bootstrap resamples,
    computed in ``catlr.binomratio``: they depend on the table, the
    statement and ``level`` only.  ``replicates`` is neither checked nor
    used; it stays only because the benchmark's tracer reads it by name.
    """
    tail = _tail(level)
    (n1, c1), (n2, c2) = _cells(table, statement)
    if c1 == c2 == 0:
        raise DataError(
            "undefined likelihood ratio (0/0): the bootstrap law has no defined value; no interval exists"
        )
    if c1 == 0 or c2 == 0:  # every defined ratio is 0 where X1 is always 0, inf where X2 is
        lower = upper = math.inf if c2 == 0 else 0.0
    else:
        # imported here, not at module level: the Dirichlet interval runs none of it
        from .binomratio import ratio_quantiles

        lower, upper = ratio_quantiles(n1, c1, n2, c2, tail)
    return Interval(lower, upper, level, "bootstrap-percentile(ideal,lattice-v1)")


def _cells(table: ConfusionTable, statement: str) -> list[tuple[int, int]]:
    """``statement``'s (row total, count) in the same-source row, then in the
    different-source row; DataError for a row with no observations."""
    k = table.index_of(statement)
    return [(table.observed_total(truth), table.row(truth)[k])
            for truth in (GroundTruth.SAME_SOURCE, GroundTruth.DIFFERENT_SOURCE)]


_ALPHA_RANGE = (1e-100, 1e100)  # where catlr.betaratio is tested to stay in float range


def dirichlet_interval(
    table: ConfusionTable,
    statement: str,
    alpha: float = 0.5,
    level: float = 0.95,
    *,
    draws: int = 0,
) -> Interval:
    """Dirichlet-posterior credible interval for one statement's LR.

    ``alpha`` is the per-cell prior concentration; the default 0.5 is a
    Jeffreys-style choice.  The interval is computed, not sampled: it
    depends on the table, the statement, ``alpha`` and ``level`` only.
    ``draws`` is neither checked nor used; it stays only because the
    benchmark's tracer reads it by name.
    """
    tail = _tail(level)
    _check_dirichlet_options(alpha)
    method = f"dirichlet-posterior(alpha={alpha:g},quadrature-v1)"
    rest_alpha = (len(table.categories) - 1) * alpha
    shapes = [(c + alpha, (n - c) + rest_alpha) for n, c in _cells(table, statement)]
    if rest_alpha == 0:  # one category: each cell is 1, and so is the ratio
        return Interval(1.0, 1.0, level, method)
    # imported here, not at module level: the bootstrap runs none of it
    from .betaratio import ratio_quantiles

    lower, upper = ratio_quantiles(*shapes, tail)
    return Interval(lower, upper, level, method)


def _check_dirichlet_options(alpha: float) -> None:
    if not (alpha > 0 and math.isfinite(alpha)):
        raise DataError(f"alpha must be a positive finite number, got {alpha!r}")
    low, high = _ALPHA_RANGE
    if not low <= alpha <= high:
        raise DataError(f"alpha must be from {low:g} to {high:g}, got {alpha!r}")


def interval_of(method: str, level: float = 0.95, alpha: float = 0.5):
    """The ``method`` interval as a function of (table, statement), its options
    checked now, before any table is read; the bootstrap ignores ``alpha``.
    The function calls ``bootstrap_interval`` or ``dirichlet_interval`` by
    this module's name for it, so a wrapper bound here later, such as a
    tracer, sees each call."""
    check_interval_method(method)
    _tail(level)
    if method == "bootstrap":
        return lambda table, statement: bootstrap_interval(table, statement, level)
    _check_dirichlet_options(alpha)
    return lambda table, statement: dirichlet_interval(table, statement, alpha, level)


def zero_count_lower_bound(
    table: ConfusionTable, statement: str, level: float = 0.95
) -> float:
    """Finite lower bound for an infinite LR caused by a zero denominator count.

    With zero occurrences in N different-source trials, the one-sided
    upper bound for the occurrence probability at confidence ``level`` is
    ``1 - (1 - level)**(1/N)``; the bound returned is p_given_h1 divided
    by that.  No command, report or format renders it; its display is
    ``"> " + presentation_round(bound)``.  The bound treats p_given_h1 as
    exact, so its coverage given c2 = 0 falls well below ``level`` as the
    true p2 nears the binomial bound (README, *Display convention*).
    """
    k = table.index_of(statement)
    check_level(level)
    c2 = table.different_source[k]
    if c2 != 0:
        raise DataError(
            f"statement {statement!r} has a nonzero different-source count ({c2}); "
            "the zero-count bound does not apply"
        )
    c1 = table.same_source[k]
    if c1 <= 0:
        raise DataError(
            f"statement {statement!r} needs a positive same-source count for a bound"
        )
    n2 = table.observed_total(GroundTruth.DIFFERENT_SOURCE)
    p1 = c1 / table.row_total(GroundTruth.SAME_SOURCE)
    p_upper = 1.0 - (1.0 - level) ** (1.0 / n2)
    return p1 / p_upper
