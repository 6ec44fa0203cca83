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
  with its one-sided upper binomial bound 1 - (1-level)^(1/N).

Neither interval draws anything.  The bootstrap's endpoints are the
smallest atoms of the ratio's law at which its CDF reaches each tail,
computed in ``catlr.binomratio``, which this module loads only for a
bootstrap call; they depend on the table, the statement and the level
only.  Infinite ratios are ordered above all finite ones; 0/0 ratios
(possible only when a resampled row loses the statement entirely under
both hypotheses) carry no information about the ratio and are excluded,
and a statement with no count in either row has no interval.  The
bootstrap's ``replicates`` (100 to ``MAX_REPLICATES``) and ``seed`` are
checked and change nothing.

The Dirichlet interval's endpoints depend on the table,
the statement, alpha and the level only.  They are the quantiles of B1 / B2
computed by quadrature in ``catlr.betaratio``, which this module loads only
for a Dirichlet call.
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
    check_seed,
)

MAX_REPLICATES = 1_000_000


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


def bootstrap_interval(
    table: ConfusionTable,
    statement: str,
    replicates: int = 2000,
    level: float = 0.95,
    seed: int = 0,
) -> Interval:
    """Stratified percentile-bootstrap interval for one statement's LR, in the
    limit of infinitely many replicates (Efron's ideal bootstrap).

    The endpoints are exact quantiles of the law the bootstrap resamples,
    computed in ``catlr.binomratio``: they depend on the table, the
    statement and ``level`` only.  ``replicates`` and ``seed`` are checked
    and change nothing: callers pass them, and the benchmark's tracer reads
    ``replicates`` by name.
    """
    _check_bootstrap_options(replicates=replicates, level=level, seed=seed)
    k = table.index_of(statement)
    (n1, c1), (n2, c2) = (
        (table.observed_total(truth), table.row(truth)[k])  # raises for a row with no observations
        for truth in (GroundTruth.SAME_SOURCE, GroundTruth.DIFFERENT_SOURCE)
    )
    if c1 == c2 == 0:
        raise DataError(
            "undefined likelihood ratio (0/0): the bootstrap law has no defined value; no interval exists"
        )
    # imported here, not at module level: the Dirichlet interval runs none of it
    from .binomratio import ratio_quantiles

    lower, upper = ratio_quantiles(n1, c1, n2, c2, (1.0 - level) / 2.0)
    return Interval(lower, upper, level, "bootstrap-percentile(ideal,lattice-v1)")


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
    ``draws`` counts the random draws a call makes, which is none; it is
    kept, at 0, for callers that read that count by name.
    """
    _check_dirichlet_options(alpha=alpha, level=level, draws=draws)
    k = table.index_of(statement)
    method = f"dirichlet-posterior(alpha={alpha:g},quadrature-v1)"
    rest_alpha = (len(table.categories) - 1) * alpha
    shapes = []
    for truth in (GroundTruth.SAME_SOURCE, GroundTruth.DIFFERENT_SOURCE):
        n = table.observed_total(truth)  # raises for a row with no observations
        c = table.row(truth)[k]
        shapes.append((c + alpha, (n - c) + rest_alpha))
    if rest_alpha == 0:  # one category: each cell is 1, and so is the ratio
        return Interval(1.0, 1.0, level, method)
    tail = (1.0 - level) / 2.0
    # imported here, not at module level: the bootstrap runs none of it
    from .betaratio import ratio_quantiles

    lower, upper = ratio_quantiles(*shapes, tail)
    return Interval(lower, upper, level, method)


def _check_bootstrap_options(replicates: int, level: float, seed: int) -> None:
    check_level(level)
    check_seed(seed)
    if replicates < 100:
        raise DataError(f"bootstrap needs at least 100 replicates, got {replicates}")
    if replicates > MAX_REPLICATES:
        raise DataError(f"replicates must be at most {MAX_REPLICATES}, got {replicates}")


def _check_dirichlet_options(alpha: float, level: float, draws: int = 0) -> None:
    check_level(level)
    if not (alpha > 0 and math.isfinite(alpha)):
        raise DataError(f"alpha must be a positive finite number, got {alpha!r}")
    low, high = _ALPHA_RANGE
    if not low <= alpha <= high:
        raise DataError(f"alpha must be from {low:g} to {high:g}, got {alpha!r}")
    if draws != 0:
        raise DataError(f"the Dirichlet interval is computed, not drawn: draws must be 0, got {draws!r}")


def interval_of(method: str, level: float = 0.95, seed: int = 0, replicates: int = 2000,
                alpha: float = 0.5):
    """The ``method`` interval as a function of (table, statement), its options
    checked now, before any table is read; the bootstrap ignores ``alpha``, the
    Dirichlet interval ``replicates``.  The function calls ``bootstrap_interval``
    or ``dirichlet_interval`` by this module's name for it, so a wrapper bound
    here later, such as a tracer, sees each call."""
    if check_interval_method(method) == "bootstrap":
        _check_bootstrap_options(replicates, level, seed)
        return lambda table, statement: bootstrap_interval(table, statement, replicates, level, seed)
    check_seed(seed)
    _check_dirichlet_options(alpha, level)
    return lambda table, statement: dirichlet_interval(table, statement, alpha, level)


def zero_count_lower_bound(
    table: ConfusionTable, statement: str, level: float = 0.95
) -> float:
    """Finite lower bound for an infinite LR caused by a zero denominator count.

    With zero occurrences in N different-source trials, the one-sided
    upper bound for the occurrence probability at confidence ``level`` is
    ``1 - (1 - level)**(1/N)``; the bound returned is p_given_h1 divided
    by that.  The display layer renders it as "> bound".
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
