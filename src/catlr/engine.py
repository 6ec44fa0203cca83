"""Likelihood ratios for categorical statements, from tallied study counts.

For a statement ``s`` the point estimate is the ratio of two conditional
relative frequencies: how often ``s`` was given when the sources truly
were the same, over how often it was given when they were different.
Values above 1 support same source, below 1 different source.

Counts stay exact integers up to this point; the two divisions happen
here.  Ratios are always formed from the unrounded probabilities, never
from their rounded presentations.

Display convention (``presentation_round``): ratios at or above 1 are
rounded half-up to a whole number ("42"); ratios below 1 are shown in
the reciprocal form "1 / n" with n rounded half-up ("1 / 8"), collapsing
to "1" when the reciprocal rounds to 1.  Half-up (not banker's) rounding
keeps the human convention predictable: a reciprocal of 7.51 reads "1 / 8".
"""

from __future__ import annotations

import math

from .model import ConfusionTable, DataError, Frozen, GroundTruth, LrEstimate, check_lr, ratio


class SmoothingPolicy(Frozen):
    """Additive (add-alpha) smoothing of row frequencies.

    ``alpha == 0`` means no smoothing: probabilities are raw relative
    frequencies, which is the default everywhere.  With ``alpha > 0`` a
    count ``c`` in a row of total ``N`` over ``K`` categories becomes
    ``(c + alpha) / (N + alpha * K)``.
    """

    __slots__ = _fields = ("alpha",)

    def __init__(self, alpha: float = 0.0):
        if not (isinstance(alpha, (int, float)) and math.isfinite(alpha)):
            raise DataError(f"alpha must be a finite number, got {alpha!r}")
        if alpha < 0:
            raise DataError(f"alpha must be non-negative, got {alpha}")
        self._init(alpha)

    @classmethod
    def none(cls) -> "SmoothingPolicy":
        return cls(0.0)

    @classmethod
    def add_alpha(cls, alpha: float) -> "SmoothingPolicy":
        if alpha <= 0:
            raise DataError(f"add-alpha smoothing needs alpha > 0, got {alpha}")
        return cls(float(alpha))

    @property
    def is_none(self) -> bool:
        return self.alpha == 0.0

    def describe(self) -> str:
        return "none" if self.is_none else f"add-alpha({self.alpha:g})"


NO_SMOOTHING = SmoothingPolicy.none()


def conditional_probability(
    table: ConfusionTable,
    statement: str,
    truth: GroundTruth,
    smoothing: SmoothingPolicy = NO_SMOOTHING,
) -> float:
    """P(statement | truth) estimated from the table row."""
    count, alpha = table.count(truth, statement), smoothing.alpha
    if not alpha:  # the row needs observations; int / int rounds c / N correctly for every N
        return count / table.observed_total(truth)
    # smoothing gives an empty row a uniform distribution; where N + alpha K
    # overflows, dividing through by alpha keeps the ratio in range
    total, k = table.row_total(truth), len(table.categories)
    if math.isinf(total + alpha * k):
        return (count / alpha + 1.0) / (total / alpha + k)
    return (count + alpha) / (total + alpha * k)


def likelihood_ratio(
    table: ConfusionTable,
    statement: str,
    smoothing: SmoothingPolicy = NO_SMOOTHING,
) -> LrEstimate:
    """Likelihood ratio for one statement, with count provenance attached."""
    p1 = conditional_probability(table, statement, GroundTruth.SAME_SOURCE, smoothing)
    p2 = conditional_probability(table, statement, GroundTruth.DIFFERENT_SOURCE, smoothing)
    return LrEstimate.from_probabilities(
        statement,
        p1,
        p2,
        smoothing=smoothing.describe(),
        h1_count=table.count(GroundTruth.SAME_SOURCE, statement),
        h1_total=table.row_total(GroundTruth.SAME_SOURCE),
        h2_count=table.count(GroundTruth.DIFFERENT_SOURCE, statement),
        h2_total=table.row_total(GroundTruth.DIFFERENT_SOURCE),
    )


def full_table_lrs(
    table: ConfusionTable, smoothing: SmoothingPolicy = NO_SMOOTHING
) -> list[LrEstimate]:
    """One estimate per category, in table order."""
    return [likelihood_ratio(table, s, smoothing) for s in table.categories]


def lr_from_error_rates(fnr: float, fpr: float) -> float | None:
    """(1 - false negative rate) / false positive rate.

    The two-statement shortcut: with only "same source" and "different
    source" conclusions this equals the likelihood ratio of the
    identification statement.  Returns ``math.inf`` when fpr is 0 and
    fnr < 1, and ``None`` (undefined) when fpr is 0 and fnr is 1.
    """
    for name, value in (("fnr", fnr), ("fpr", fpr)):
        if not (0.0 <= value <= 1.0):
            raise DataError(f"{name} must be in [0, 1], got {value!r}")
    return ratio(1.0 - fnr, fpr)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def presentation_round(lr: float | None, zero_count_bound: float | None = None) -> str:
    """Render a ratio in the human display convention.

    An infinite ratio renders as "∞", or as "> <bound>" when the caller
    supplies the one-sided bound that replaces it (see
    ``uncertainty.zero_count_lower_bound``).  An exact zero renders as
    "0".  An undefined (0/0) ratio renders as "undefined".
    """
    if lr is None:
        return "undefined"
    if math.isinf(check_lr(lr)):
        if zero_count_bound is None:
            return "∞"
        return f"> {presentation_round(zero_count_bound)}"
    if lr >= 1.0:
        return str(_round_half_up(lr))
    if lr == 0.0:
        return "0"
    try:
        reciprocal = _round_half_up(1.0 / lr)
    except OverflowError:  # 1 / lr is past the largest float: round it in integers
        numerator, denominator = lr.as_integer_ratio()
        reciprocal = (2 * denominator + numerator) // (2 * numerator)
    return "1" if reciprocal == 1 else f"1 / {reciprocal}"
