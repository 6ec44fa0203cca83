"""Likelihood ratios for categorical statements, from tallied study counts.

For a statement ``s`` the point estimate is the ratio of two conditional
relative frequencies: how often ``s`` was given when the sources truly
were the same, over how often it was given when they were different.
Values above 1 support same source, below 1 different source.

Ratios are formed from the counts, never from rounded probabilities: with
alpha = m / d exactly, P(s | h) = (c·d + m) / (N·d + m·K), and the LR is
one integer ratio, of which ``lr`` is the correctly rounded float.

Display convention (``presentation_round``): ratios at or above 1 are
rounded half-up to a whole number ("42"), ratios below 1 shown as "1 / n"
with n rounded half-up ("1 / 8"), or "1" when n is 1.  Rounding the exact
ratio in integers sends each half up: 3/2 reads "2" and 2/3 "1 / 2".
"""

from __future__ import annotations

import math

from .model import ConfusionTable, DataError, Frozen, GroundTruth, LrEstimate, exact_ratio, ratio


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


def _totals(table: ConfusionTable, truth: GroundTruth, m: int, d: int) -> tuple[int, int]:
    """The row total N and the smoothed total N·d + m·K, for alpha = m / d."""
    # only an unsmoothed row must be observed: smoothing makes an empty one uniform
    total = table.row_total(truth) if m else table.observed_total(truth)
    return total, total * d + m * len(table.categories)


def conditional_probability(table: ConfusionTable, statement: str, truth: GroundTruth,
                            smoothing: SmoothingPolicy = NO_SMOOTHING) -> float:
    """P(statement | truth) estimated from the table row."""
    count = table.count(truth, statement)
    m, d = smoothing.alpha.as_integer_ratio()
    return (count * d + m) / _totals(table, truth, m, d)[1]


def _estimates(table: ConfusionTable, smoothing: SmoothingPolicy,
               indices: list[int] | range) -> list[LrEstimate]:
    """The estimate of each category at ``indices``, each row summed once."""
    m, d = smoothing.alpha.as_integer_ratio()
    (n1, t1), (n2, t2) = (_totals(table, truth, m, d) for truth in GroundTruth)
    how = smoothing.describe()
    estimates = []
    for k in indices:
        c1, c2 = table.same_source[k], table.different_source[k]
        s1, s2 = c1 * d + m, c2 * d + m
        exact = s1 * t2, t1 * s2
        try:
            lr = ratio(*exact)
        except OverflowError:
            raise DataError(f"the likelihood ratio of {table.categories[k]!r} at smoothing "
                            f"{how} is past the largest float") from None
        if lr == 0.0 and exact[0]:  # positive, but rounded to zero
            raise DataError(f"the likelihood ratio of {table.categories[k]!r} at smoothing "
                            f"{how} is below the smallest float")
        estimates.append(LrEstimate(table.categories[k], s1 / t1, s2 / t2, lr, how,
                                    c1, n1, c2, n2, exact))
    return estimates


def likelihood_ratio(table: ConfusionTable, statement: str,
                     smoothing: SmoothingPolicy = NO_SMOOTHING) -> LrEstimate:
    """Likelihood ratio for one statement, with count provenance attached."""
    return _estimates(table, smoothing, [table.index_of(statement)])[0]


def full_table_lrs(table: ConfusionTable,
                   smoothing: SmoothingPolicy = NO_SMOOTHING) -> list[LrEstimate]:
    """One estimate per category, in table order."""
    return _estimates(table, smoothing, range(len(table.categories)))


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


def presentation_round(lr: LrEstimate | float | None) -> str:
    """Render a ratio in the human display convention.

    An estimate is rounded from its ``exact_lr``, a float from its exact
    value: the float 0.4 lies above 2/5, so it reads "1 / 2".  An infinite
    ratio renders as "∞", an exact zero as "0", and an undefined (0/0)
    ratio as "undefined".
    """
    num, den = lr.exact_lr if isinstance(lr, LrEstimate) else exact_ratio(lr)
    if not den:
        return "∞" if num else "undefined"
    if num >= den:
        return str((2 * num + den) // (2 * den))
    if not num:
        return "0"
    reciprocal = (2 * den + num) // (2 * num)
    return "1" if reciprocal == 1 else f"1 / {reciprocal}"
