"""Core value types for performance-study evidence data.

A black-box performance study presents examiners with comparison pairs of
known ground truth and records the categorical conclusion given for each
pair.  Everything downstream (tallying, likelihood ratios, intervals,
reports) operates on the types defined here.

All types are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Sequence


# Output formats (rendered by ``report``) and interval methods (computed by
# ``uncertainty``), named here so that a name can be checked without loading
# the module that implements it.
FORMATS = ("md", "csv", "json")
INTERVAL_METHOD_NAMES = ("bootstrap", "dirichlet")

# The largest row total a table accepts: half the float range, so that every
# probability, likelihood ratio, bootstrap atom (at most a row total) and
# Dirichlet posterior shape sum drawn from a table is a finite float.
MAX_ROW_TOTAL = 2**1023


class DataError(ValueError):
    """Input data or arguments violate a documented contract."""


def ratio(numerator: float, denominator: float) -> float | None:
    """numerator / denominator; ``math.inf`` for x/0 and ``None`` (undefined) for 0/0.
    Of two integers, the correctly rounded quotient; OverflowError past the float range."""
    if denominator > 0.0:
        return numerator / denominator
    return math.inf if numerator > 0.0 else None


def check_lr(lr: float) -> float:
    """``lr`` unchanged; DataError unless it is >= 0 or infinite."""
    if math.isnan(lr) or lr < 0:
        raise DataError(f"likelihood ratio must be >= 0 or infinite, got {lr!r}")
    return lr


def exact_ratio(lr: float | None) -> tuple[int, int]:
    """``lr``'s exact value as an integer pair, in ``ratio``'s convention: inf (1, 0), None (0, 0)."""
    if lr is None:
        return 0, 0
    return (1, 0) if math.isinf(check_lr(lr)) else lr.as_integer_ratio()


def check_level(level: float) -> float:
    """``level`` unchanged; DataError unless it is strictly between 0 and 1."""
    if not (0.0 < level < 1.0):
        raise DataError(f"level must be in (0, 1), got {level!r}")
    return level


def check_seed(seed: int) -> int:
    """``seed`` unchanged; DataError unless it is a non-negative integer."""
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise DataError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def check_interval_method(method: str) -> str:
    """``method`` unchanged; DataError unless it names an interval method."""
    if method not in INTERVAL_METHOD_NAMES:
        names = " or ".join(map(repr, INTERVAL_METHOD_NAMES))
        raise DataError(f"interval method must be {names}, got {method!r}")
    return method


def check_labels(labels: Sequence[str]) -> tuple[str, ...]:
    """``labels`` as a tuple of strings; DataError unless there is at least
    one and every one reads back unchanged from each CSV file catlr writes:
    none is empty, outgrows the csv field limit, holds a line break, starts
    or ends with whitespace, holds a lone surrogate or repeats another."""
    # imported here, not at module level: only the field-limit check needs it
    import csv

    labels = tuple(str(label) for label in labels)
    if not labels or not all(labels):
        raise DataError(f"categories must be non-empty labels: {labels}")
    limit = csv.field_size_limit()
    for label in labels:
        if len(label) > limit:
            why = f"it has {len(label)} characters, more than the csv field limit {limit}"
            label = label[:20] + "..."
        elif "\n" in label or "\r" in label or label != label.strip():
            why = "a label must not hold a line break or start or end with whitespace"
        elif label.encode("utf-8", "replace").decode("utf-8") != label:
            why = "it holds a lone surrogate, which UTF-8 cannot encode"
        else:
            continue
        raise DataError(f"category label {label!r} would not read back from a CSV file: {why}")
    if len(set(labels)) != len(labels):
        raise DataError(f"duplicate category label in {labels}")
    return labels


def category_index(categories: tuple[str, ...], statement: str) -> int:
    """Position of ``statement`` in ``categories``; DataError when absent."""
    try:
        return categories.index(statement)
    except ValueError:
        raise DataError(
            f"unknown statement {statement!r}; categories are {list(categories)}"
        ) from None


class GroundTruth(enum.Enum):
    """True relationship of a comparison pair.

    SAME_SOURCE is the same-source hypothesis (H1), DIFFERENT_SOURCE the
    different-source hypothesis (H2).
    """

    SAME_SOURCE = "same"
    DIFFERENT_SOURCE = "different"


_set = object.__setattr__


class Frozen:
    """Base of the immutable value types: equality, hashing and repr over fields.

    A subclass lists its fields in constructor order as ``__slots__ =
    _fields = (...)``, validates in ``__init__`` and stores the final
    values with ``_init``.  Equality and hashing use ``_key``, all fields
    unless a subclass narrows it; instances of different classes are
    never equal.  Assigning or deleting any attribute raises
    AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    _key = _values

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuild through the constructor: copy and pickle would otherwise
        # restore slots with setattr, which is refused
        return type(self), self._values()


class EvaluationRecord(Frozen):
    """One examiner conclusion on one comparison pair of known ground truth."""

    __slots__ = _fields = ("examiner_id", "item_id", "truth", "statement")

    def __init__(self, examiner_id: str, item_id: str, truth: GroundTruth, statement: str):
        if not isinstance(truth, GroundTruth):
            raise DataError(f"truth must be a GroundTruth, got {truth!r}")
        if not statement:
            raise DataError("statement label must be non-empty")
        self._init(examiner_id, item_id, truth, statement)


class ConfusionTable(Frozen):
    """Counts of each statement category under same- and different-source truth.

    Category order is preserved exactly as supplied (the source study's
    layout order) and is never sorted; the labels pass ``check_labels``, so
    a table reads back from ``emit_aggregated`` text unchanged.  Counts
    stay exact integers, each row's total at most ``MAX_ROW_TOTAL``;
    probabilities are only formed when a likelihood ratio is computed.

    ``study_name`` is descriptive metadata and does not participate in
    equality: two tables with the same categories and counts are the same
    evidence.
    """

    __slots__ = _fields = ("categories", "same_source", "different_source", "study_name")

    def __init__(
        self,
        categories: Sequence[str],
        same_source: Sequence[int],
        different_source: Sequence[int],
        study_name: str = "",
    ):
        categories = check_labels(categories)
        rows = []
        for name, raw in (("same_source", same_source), ("different_source", different_source)):
            try:
                row = tuple(operator.index(c) for c in raw)
            except TypeError:
                raise DataError(f"{name} counts must be integers, got {raw!r}") from None
            if len(row) != len(categories):
                raise DataError(
                    f"{name} has {len(row)} counts for {len(categories)} categories"
                )
            if any(c < 0 for c in row):
                raise DataError(f"negative count in {name}: {row}")
            if sum(row) > MAX_ROW_TOTAL:
                raise DataError(f"{name} counts sum past 2**1023 = {float(MAX_ROW_TOTAL)!r}")
            rows.append(row)
        self._init(categories, *rows, study_name)

    def _key(self) -> tuple:
        return self.categories, self.same_source, self.different_source

    def index_of(self, statement: str) -> int:
        return category_index(self.categories, statement)

    def row(self, truth: GroundTruth) -> tuple[int, ...]:
        return self.same_source if truth is GroundTruth.SAME_SOURCE else self.different_source

    def count(self, truth: GroundTruth, statement: str) -> int:
        return self.row(truth)[self.index_of(statement)]

    def row_total(self, truth: GroundTruth) -> int:
        """Number of evaluations administered under the given ground truth."""
        return sum(self.row(truth))

    def observed_total(self, truth: GroundTruth) -> int:
        """The row total, for uses that need at least one observation in the row."""
        total = self.row_total(truth)
        if total == 0:
            raise DataError(f"no observations under hypothesis {truth.value!r}")
        return total

    def total(self) -> int:
        return self.row_total(GroundTruth.SAME_SOURCE) + self.row_total(
            GroundTruth.DIFFERENT_SOURCE
        )

    def frequencies(self, truth: GroundTruth) -> tuple[float, ...]:
        """Relative frequencies of the row; requires a nonzero row total."""
        total = self.observed_total(truth)
        return tuple(c / total for c in self.row(truth))


class LrEstimate(Frozen):
    """A per-statement likelihood ratio with its two conditional probabilities.

    ``exact_lr`` is the ratio as an integer pair (numerator, denominator),
    ``lr`` its correctly rounded float: ``math.inf`` when only the
    denominator is zero, and ``None`` when both are (see ``ratio``), as a
    0/0 ratio carries no evidential meaning and must never silently become
    a number.  Given no pair, ``exact_lr`` is ``lr``'s exact value.

    The ``h*_count`` / ``h*_total`` fields record the integer counts the
    probabilities came from, when they came from a table at all.
    """

    __slots__ = _fields = (
        "statement", "p_given_h1", "p_given_h2", "lr", "smoothing",
        "h1_count", "h1_total", "h2_count", "h2_total", "exact_lr",
    )

    def __init__(
        self,
        statement: str,
        p_given_h1: float,
        p_given_h2: float,
        lr: float | None,
        smoothing: str = "none",
        h1_count: int | None = None,
        h1_total: int | None = None,
        h2_count: int | None = None,
        h2_total: int | None = None,
        exact_lr: tuple[int, int] | None = None,
    ):
        self._init(statement, p_given_h1, p_given_h2, lr, smoothing, h1_count, h1_total,
                   h2_count, h2_total, exact_ratio(lr) if exact_lr is None else exact_lr)

    @property
    def is_undefined(self) -> bool:
        return self.lr is None

    @property
    def is_finite(self) -> bool:
        return self.lr is not None and math.isfinite(self.lr)
