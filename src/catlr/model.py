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
from dataclasses import dataclass, field


class DataError(ValueError):
    """Input data or arguments violate a documented contract."""


def ratio(numerator: float, denominator: float) -> float | None:
    """numerator / denominator; ``math.inf`` for x/0 and ``None`` (undefined) for 0/0."""
    if denominator > 0.0:
        return numerator / denominator
    return math.inf if numerator > 0.0 else None


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


@dataclass(frozen=True)
class EvaluationRecord:
    """One examiner conclusion on one comparison pair of known ground truth."""

    examiner_id: str
    item_id: str
    truth: GroundTruth
    statement: str

    def __post_init__(self):
        if not isinstance(self.truth, GroundTruth):
            raise DataError(f"truth must be a GroundTruth, got {self.truth!r}")
        if not self.statement:
            raise DataError("statement label must be non-empty")


@dataclass(frozen=True)
class ConfusionTable:
    """Counts of each statement category under same- and different-source truth.

    Category order is preserved exactly as supplied (the source study's
    layout order) and is never sorted.  Counts stay exact integers;
    probabilities are only formed when a likelihood ratio is computed.

    ``study_name`` is descriptive metadata and does not participate in
    equality: two tables with the same categories and counts are the same
    evidence.
    """

    categories: tuple[str, ...]
    same_source: tuple[int, ...]
    different_source: tuple[int, ...]
    study_name: str = field(default="", compare=False)

    def __post_init__(self):
        categories = tuple(str(c) for c in self.categories)
        if not categories:
            raise DataError("a confusion table needs at least one category")
        if any(not c for c in categories):
            raise DataError("category labels must be non-empty")
        if len(set(categories)) != len(categories):
            raise DataError(f"duplicate category label in {categories}")
        rows = {}
        for name in ("same_source", "different_source"):
            raw = getattr(self, name)
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
            rows[name] = row
        object.__setattr__(self, "categories", categories)
        object.__setattr__(self, "same_source", rows["same_source"])
        object.__setattr__(self, "different_source", rows["different_source"])

    def index_of(self, statement: str) -> int:
        return category_index(self.categories, statement)

    def row(self, truth: GroundTruth) -> tuple[int, ...]:
        return self.same_source if truth is GroundTruth.SAME_SOURCE else self.different_source

    def count(self, truth: GroundTruth, statement: str) -> int:
        return self.row(truth)[self.index_of(statement)]

    def row_total(self, truth: GroundTruth) -> int:
        """Number of evaluations administered under the given ground truth."""
        return sum(self.row(truth))

    def total(self) -> int:
        return self.row_total(GroundTruth.SAME_SOURCE) + self.row_total(
            GroundTruth.DIFFERENT_SOURCE
        )

    def frequencies(self, truth: GroundTruth) -> tuple[float, ...]:
        """Relative frequencies of the row; requires a nonzero row total."""
        total = self.row_total(truth)
        if total == 0:
            raise DataError(f"no observations under hypothesis {truth.value!r}")
        return tuple(c / total for c in self.row(truth))


@dataclass(frozen=True)
class LrEstimate:
    """A per-statement likelihood ratio with its two conditional probabilities.

    ``lr`` is ``p_given_h1 / p_given_h2`` when the denominator is positive,
    ``math.inf`` when only the denominator is zero, and ``None`` when both
    probabilities are zero (see ``ratio``): a 0/0 ratio carries no
    evidential meaning and must never silently become a number.

    The ``h*_count`` / ``h*_total`` fields record the integer counts the
    probabilities came from, when they came from a table at all.
    """

    statement: str
    p_given_h1: float
    p_given_h2: float
    lr: float | None
    smoothing: str = "none"
    h1_count: int | None = None
    h1_total: int | None = None
    h2_count: int | None = None
    h2_total: int | None = None

    @classmethod
    def from_probabilities(
        cls,
        statement: str,
        p_given_h1: float,
        p_given_h2: float,
        smoothing: str = "none",
        **provenance: int | None,
    ) -> "LrEstimate":
        """Build an estimate, deriving ``lr`` from the two probabilities."""
        for name, p in (("p_given_h1", p_given_h1), ("p_given_h2", p_given_h2)):
            if not (0.0 <= p <= 1.0):
                raise DataError(f"{name} must be in [0, 1], got {p!r}")
        lr = ratio(p_given_h1, p_given_h2)
        return cls(statement, p_given_h1, p_given_h2, lr, smoothing, **provenance)

    @property
    def is_undefined(self) -> bool:
        return self.lr is None

    @property
    def is_finite(self) -> bool:
        return self.lr is not None and math.isfinite(self.lr)
