"""Downstream interpretation of a likelihood ratio.

Three independent views of the same number: the posterior probability it
produces from a given prior, a sensitivity adjustment for studies whose
different-source comparisons were deliberately selected to be hard, and a
verbal strength label from a configurable scale.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right

from .model import DataError, Frozen, check_lr

TYPE_CHECKING = False  # typing costs a command ~4 ms to import, and annotations are strings
if TYPE_CHECKING:
    from typing import Iterable


def _check_lr(lr: float | None) -> float:
    if lr is None:
        raise DataError("likelihood ratio is undefined (0/0)")
    return check_lr(lr)


def posterior_probability(prior: float, lr: float | None) -> float:
    """Posterior probability of same source given a prior and an LR.

    Bayes in odds form: posterior odds = prior odds x LR.
    """
    if not (0.0 < prior < 1.0):
        raise DataError("prior must be strictly between 0 and 1")
    lr = _check_lr(lr)
    if math.isinf(lr):
        return 1.0
    scaled = prior * lr
    return scaled / (scaled + (1.0 - prior))


def hardness_adjust(lr: float | None, retained_fraction: float) -> float:
    """LR after assuming all false positives sit in the hardest fraction q.

    Models denominator inflation only: if the observed false positives
    all come from the hardest fraction ``q`` of different-source
    comparisons (and none would occur on the rest), the denominator
    probability for that subpopulation is larger by 1/q, so the LR drops
    by the same factor.  Meaningful as a sensitivity analysis for LRs
    above 1, but defined for any input.
    """
    q = retained_fraction
    if not (isinstance(q, (int, float)) and 0.0 < q <= 1.0):
        raise DataError(f"retained fraction must be in (0, 1], got {q!r}")
    lr = _check_lr(lr)
    inflation = 1.0 / q
    # a subnormal q has no finite reciprocal, so the LR is scaled by q itself
    return lr / inflation if math.isfinite(inflation) else lr * q


class VerbalScale(Frozen):
    """Ordered bands mapping LR ranges to verbal strength labels.

    ``bands`` is a sequence of (lower_lr, label); each band runs from its
    lower edge (inclusive) to the next band's lower edge (exclusive), the
    last band to infinity.  The first lower edge must be 0 so the bands
    tile (0, oo) with no gaps.
    """

    __slots__ = _fields = ("name", "bands")

    def __init__(self, name: str, bands: Iterable[tuple[float, str]]):
        bands = tuple((float(lo), str(label)) for lo, label in bands)
        if not bands:
            raise DataError("a verbal scale needs at least one band")
        if bands[0][0] != 0.0:
            raise DataError(f"first band must start at 0, got {bands[0][0]}")
        lowers = [lo for lo, _ in bands]
        if any(b <= a for a, b in zip(lowers, lowers[1:])):
            raise DataError(f"band edges must be strictly increasing: {lowers}")
        if not all(math.isfinite(lo) for lo in lowers):
            raise DataError("band edges must be finite")
        if any(not label.strip() for _, label in bands):
            raise DataError("band labels must be non-empty")
        self._init(name, bands)

    def label_for(self, lr: float | None) -> str:
        lr = _check_lr(lr)
        lowers = [lo for lo, _ in self.bands]
        return self.bands[bisect_right(lowers, lr) - 1][1]


def verbal_label(lr: float | None, scale: VerbalScale) -> str:
    """Label of the band containing ``lr``; infinity maps to the top band."""
    return scale.label_for(lr)


def load_scale(source: str | Iterable[str], name: str = "custom") -> VerbalScale:
    """Read a scale from ``lower_lr,label`` CSV rows of exactly two fields.

    ``#`` comment lines and an optional ``lower_lr,label`` header are
    skipped.  Row order must be ascending in lower_lr.
    """
    # imported here, not at module level: ``posterior`` and ``adjust`` read no file
    from .ingest import _blocks, _DataRows

    rows = _DataRows(_blocks(source))
    bands = []
    for row in rows:
        if len(row) != 2:
            raise DataError(f"line {rows.line}: expected 2 fields, got {len(row)}")
        cell, label = (c.strip() for c in row)
        if (cell, label) == ("lower_lr", "label"):
            continue
        try:
            lower = float(cell)
        except ValueError:
            raise DataError(f"line {rows.line}: lower edge {cell!r} is not a number") from None
        bands.append((lower, label))
    return VerbalScale(name=name, bands=tuple(bands))


BUNDLED_SCALES = ("forensic", "jeffreys")


def bundled_scale(name: str) -> VerbalScale:
    """One of the scales shipped with the package (illustrative band edges)."""
    if name not in BUNDLED_SCALES:
        raise DataError(f"unknown scale {name!r}; bundled scales: {BUNDLED_SCALES}")
    from .ingest import _read_input

    path = os.path.join(os.path.dirname(__file__), "scales", f"{name}.csv")
    return _read_input(path, lambda lines: load_scale(lines, name=name))
