"""Synthetic performance studies with known true category distributions.

The generative model is deliberately the mirror image of the estimator: a
single pooled categorical distribution per hypothesis, sampled
independently per evaluation.  Examiner heterogeneity is out of scope;
examiner ids are synthetic round-robin labels over a fixed panel (see
``RecordBatch``) so the records exercise the raw-records schema.

Because the true probabilities are known, simulated studies serve as an
oracle: ``true_lr`` is the estimand the tally-then-divide pipeline
targets, and consistency / coverage tests compare against it.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .model import (
    ConfusionTable,
    DataError,
    Frozen,
    GroundTruth,
    RecordBatch,
    category_index,
    check_seed,
    ratio,
)
from .rng import stream

MAX_RECORDS = 10_000_000
_SUM_TOLERANCE = 1e-12


class PanelProfile(Frozen):
    """True category distributions and sample sizes for one synthetic study."""

    __slots__ = _fields = ("categories", "p_given_h1", "p_given_h2", "n_h1", "n_h2", "seed")

    def __init__(
        self,
        categories: Sequence[str],
        p_given_h1: Sequence[float],
        p_given_h2: Sequence[float],
        n_h1: int,
        n_h2: int,
        seed: int = 0,
    ):
        categories = tuple(str(c) for c in categories)
        if not categories or len(set(categories)) != len(categories):
            raise DataError(f"categories must be non-empty and unique: {categories}")
        vectors = []
        for name, raw in (("p_given_h1", p_given_h1), ("p_given_h2", p_given_h2)):
            vector = tuple(float(p) for p in raw)
            if len(vector) != len(categories):
                raise DataError(
                    f"{name} has {len(vector)} entries for {len(categories)} categories"
                )
            if any(not (0.0 <= p <= 1.0) for p in vector):
                raise DataError(f"{name} entries must be probabilities: {vector}")
            if abs(math.fsum(vector) - 1.0) > _SUM_TOLERANCE:
                raise DataError(f"{name} must sum to 1, got {math.fsum(vector)!r}")
            vectors.append(vector)
        for name, n in (("n_h1", n_h1), ("n_h2", n_h2)):
            if not isinstance(n, int) or n <= 0:
                raise DataError(f"{name} must be a positive integer")
        if n_h1 + n_h2 > MAX_RECORDS:
            raise DataError(
                f"n_h1 + n_h2 must be at most {MAX_RECORDS}, got {n_h1 + n_h2}"
            )
        check_seed(seed)
        self._init(categories, *vectors, n_h1, n_h2, seed)

    @classmethod
    def from_table(
        cls, table: ConfusionTable, n_h1: int, n_h2: int, seed: int = 0
    ) -> "PanelProfile":
        """Profile whose true distributions are the table's empirical frequencies."""
        return cls(
            categories=table.categories,
            p_given_h1=table.frequencies(GroundTruth.SAME_SOURCE),
            p_given_h2=table.frequencies(GroundTruth.DIFFERENT_SOURCE),
            n_h1=n_h1,
            n_h2=n_h2,
            seed=seed,
        )


def simulate_study(profile: PanelProfile) -> RecordBatch:
    """Draw one study: n_h1 same-source then n_h2 different-source records.

    Single RNG stream per study (seeded by the profile), so a fixed seed
    reproduces the records exactly.
    """
    # imported here, not at module level: a profile is read without numpy
    import numpy as np

    g = stream(profile.seed)
    k = len(profile.categories)
    same = g.choice(k, size=profile.n_h1, p=profile.p_given_h1)
    different = g.choice(k, size=profile.n_h2, p=profile.p_given_h2)
    truth = np.repeat(np.arange(2, dtype=np.uint8), (profile.n_h1, profile.n_h2))
    return RecordBatch(profile.categories, truth, np.concatenate((same, different)))


def true_lr(profile: PanelProfile, statement: str) -> float | None:
    """The estimand: ratio of the profile's true probabilities.

    ``math.inf`` when only the denominator is zero, ``None`` for 0/0.
    """
    k = category_index(profile.categories, statement)
    return ratio(profile.p_given_h1[k], profile.p_given_h2[k])


def load_profile(source: str | Iterable[str]) -> PanelProfile:
    """Read a profile from INI text with a single [profile] section.

    Keys: ``categories``, ``p_given_h1``, ``p_given_h2`` (comma-separated,
    so labels must not contain commas), ``n_h1``, ``n_h2``, ``seed``.
    """
    # imported here, not at module level: configparser costs ~3 ms to import
    # and nothing else in the package reads INI text
    import configparser

    parser = configparser.ConfigParser()
    text = source if isinstance(source, str) else "\n".join(source)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise DataError(f"malformed profile config: {exc}") from None
    if "profile" not in parser:
        raise DataError("profile config needs a [profile] section")
    section = parser["profile"]
    try:
        categories = tuple(c.strip() for c in section["categories"].split(","))
        p_given_h1 = tuple(float(p) for p in section["p_given_h1"].split(","))
        p_given_h2 = tuple(float(p) for p in section["p_given_h2"].split(","))
        n_h1, n_h2 = section.getint("n_h1"), section.getint("n_h2")
        seed = section.getint("seed", fallback=0)
    except KeyError as exc:
        raise DataError(f"profile config is missing key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise DataError(f"malformed profile value: {exc}") from None
    return PanelProfile(categories, p_given_h1, p_given_h2, n_h1, n_h2, seed)
