"""Synthetic performance studies with known true category distributions.

The generative model is deliberately the mirror image of the estimator: a
single pooled categorical distribution per hypothesis, sampled
independently per evaluation.  Examiner heterogeneity is out of scope;
examiner ids are synthetic round-robin labels over a fixed panel (see
``RecordBatch``) so the records exercise the raw-records schema, which
``emit_records`` writes.

Because the true probabilities are known, simulated studies serve as an
oracle: ``true_lr`` is the estimand the tally-then-divide pipeline
targets, and consistency / coverage tests compare against it.
"""

from __future__ import annotations

import io
import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from typing import IO, TYPE_CHECKING

from .ingest import RAW_HEADER, _csv_text
from .model import (
    ConfusionTable,
    DataError,
    EvaluationRecord,
    Frozen,
    GroundTruth,
    category_index,
    check_seed,
    ratio,
)
from .rng import stream

if TYPE_CHECKING:
    import numpy as np

MAX_RECORDS = 10_000_000
_SUM_TOLERANCE = 1e-12
_BLOCK_ROWS = 64_000  # RecordBatch item numbers written per block of codes: whole chunks of 1000


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


class RecordBatch(Sequence):
    """Evaluation records held as columns: a read-only sequence of row views.

    Row ``i`` has ground truth ``tuple(GroundTruth)[truth_codes[i]]`` (0 same
    source, 1 different source), statement ``categories[statement_codes[i]]``,
    and the synthetic ids of a round-robin examiner panel: examiner
    ``EXAMINER_IDS[i % 10]`` and item ``ITEM_ID % (i + 1)``.  Indexing and
    iteration build each ``EvaluationRecord`` only when it is read.  The code
    arrays are read-only copies, so a batch never changes after construction.
    Every label reads back from ``emit_records`` text unchanged: none holds a
    line break or a lone surrogate, starts or ends with whitespace or outgrows
    the csv field limit.
    """

    EXAMINER_IDS = tuple(f"ex{j + 1:02d}" for j in range(10))
    ITEM_ID = "item%06d"
    # The same ids as emit_records writes them, as UTF-8 bytes: one line
    # template per item number c * 1000 + j, j = 0..999, that serves every
    # chunk c of 1000.  "{0}" takes the leading digits b"%03d" % c that
    # ITEM_ID gives the chunk, "%b" the row's other cells; as 10 divides
    # 1000, the examiner of row c * 1000 + j - 1, EXAMINER_IDS[(j - 1) % 10],
    # does not depend on c.
    _CHUNK_LINES = tuple(
        f"{examiner},item{{0}}{j:03d},%b".encode()
        for j, examiner in enumerate((EXAMINER_IDS[-1:] + EXAMINER_IDS[:-1]) * 100)
    )

    __slots__ = ("_categories", "_truth", "_codes")

    def __init__(self, categories: Sequence[str], truth_codes, statement_codes):
        # imported here, not at module level: a profile is read without numpy
        import csv

        import numpy as np

        categories = tuple(str(c) for c in categories)
        if not categories or any(not c for c in categories):
            raise DataError(f"categories must be non-empty labels: {categories}")
        limit = csv.field_size_limit()
        for label in categories:
            if len(label) > limit:
                raise DataError(
                    f"category label {label[:20]!r}... would not read back from a records "
                    f"file: it has {len(label)} characters, more than the csv field limit {limit}"
                )
            if "\n" in label or "\r" in label or label != label.strip():
                raise DataError(
                    f"category label {label!r} would not read back from a records file: "
                    "a label must not hold a line break or start or end with whitespace"
                )
            try:
                label.encode("utf-8")
            except UnicodeEncodeError:
                raise DataError(
                    f"category label {label!r} would not read back from a records file: "
                    "it holds a lone surrogate, which UTF-8 cannot encode"
                ) from None
        if len(set(categories)) != len(categories):
            raise DataError(f"duplicate category label in {categories}")
        truth, codes = np.asarray(truth_codes), np.asarray(statement_codes)
        if truth.ndim != 1 or truth.shape != codes.shape:
            raise DataError(
                "truth and statement codes must be 1-d and equally long, "
                f"got shapes {truth.shape} and {codes.shape}"
            )
        if truth.size and not (
            truth.dtype.kind in "biu" and codes.dtype.kind in "biu"
        ):
            raise DataError("truth and statement codes must be integers")
        if truth.size and (truth.min() < 0 or truth.max() > 1):
            raise DataError("truth codes must be 0 (same source) or 1 (different source)")
        if codes.size and (codes.min() < 0 or codes.max() >= len(categories)):
            raise DataError(f"statement codes must index the {len(categories)} categories")
        self._categories = categories
        self._truth = truth.astype(np.uint8)
        # the narrowest unsigned type that holds every code: one byte for up to 256 categories
        self._codes = codes.astype(np.min_scalar_type(len(categories) - 1))
        self._truth.flags.writeable = False
        self._codes.flags.writeable = False

    @property
    def categories(self) -> tuple[str, ...]:
        return self._categories

    @property
    def truth_codes(self) -> np.ndarray:
        return self._truth

    @property
    def statement_codes(self) -> np.ndarray:
        return self._codes

    def __len__(self) -> int:
        return self._codes.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"record index {index} out of range for {len(self)} records")
        return self._row(i, self._truth[i], self._codes[i])

    def __iter__(self):
        rows = zip(self._truth.tolist(), self._codes.tolist())
        for i, (truth, code) in enumerate(rows):
            yield self._row(i, truth, code)

    def _row(self, i: int, truth: int, code: int) -> EvaluationRecord:
        return EvaluationRecord(
            self.EXAMINER_IDS[i % len(self.EXAMINER_IDS)],
            self.ITEM_ID % (i + 1),
            _TRUTHS[truth],
            self._categories[code],
        )

    def __eq__(self, other):
        if not isinstance(other, RecordBatch):
            return NotImplemented
        import numpy as np

        labels = np.array(self._categories, dtype=object)[self._codes]
        other_labels = np.array(other._categories, dtype=object)[other._codes]
        return np.array_equal(self._truth, other._truth) and np.array_equal(
            labels, other_labels
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"RecordBatch({len(self)} records, categories={list(self._categories)})"


# the GroundTruth of each RecordBatch truth code
_TRUTHS = tuple(GroundTruth)


def _batch_counts(batch: RecordBatch) -> dict[tuple[GroundTruth, str], int]:
    """Nonzero (truth, statement) counts of a batch, statements in first-appearance order."""
    import numpy as np

    k = len(batch.categories)
    codes = batch.statement_codes
    keys = batch.truth_codes.astype(np.intp) * k + codes
    rows = np.bincount(keys, minlength=2 * k).reshape(2, k).tolist()
    present, first = np.unique(codes, return_index=True)
    counts = {}
    for code in present[np.argsort(first)].tolist():
        for truth, row in zip(GroundTruth, rows):
            if row[code]:
                counts[(truth, batch.categories[code])] = row[code]
    return counts


def emit_records(records: Sequence[EvaluationRecord], out: IO[str] | None = None) -> str | None:
    """Serialize records in the raw-records schema (round-trips with parse_records).

    Returns the text; with ``out``, writes it there piece by piece instead
    and returns None, so a large ``RecordBatch`` is never held as one string.
    """
    pieces = _record_pieces(records)
    if out is None:
        return b"".join(pieces).decode("utf-8")
    out.writelines(piece.decode("utf-8") for piece in pieces)
    return None


def _record_pieces(records: Sequence[EvaluationRecord]) -> Iterator[bytes]:
    """Raw-records CSV as UTF-8 bytes in pieces: a batch one chunk of 1000
    item numbers per piece.  ``catlr simulate`` writes them as they are, to
    stdout or ``--out``."""
    if not isinstance(records, RecordBatch):
        rows = ((r.examiner_id, r.item_id, r.truth.value, r.statement) for r in records)
        yield _csv_text(RAW_HEADER, rows).encode("utf-8")
        return
    import numpy as np

    yield _csv_text(RAW_HEADER, ()).encode("utf-8")
    k = len(records.categories)
    # The ground-truth and statement cells of each truth * k + code, CSV-encoded
    # once with their line ending; the synthetic ids never need quoting.
    tails = np.array(
        [_csv_text((t.value, label), ()).encode("utf-8")
         for t in GroundTruth for label in records.categories],
        dtype=object,
    )
    lines = RecordBatch._CHUNK_LINES
    chunk = b"".join(lines)
    n = len(records)
    # each block holds the item numbers first .. last - 1; there is no item 0
    for first in range(0, n + 1, _BLOCK_ROWS):
        last = min(first + _BLOCK_ROWS, n + 1)
        block = slice(max(first - 1, 0), last - 1)
        truth = records.truth_codes[block].astype(np.intp)
        cells = tails[truth * k + records.statement_codes[block]].tolist()
        # cells[0] holds item number block.start + 1
        for c in range(first // 1000, (last + 999) // 1000):
            j0, j1 = (1 if c == 0 else 0), min(last - c * 1000, 1000)
            a = c * 1000 + j0 - block.start - 1
            template = chunk if j1 - j0 == 1000 else b"".join(lines[j0:j1])
            yield template.replace(b"{0}", b"%03d" % c) % tuple(cells[a : a + j1 - j0])


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
    ``source`` is the text or its lines, with or without line ends; a
    byte-order mark at its start is skipped.
    """
    # imported here, not at module level: configparser costs ~3 ms to import
    # and nothing else in the package reads INI text
    import configparser

    parser = configparser.ConfigParser()
    lines = io.StringIO(source) if isinstance(source, str) else iter(source)
    first = next(lines, "").removeprefix("\ufeff")
    try:
        # read line by line, so that an error names the line it is on
        parser.read_file(chain([first], lines), source="<string>")
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
    except (ValueError, configparser.Error) as exc:  # a lone "%" is an interpolation error
        raise DataError(f"malformed profile value: {exc}") from None
    return PanelProfile(categories, p_given_h1, p_given_h2, n_h1, n_h2, seed)
