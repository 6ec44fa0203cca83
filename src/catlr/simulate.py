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

Seeded contract (``RNG_ALGORITHM``).  ``simulate_study`` draws every record
from one ``random.Random(profile.seed)``, CPython's MT19937, with the
standard library alone: the n_h1 same-source codes first, then the n_h2
different-source codes.  A record's category is that of a uniform 53-bit
integer U: the number of thresholds T_j <= U, where T_j is 2**53 (p_0 +
... + p_j) / (p_0 + ... + p_{K-1}), j < K - 1, rounded half up in exact
arithmetic, so a category of probability 0 is never drawn.  U's bits are
taken in three stages, so that most records take one byte:

1. ``getrandbits(8 n)`` as n little-endian bytes gives U's top 8 bits for
   each of the n records;
2. the m records whose byte leaves their category open, because a
   threshold falls inside its range of U, take U's next 8 bits, in record
   order, from ``getrandbits(8 m)`` as m little-endian bytes;
3. the records still open take U's last 37 bits, in record order, one
   ``getrandbits(37)`` each.
"""

from __future__ import annotations

import io
import math
import operator
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, chain, repeat

from .ingest import RAW_HEADER, _csv_text
from .model import (
    ConfusionTable,
    DataError,
    EvaluationRecord,
    Frozen,
    GroundTruth,
    category_index,
    check_labels,
    check_seed,
    ratio,
)

TYPE_CHECKING = False  # typing costs a command ~4 ms to import, and annotations are strings
if TYPE_CHECKING:
    from typing import IO

RNG_ALGORITHM = "mt19937-u53-v3"

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
        categories = check_labels(categories)
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
    iteration build each ``EvaluationRecord`` only when it is read.  The
    batch holds copies of its code columns: ``bytes``, or an unsigned
    ``array`` for statement codes of over 256 categories, shown only as
    read-only memoryviews, so a batch never changes after construction.
    Its labels pass ``check_labels``, so each reads back from
    ``emit_records`` text unchanged.
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
        categories = check_labels(categories)
        truth, codes = _integers(truth_codes), _integers(statement_codes)
        if len(truth) != len(codes):
            raise DataError(
                "truth and statement codes must be equally long, "
                f"got {len(truth)} and {len(codes)}"
            )
        if truth and (min(truth) < 0 or max(truth) > 1):
            raise DataError("truth codes must be 0 (same source) or 1 (different source)")
        if codes and (min(codes) < 0 or max(codes) >= len(categories)):
            raise DataError(f"statement codes must index the {len(categories)} categories")
        self._categories = categories
        self._truth = bytes(truth)
        self._codes = bytes(codes) if len(categories) <= 256 else _wide(len(categories), codes)

    @classmethod
    def _of_columns(cls, categories: Sequence[str], truth: bytes, codes) -> RecordBatch:
        """A batch of columns already stored as ``__init__`` stores them, and
        labels already checked, as a ``PanelProfile``'s are: unchecked."""
        batch = cls.__new__(cls)
        batch._categories, batch._truth, batch._codes = categories, truth, codes
        return batch

    @property
    def categories(self) -> tuple[str, ...]:
        return self._categories

    @property
    def truth_codes(self) -> memoryview:
        return memoryview(self._truth)

    @property
    def statement_codes(self) -> memoryview:
        return memoryview(self._codes).toreadonly()

    def __len__(self) -> int:
        return len(self._codes)

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
        for i, (truth, code) in enumerate(zip(self._truth, self._codes)):
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
        return self._truth == other._truth and list(
            map(self._categories.__getitem__, self._codes)
        ) == list(map(other._categories.__getitem__, other._codes))

    __hash__ = None

    def __repr__(self) -> str:
        return f"RecordBatch({len(self)} records, categories={list(self._categories)})"


# the GroundTruth of each RecordBatch truth code
_TRUTHS = tuple(GroundTruth)


def _integers(values) -> list[int]:
    """The elements of ``values``, each read as an int: never its buffer, whose
    bytes are not its elements when they are wider than one byte."""
    try:
        return list(map(operator.index, values))
    except TypeError:
        raise DataError("truth and statement codes must be 1-d sequences of integers") from None


def _wide(k: int, codes: Iterable[int]):
    """Codes of more than 256 categories, in the narrowest unsigned array that holds them."""
    # imported here, not at module level: only a profile of over 256 categories needs it
    from array import array

    return array("H" if k <= 1 << 16 else "L", codes)


def _keys(batch: RecordBatch) -> Sequence[int]:
    """Each row's truth * K + code, K the number of categories."""
    k, truth, codes = len(batch.categories), batch._truth, batch._codes
    if 2 * k <= 256:
        # the sum of the two columns read as base-256 numerals, as no digit carries
        keys = int.from_bytes(codes, "little") + k * int.from_bytes(truth, "little")
        return keys.to_bytes(len(codes), "little")
    return list(map(operator.add, map(operator.mul, truth, repeat(k)), codes))


def _batch_counts(batch: RecordBatch) -> dict[tuple[GroundTruth, str], int]:
    """Nonzero (truth, statement) counts of a batch, statements in first-appearance order."""
    k, truths = len(batch.categories), tuple(GroundTruth)
    # a Counter keeps its keys in the order each first appears: the order
    # in which ``records._table`` lists the statements
    return {(truths[key // k], batch.categories[key % k]): n
            for key, n in Counter(_keys(batch)).items()}


def emit_records(records: Sequence[EvaluationRecord], out: IO[str] | None = None) -> str | None:
    """Serialize records in the raw-records schema (round-trips with parse_records).

    Returns the text; with ``out``, writes it there piece by piece instead
    and returns None, so a large ``RecordBatch`` is never held as one string.
    """
    if isinstance(records, RecordBatch):
        pieces = (piece.decode("utf-8") for piece in _record_pieces(records))
    else:
        rows = ((r.examiner_id, r.item_id, r.truth.value, r.statement) for r in records)
        pieces = [_csv_text(RAW_HEADER, rows)]
    if out is None:
        return "".join(pieces)
    out.writelines(pieces)
    return None


def _record_pieces(records: RecordBatch) -> Iterator[bytes]:
    """A batch's raw-records CSV as UTF-8 bytes in pieces, one chunk of 1000
    item numbers per piece.  ``catlr simulate`` writes them as they are, to
    stdout or ``--out``."""
    yield _csv_text(RAW_HEADER, ()).encode("utf-8")
    # The ground-truth and statement cells of each key, CSV-encoded once
    # with their line ending; the synthetic ids never need quoting.
    keys = _keys(records)
    tails = [
        _csv_text((truth.value, label), ()).encode("utf-8")
        for truth in GroundTruth
        for label in records.categories
    ]
    lines = RecordBatch._CHUNK_LINES
    chunk = b"".join(lines)
    n = len(records)
    # chunk c holds item numbers c * 1000 + j, j0 <= j < j1; item i + 1 is
    # row i, and there is no item 0
    for c in range(n // 1000 + 1):
        j0, j1 = (1 if c == 0 else 0), min(n + 1 - c * 1000, 1000)
        rows = keys[c * 1000 + j0 - 1 : c * 1000 + j1 - 1]
        # one itemgetter call looks up a chunk, but returns a tuple only for two or more rows
        cells = operator.itemgetter(*rows)(tails) if len(rows) > 1 else tuple(tails[r] for r in rows)
        template = chunk if j1 - j0 == 1000 else b"".join(lines[j0:j1])
        yield template.replace(b"{0}", b"%03d" % c) % cells


def simulate_study(profile: PanelProfile) -> RecordBatch:
    """Draw one study: n_h1 same-source then n_h2 different-source records.

    Single RNG stream per study (seeded by the profile), so a fixed seed
    reproduces the records exactly; the module docstring sets out how.
    """
    g = random.Random(profile.seed)
    same = _draw(g, profile.n_h1, profile.p_given_h1)
    different = _draw(g, profile.n_h2, profile.p_given_h2)
    truth = bytes(profile.n_h1) + b"\x01" * profile.n_h2
    return RecordBatch._of_columns(profile.categories, truth, same + different)


def _draw(g: random.Random, n: int, p: Sequence[float]) -> Sequence[int]:
    """The category codes of ``n`` records under probabilities ``p``, drawn
    from ``g`` in the seeded contract's three stages: bytes for up to 256
    categories, else an array.

    Each stage maps a record's bits through a table of one character per
    code, as a str; ``open_`` marks the codes its bits leave open, which
    the next stage fills in.  Only those records cost more than a C loop."""
    k = len(p)
    # every float is an integer over a power of two of at most 2**1074
    weights = [a * (1 << 1074) // b for a, b in map(float.as_integer_ratio, p)]
    total = sum(weights)
    thresholds = [((w << 54) + total) // (2 * total) for w in accumulate(weights[:-1])]
    open_ = chr(max(k, 255))  # a code no category has
    first = _cells(thresholds, 0, 1 << 45, open_)
    raw = g.getrandbits(8 * n).to_bytes(n, "little")
    if k < 256:
        codes = raw.translate(first.encode("latin-1")).decode("latin-1")
    else:
        codes = raw.decode("latin-1").translate(first)
    # the bytes of the open records, in record order
    firsts = raw.translate(None, bytes(b for b, c in enumerate(first) if c != open_))
    m = len(firsts)
    seconds = g.getrandbits(8 * m).to_bytes(m, "little")
    tables = [
        _cells(thresholds, b << 45, 1 << 37, open_) if c == open_ else ""
        for b, c in enumerate(first)
    ]
    late = "".join(map(operator.getitem, map(tables.__getitem__, firsts), seconds))
    last = []
    j = late.find(open_)
    while j >= 0:
        u = firsts[j] << 45 | seconds[j] << 37 | g.getrandbits(37)
        last.append(chr(bisect_right(thresholds, u)))
        j = late.find(open_, j + 1)
    codes = _fill(codes, open_, _fill(late, open_, last))
    return codes.encode("latin-1") if k <= 256 else _wide(k, map(ord, codes))


def _cells(thresholds: list[int], lo: int, width: int, open_: str) -> str:
    """The code of each of the 256 cells [lo + e width, lo + (e + 1) width) of
    U as one character, ``open_`` for a cell that a threshold falls inside."""
    row: list[int | None] = []
    code = bisect_right(thresholds, lo)  # the thresholds at or below lo
    for t in thresholds[code : bisect_left(thresholds, lo + 256 * width)]:
        e, inside = divmod(t - lo, width)
        row += [code] * (e - len(row))
        if inside and len(row) == e:
            row.append(None)
        code += 1
    row += [code] * (256 - len(row))
    return "".join(open_ if c is None else chr(c) for c in row)


def _fill(text: str, mark: str, values: Sequence[str]) -> str:
    """``text`` with each ``mark`` in turn replaced by the next of ``values``."""
    pieces = text.split(mark)
    out = [""] * (2 * len(pieces) - 1)
    out[::2], out[1::2] = pieces, values
    return "".join(out)


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
