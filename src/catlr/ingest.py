"""Reading and tallying study data.

Two fixed text schemas, both UTF-8 CSV with ``#`` comment lines ignored:

* raw records:  header ``examiner_id,item_id,ground_truth,statement``,
  one row per evaluation.  Extra columns are ignored.  Ground-truth
  tokens are ``same`` / ``different``; the aliases ``mated`` /
  ``nonmated`` are accepted and normalized on read.
* aggregated:   header ``statement,same_source_count,different_source_count``,
  one row per category, file order = category order.

Labels are whitespace-trimmed but case-sensitive ("Inconcl.-A" is an
exact label).  Quoted fields are supported within a single line; one still
open at the end of its line, the input's last included, is an error, so
values containing newlines are not supported.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .model import ConfusionTable, DataError, EvaluationRecord, GroundTruth

if TYPE_CHECKING:
    from .simulate import RecordBatch


class IngestError(DataError):
    """A file does not conform to its declared schema."""


RAW_HEADER = ("examiner_id", "item_id", "ground_truth", "statement")
AGGREGATED_HEADER = ("statement", "same_source_count", "different_source_count")

_BLOCK_ROWS = 64_000  # item numbers of a RecordBatch read per block of codes, whole chunks of 1000
_BLOCK_LINES = 4096  # input lines filtered, and raw rows counted, per block

_TRUTH_TOKENS = {
    "same": GroundTruth.SAME_SOURCE,
    "mated": GroundTruth.SAME_SOURCE,
    "different": GroundTruth.DIFFERENT_SOURCE,
    "nonmated": GroundTruth.DIFFERENT_SOURCE,
}


def _blocks(source: str | Iterable[str]) -> Iterator[tuple[Sequence[int], list[str]]]:
    """(physical line numbers, lines) of the non-comment, non-blank lines of
    ``source``, in non-empty blocks; a string splits into lines as an open file does."""
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else iter(source)
    end = 0  # physical number of the last line read
    while block := list(islice(lines, _BLOCK_LINES)):
        # "#" and every whitespace character sort below "$" or at "\x85" and
        # above, so when every line starts between them none need stripping
        if min(block) >= "$" and max(block) < "\x85":
            yield range(end + 1, end + len(block) + 1), block
        else:
            # a blank line's first character after lstrip is "", which is "in" "#" too
            numbers = [n for n, raw in enumerate(block, end + 1) if raw.lstrip()[:1] not in "#"]
            if numbers:
                yield numbers, [block[n - end - 1] for n in numbers]
        end += len(block)


class _DataRows:
    """The data rows of ``_blocks`` output, parsed by one csv.reader.

    Iterating yields each row's cells; a second loop continues where the
    first stopped.  ``line`` maps the reader's ``line_num`` to a physical
    line through the current block's numbers.  A closing newline read after
    the last block makes a quoted field still open there an error.
    """

    def __init__(self, blocks: Iterable[tuple[Sequence[int], list[str]]]):
        self._numbers: Sequence[int] = ()  # physical numbers of the block's data lines
        self._before = 0  # lines the reader parsed before the current block
        self._closing = 0  # the reader's line_num at the closing newline, once read
        self._reader = csv.reader(chain.from_iterable(self._lines(blocks)))
        self._rows = self._checked()

    @property
    def line(self) -> int:
        """Physical line number of the last line the reader parsed."""
        return self._numbers[self._reader.line_num - self._before - 1]

    def __iter__(self) -> Iterator[list[str]]:
        return self._rows

    def _lines(self, blocks) -> Iterator[Sequence[str]]:
        for numbers, lines in blocks:
            self._before, self._numbers = self._reader.line_num, numbers
            yield lines
        # the closing newline is numbered as the last data line; it reads as an
        # empty row of its own unless a quoted field is still open
        self._before, self._numbers = self._reader.line_num, self._numbers[-1:]
        self._closing = self._before + 1
        yield ("\n",)

    def _checked(self) -> Iterator[list[str]]:
        reader = self._reader
        try:
            for count, row in enumerate(reader, start=1):
                if reader.line_num != count:
                    where = "left open on an earlier line ends here"
                    # a row read up to the closing newline from the last data line
                    if reader.line_num == self._closing == count + 1:
                        where = "is still open at the end of the input"
                    raise IngestError(
                        f"line {self.line}: a quoted field {where}; "
                        "quoted fields must close on their own line"
                    )
                if row:  # the closing newline alone reads as an empty row
                    yield row
        except csv.Error as exc:
            raise IngestError(f"line {self.line}: {exc}") from None


def _raw_columns(rows: _DataRows) -> dict[str, int]:
    """Position of each raw-records column, from the header row of ``rows``."""
    for header in rows:
        cells = tuple(c.strip() for c in header)
        break
    else:
        raise IngestError(f"empty input: expected header {','.join(RAW_HEADER)}")
    columns = {}
    for name in RAW_HEADER:
        try:
            columns[name] = cells.index(name)
        except ValueError:
            raise IngestError(
                f"line {rows.line}: header must contain column {name!r} "
                f"(expected columns {', '.join(RAW_HEADER)}; got {cells})"
            ) from None
    return columns


def _meaning(cells: tuple[str, str]) -> tuple[GroundTruth, str] | None:
    """(truth, statement) of a raw (ground-truth, statement) cell pair; None if invalid."""
    truth = _TRUTH_TOKENS.get(cells[0].strip().lower())
    statement = cells[1].strip()
    return (truth, statement) if truth is not None and statement else None


def _checked_records(
    rows: _DataRows, columns: dict[str, int]
) -> Iterator[tuple[list[str], tuple[GroundTruth, str]]]:
    """(cells, (truth, statement)) for each raw-records data row, validated.

    Each distinct raw (ground-truth cell, statement cell) pair is validated
    once; later rows with the same pair reuse its cached meaning.
    """
    width = max(columns.values()) + 1
    pair = itemgetter(columns["ground_truth"], columns["statement"])
    known: dict[tuple[str, str], tuple[GroundTruth, str]] = {}
    for row in rows:
        if len(row) < width:
            raise IngestError(
                f"line {rows.line}: expected at least {width} fields, got {len(row)}"
            )
        cells = pair(row)
        key = known.get(cells) or known.setdefault(cells, _meaning(cells))
        if key is None:
            token = cells[0].strip().lower()
            if token not in _TRUTH_TOKENS:
                raise IngestError(
                    f"line {rows.line}: unknown ground-truth token {token!r}; "
                    f"allowed tokens: {', '.join(sorted(_TRUTH_TOKENS))}"
                )
            raise IngestError(f"line {rows.line}: empty statement label")
        yield row, key


def parse_records(source: str | Iterable[str]) -> list[EvaluationRecord]:
    """Parse raw per-evaluation rows into records.

    ``source`` is file content (a string) or an iterable of lines (an open
    text file).  Raises IngestError naming the offending line.
    """
    rows = _DataRows(_blocks(source))
    columns = _raw_columns(rows)
    examiner_at, item_at = columns["examiner_id"], columns["item_id"]
    return [
        EvaluationRecord(row[examiner_at].strip(), row[item_at].strip(), *key)
        for row, key in _checked_records(rows, columns)
    ]


def tally_csv(source: str | Iterable[str], study_name: str = "") -> ConfusionTable:
    """Tally raw per-evaluation rows straight into a table, building no records.

    Equals ``tally(parse_records(source), study_name=study_name)``, with the
    same errors, in memory that does not grow with the number of rows.  Python
    code runs per row only from the first block with a fault on, to name its line.
    """
    blocks = _blocks(source)
    numbers, lines = next(blocks, ((), []))
    # the header's reader may read on only to fail, naming the line parse_records would
    columns = _raw_columns(_DataRows(chain([(numbers, lines)], blocks)))
    at = columns["ground_truth"], columns["statement"]
    pair, last = itemgetter(*at), max(columns.values())
    # A row too short for a column the checked scan requires must raise
    # IndexError, so a last column outside the pair is fetched too.
    wide = None if last in at else itemgetter(last, *at)
    # Each block's own csv.reader feeds a Counter of raw (ground-truth cell,
    # statement cell) pairs in C, and each new pair is validated once.  A
    # fault is a row that is too short, spans lines (a quoted field left
    # open) or is rejected by the csv module, or an invalid pair.  As no row
    # before the fault spans lines, the checked scan starting at its block
    # parses it as one that read every line before would.
    raw: Counter[tuple[str, str]] = Counter()
    # a header read without error is one line, so the rest of its block follows
    blocks = chain([(numbers[1:], lines[1:])], blocks)
    for block in blocks:
        reader = csv.reader(chain(block[1], ("\n",)))
        parsed = islice(reader, len(block[1]))
        pairs = map(pair, parsed) if wide is None else map(itemgetter(1, 2), map(wide, parsed))
        try:
            found = Counter(pairs)
            # the closing "\n" is a row of its own unless a quoted field is open
            whole = next(reader, None) == []
        except (IndexError, csv.Error):
            whole = False
        if not (whole and all(map(_meaning, found.keys() - raw.keys()))):
            blocks = chain([block], blocks)
            break
        raw.update(found)
    counts: Counter[tuple[GroundTruth, str]] = Counter()
    for cells, n in raw.items():
        counts[_meaning(cells)] += n
    # the block with a fault, if any, and every block after it
    counts.update(map(itemgetter(1), _checked_records(_DataRows(blocks), columns)))
    return _table(counts, None, study_name)


def tally(
    records: Iterable[EvaluationRecord],
    vocabulary: Sequence[str] | None = None,
    study_name: str = "",
) -> ConfusionTable:
    """Count records into a confusion table.

    Categories follow ``vocabulary`` order when given (zero-count
    categories are retained), else first appearance in the records.  A
    ``RecordBatch`` is counted from its code arrays without row views.
    """
    from .simulate import RecordBatch

    if isinstance(records, RecordBatch):
        counts = _batch_counts(records)
    else:
        counts = Counter((record.truth, record.statement) for record in records)
    return _table(counts, vocabulary, study_name)


def _batch_counts(batch: RecordBatch) -> dict[tuple[GroundTruth, str], int]:
    """Nonzero (truth, statement) counts of a batch, statements in first-appearance order."""
    # imported here, not at module level: only a RecordBatch needs numpy
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


def _table(
    counts: Mapping[tuple[GroundTruth, str], int],
    vocabulary: Sequence[str] | None,
    study_name: str,
) -> ConfusionTable:
    """The confusion table of ``counts``, which maps each (truth, statement)
    pair that occurs to its count, in order of first appearance.

    Categories follow ``vocabulary`` when given, else the order in which
    statements first appear.  A statement outside the vocabulary, and zero
    records without a vocabulary, are errors.
    """
    seen = list(dict.fromkeys(statement for _, statement in counts))
    categories = seen if vocabulary is None else [str(c) for c in vocabulary]
    allowed = set(categories)
    unknown = [statement for statement in seen if statement not in allowed]
    if unknown:
        raise DataError(
            f"statement {unknown[0]!r} is not in the declared vocabulary {categories}"
        )
    if not categories:
        raise DataError("cannot tally zero records without a declared vocabulary")
    return ConfusionTable(
        categories=tuple(categories),
        same_source=tuple(counts.get((GroundTruth.SAME_SOURCE, c), 0) for c in categories),
        different_source=tuple(
            counts.get((GroundTruth.DIFFERENT_SOURCE, c), 0) for c in categories
        ),
        study_name=study_name,
    )


def parse_aggregated(source: str | Iterable[str], study_name: str = "") -> ConfusionTable:
    """Parse an aggregated per-category count table.

    A file with another header fails on its header row, within the first block."""
    rows = _DataRows(_blocks(source))
    expected = f"expected {','.join(AGGREGATED_HEADER)} or {','.join(RAW_HEADER)}"
    for row in rows:
        cells = tuple(c.strip() for c in row)
        if cells == AGGREGATED_HEADER:
            break
        if set(RAW_HEADER) <= set(cells):
            raise IngestError("declared aggregated-table but header says raw-records")
        raise IngestError(f"header {','.join(cells)} matches no known schema; {expected}")
    else:
        raise IngestError(f"no header line found; {expected}")
    categories: list[str] = []
    same: list[int] = []
    different: list[int] = []
    for row in rows:
        lineno = rows.line
        if len(row) != len(AGGREGATED_HEADER):
            raise IngestError(
                f"line {lineno}: expected {len(AGGREGATED_HEADER)} fields, got {len(row)}"
            )
        label = row[0].strip()
        if not label:
            raise IngestError(f"line {lineno}: empty statement label")
        if label in categories:
            raise IngestError(f"line {lineno}: duplicate category label {label!r}")
        parsed = []
        for cell in row[1:]:
            try:
                value = int(cell.strip())
            except ValueError:
                raise IngestError(
                    f"line {lineno}: count {cell.strip()!r} is not an integer"
                ) from None
            if value < 0:
                raise IngestError(f"line {lineno}: negative count {value}")
            parsed.append(value)
        categories.append(label)
        same.append(parsed[0])
        different.append(parsed[1])
    if not categories:
        raise IngestError("aggregated table has a header but no category rows")
    return ConfusionTable(
        categories=tuple(categories),
        same_source=tuple(same),
        different_source=tuple(different),
        study_name=study_name,
    )


def load_table(path: str | Path) -> ConfusionTable:
    """The aggregated table in the file at ``path``, named after the file's stem.

    The file is opened once; every IngestError names the file."""
    try:
        with open(path, encoding="utf-8") as lines:
            return parse_aggregated(lines, Path(path).stem)
    except IngestError as exc:
        raise IngestError(f"{path}: {exc}") from None


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text of the header row then ``rows``, every line ending in a bare newline."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def emit_aggregated(table: ConfusionTable) -> str:
    """Serialize a table in the aggregated schema (round-trips with parse_aggregated)."""
    rows = zip(table.categories, table.same_source, table.different_source)
    return _csv_text(AGGREGATED_HEADER, rows)


def emit_records(
    records: Sequence[EvaluationRecord], out: IO[str] | None = None
) -> str | None:
    """Serialize records in the raw-records schema (round-trips with parse_records).

    Returns the text; with ``out``, writes it there piece by piece instead
    and returns None, so a large ``RecordBatch`` is never held as one string.
    """
    pieces = _record_pieces(records)
    if out is None:
        return "".join(pieces)
    for piece in pieces:
        out.write(piece)
    return None


def _record_pieces(records: Sequence[EvaluationRecord]) -> Iterator[str]:
    """Raw-records CSV text in pieces: a batch one chunk of 1000 item numbers per piece."""
    from .simulate import RecordBatch

    if not isinstance(records, RecordBatch):
        rows = ((r.examiner_id, r.item_id, r.truth.value, r.statement) for r in records)
        yield _csv_text(RAW_HEADER, rows)
        return
    import numpy as np

    yield _csv_text(RAW_HEADER, ())
    k = len(records.categories)
    # The ground-truth and statement cells of each truth * k + code, CSV-encoded
    # once with their line ending; the synthetic ids never need quoting.
    tails = [
        _csv_text((truth.value, label), ())
        for truth in GroundTruth
        for label in records.categories
    ]
    # Row i has item number i + 1.  The item numbers c * 1000 + j of chunk c
    # share the leading digits f"{c:03d}" of RecordBatch.ITEM_ID ("item%06d"),
    # and as the panel's period divides 1000, their examiners depend on j
    # alone.  So one template of the rows j = 0..999 serves every chunk: "{0}"
    # takes the chunk's digits, then one % takes its cells.
    examiners = RecordBatch.EXAMINER_IDS
    rows = [f"{examiners[(j - 1) % len(examiners)]},item{{0}}{j:03d},%s" for j in range(1000)]
    chunk = "".join(rows)
    n = len(records)
    # each block holds the item numbers first .. last - 1; there is no item 0
    for first in range(0, n + 1, _BLOCK_ROWS):
        last = min(first + _BLOCK_ROWS, n + 1)
        block = slice(max(first - 1, 0), last - 1)
        truth = records.truth_codes[block].astype(np.intp)
        cells = map(tails.__getitem__, (truth * k + records.statement_codes[block]).tolist())
        for c in range(first // 1000, (last + 999) // 1000):
            j0, j1 = (1 if c == 0 else 0), min(last - c * 1000, 1000)
            template = chunk if j1 - j0 == 1000 else "".join(rows[j0:j1])
            yield template.replace("{0}", f"{c:03d}") % tuple(islice(cells, j1 - j0))
