"""Reading and tallying study data.

Two fixed text schemas, both UTF-8 CSV with ``#`` comment lines ignored:

* raw records:  header ``examiner_id,item_id,ground_truth,statement``,
  one row per evaluation.  Extra columns are ignored.  Ground-truth
  tokens are ``same`` / ``different``; the aliases ``mated`` /
  ``nonmated`` are accepted and normalized on read.
* aggregated:   header ``statement,same_source_count,different_source_count``,
  one row per category, file order = category order.

Labels are whitespace-trimmed but case-sensitive ("Inconcl.-A" is an
exact label).  Quoted fields are supported within a single line; a quoted
field still open at the end of its line is an error, so values containing
newlines are not supported.
"""

from __future__ import annotations

import csv
import enum
import io
from collections import Counter
from dataclasses import dataclass
from itertools import chain, cycle, islice
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .model import ConfusionTable, DataError, EvaluationRecord, GroundTruth, RecordBatch


class IngestError(DataError):
    """A file does not conform to its declared schema."""


RAW_HEADER = ("examiner_id", "item_id", "ground_truth", "statement")
AGGREGATED_HEADER = ("statement", "same_source_count", "different_source_count")

_BLOCK_ROWS = 65_536  # rows of a RecordBatch formatted per piece of output
_BLOCK_LINES = 4096  # input lines filtered per step of a _DataRows

_TRUTH_TOKENS = {
    "same": GroundTruth.SAME_SOURCE,
    "mated": GroundTruth.SAME_SOURCE,
    "different": GroundTruth.DIFFERENT_SOURCE,
    "nonmated": GroundTruth.DIFFERENT_SOURCE,
}


class _DataRows:
    """The data rows of CSV text or an open text file, parsed by one csv.reader.

    Iterating yields each row's cells; a second loop continues where the
    first stopped.  Comment and blank lines are dropped in blocks before
    the reader sees them, so the reader's ``line_num`` counts data lines
    only, and ``line`` maps it back to a physical line number through a
    map kept for the current block alone.
    """

    def __init__(self, source: str | Iterable[str]):
        lines = source.splitlines() if isinstance(source, str) else source
        self._numbers: list[int] = []  # physical numbers of the block's data lines
        self._before = 0  # data lines in the blocks before the current one
        self._reader = csv.reader(chain.from_iterable(self._blocks(iter(lines))))
        self._rows = self._checked()

    @property
    def line(self) -> int:
        """Physical line number of the last line the reader parsed."""
        return self._numbers[self._reader.line_num - self._before - 1]

    def __iter__(self) -> Iterator[list[str]]:
        return self._rows

    def _blocks(self, lines: Iterator[str]) -> Iterator[list[str]]:
        end = 0  # physical number of the last line read
        while block := list(islice(lines, _BLOCK_LINES)):
            self._before += len(self._numbers)
            self._numbers = [
                n
                for n, raw in enumerate(block, start=end + 1)
                if (text := raw.strip()) and text[0] != "#"
            ]
            kept = block
            if len(self._numbers) < len(block):
                kept = [block[n - end - 1] for n in self._numbers]
            end += len(block)
            yield kept

    def _checked(self) -> Iterator[list[str]]:
        reader = self._reader
        try:
            for count, row in enumerate(reader, start=1):
                if reader.line_num != count:
                    raise IngestError(
                        f"line {self.line}: a quoted field left open on an earlier "
                        "line ends here; quoted fields must close on their own line"
                    )
                yield row
        except csv.Error as exc:
            raise IngestError(f"line {self.line}: {exc}") from None


def _header(rows: _DataRows, expected: tuple[str, ...]) -> tuple[int, tuple[str, ...]]:
    """Line number and trimmed cells of the first data row, the header."""
    for header in rows:
        return rows.line, tuple(c.strip() for c in header)
    raise IngestError(f"empty input: expected header {','.join(expected)}")


def _raw_columns(rows: _DataRows) -> dict[str, int]:
    """Position of each raw-records column, from the header row of ``rows``."""
    lineno, cells = _header(rows, RAW_HEADER)
    columns = {}
    for name in RAW_HEADER:
        try:
            columns[name] = cells.index(name)
        except ValueError:
            raise IngestError(
                f"line {lineno}: header must contain column {name!r} "
                f"(expected columns {', '.join(RAW_HEADER)}; got {cells})"
            ) from None
    return columns


def _checked_records(
    rows: _DataRows, columns: dict[str, int]
) -> Iterator[tuple[list[str], tuple[GroundTruth, str]]]:
    """(cells, (truth, statement)) for each raw-records data row, validated.

    Each distinct raw ground-truth cell and statement cell is validated
    once; later rows with the same cell reuse its cached meaning.
    """
    width = max(columns.values()) + 1
    truth_at, statement_at = columns["ground_truth"], columns["statement"]
    truths: dict[str, GroundTruth] = {}
    statements: dict[str, str] = {}
    for row in rows:
        if len(row) < width:
            raise IngestError(
                f"line {rows.line}: expected at least {width} fields, got {len(row)}"
            )
        cell = row[truth_at]
        truth = truths.get(cell)
        if truth is None:
            token = cell.strip().lower()
            if token not in _TRUTH_TOKENS:
                raise IngestError(
                    f"line {rows.line}: unknown ground-truth token {token!r}; "
                    f"allowed tokens: {', '.join(sorted(_TRUTH_TOKENS))}"
                )
            truth = truths[cell] = _TRUTH_TOKENS[token]
        cell = row[statement_at]
        statement = statements.get(cell)
        if statement is None:
            statement = cell.strip()
            if not statement:
                raise IngestError(f"line {rows.line}: empty statement label")
            statements[cell] = statement
        yield row, (truth, statement)


def parse_records(source: str | Iterable[str]) -> list[EvaluationRecord]:
    """Parse raw per-evaluation rows into records.

    ``source`` is file content (a string) or an iterable of lines (an open
    text file).  Raises IngestError naming the offending line.
    """
    rows = _DataRows(source)
    columns = _raw_columns(rows)
    examiner_at, item_at = columns["examiner_id"], columns["item_id"]
    return [
        EvaluationRecord(row[examiner_at].strip(), row[item_at].strip(), *key)
        for row, key in _checked_records(rows, columns)
    ]


def tally_csv(source: str | Iterable[str], study_name: str = "") -> ConfusionTable:
    """Tally raw per-evaluation rows straight into a table, building no records.

    Equals ``tally(parse_records(source), study_name=study_name)``, with the
    same errors, in memory that does not grow with the number of rows.
    """
    rows = _DataRows(source)
    checked = _checked_records(rows, _raw_columns(rows))
    return _table(Counter(map(itemgetter(1), checked)), None, study_name)


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
    """Parse an aggregated per-category count table."""
    rows = _DataRows(source)
    lineno, cells = _header(rows, AGGREGATED_HEADER)
    if cells != AGGREGATED_HEADER:
        raise IngestError(
            f"line {lineno}: expected header {','.join(AGGREGATED_HEADER)}, "
            f"got {','.join(cells)}"
        )

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
    """Raw-records CSV text in pieces: a batch in blocks of rows formatted from its codes."""
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
    line = f"%s,{RecordBatch.ITEM_ID},%s".__mod__
    examiners = RecordBatch.EXAMINER_IDS
    for start in range(0, len(records), _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, len(records))
        truth = records.truth_codes[start:stop].astype(np.intp)
        keys = (truth * k + records.statement_codes[start:stop]).tolist()
        panel = islice(cycle(examiners), start % len(examiners), None)
        numbers = range(start + 1, stop + 1)
        yield "".join(map(line, zip(panel, numbers, map(tails.__getitem__, keys))))


class DatasetKind(enum.Enum):
    RAW_RECORDS = "raw-records"
    AGGREGATED_TABLE = "aggregated-table"


def sniff_kind(path: str | Path) -> DatasetKind:
    """Classify a file by its header line, reading no further than the header's block."""
    expected = f"expected {','.join(AGGREGATED_HEADER)} or {','.join(RAW_HEADER)}"
    with open(path, encoding="utf-8") as lines:
        for row in _DataRows(lines):
            cells = tuple(c.strip() for c in row)
            if cells == AGGREGATED_HEADER:
                return DatasetKind.AGGREGATED_TABLE
            if set(RAW_HEADER) <= set(cells):
                return DatasetKind.RAW_RECORDS
            header = ",".join(cells)
            raise IngestError(f"{path}: header {header} matches no known schema; {expected}")
    raise IngestError(f"{path}: no header line found; {expected}")


@dataclass(frozen=True)
class DatasetFile:
    """A data file with its declared kind; ``load`` checks the header matches."""

    path: Path
    kind: DatasetKind

    def load(self) -> list[EvaluationRecord] | ConfusionTable:
        # the header is checked first, so a file of the wrong kind fails
        # without the rest of it being read
        actual = sniff_kind(self.path)
        if actual is not self.kind:
            raise IngestError(
                f"{self.path}: declared {self.kind.value} but header says {actual.value}"
            )
        text = Path(self.path).read_text(encoding="utf-8")
        if self.kind is DatasetKind.RAW_RECORDS:
            return parse_records(text)
        return parse_aggregated(text, study_name=Path(self.path).stem)
