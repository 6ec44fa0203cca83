"""Reading and tallying study data.

Two fixed text schemas, both UTF-8 CSV with ``#`` comment lines ignored:

* raw records:  header ``examiner_id,item_id,ground_truth,statement``,
  one row per evaluation.  Extra columns are ignored.  Ground-truth
  tokens are ``same`` / ``different``; the aliases ``mated`` /
  ``nonmated`` are accepted and normalized on read.
* aggregated:   header ``statement,same_source_count,different_source_count``,
  one row per category, file order = category order.

Labels are whitespace-trimmed but case-sensitive ("Inconcl.-A" is an
exact label).  Quoted fields are supported within a single line; values
containing newlines are not.
"""

from __future__ import annotations

import csv
import enum
import io
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .model import ConfusionTable, DataError, EvaluationRecord, GroundTruth


class IngestError(DataError):
    """A file does not conform to its declared schema."""


RAW_HEADER = ("examiner_id", "item_id", "ground_truth", "statement")
AGGREGATED_HEADER = ("statement", "same_source_count", "different_source_count")

_TRUTH_TOKENS = {
    "same": GroundTruth.SAME_SOURCE,
    "mated": GroundTruth.SAME_SOURCE,
    "different": GroundTruth.DIFFERENT_SOURCE,
    "nonmated": GroundTruth.DIFFERENT_SOURCE,
}


def _rows(source: str | Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, parsed cells) for data lines, skipping comments."""
    lines = source.splitlines() if isinstance(source, str) else source
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, next(csv.reader([raw]))


def _header(rows: Iterator, expected: tuple[str, ...]) -> tuple[int, tuple[str, ...]]:
    """Line number and trimmed cells of the first data row, the header."""
    for lineno, header in rows:
        return lineno, tuple(c.strip() for c in header)
    raise IngestError(f"empty input: expected header {','.join(expected)}")


def parse_records(source: str | Iterable[str]) -> list[EvaluationRecord]:
    """Parse raw per-evaluation rows into records.

    ``source`` is file content (a string) or an iterable of lines (an open
    text file).  Raises IngestError naming the offending line.
    """
    rows = _rows(source)
    lineno, cells = _header(rows, RAW_HEADER)
    indices = {}
    for name in RAW_HEADER:
        try:
            indices[name] = cells.index(name)
        except ValueError:
            raise IngestError(
                f"line {lineno}: header must contain column {name!r} "
                f"(expected columns {', '.join(RAW_HEADER)}; got {cells})"
            ) from None
    width = max(indices.values()) + 1

    records = []
    for lineno, row in rows:
        if len(row) < width:
            raise IngestError(
                f"line {lineno}: expected at least {width} fields, got {len(row)}"
            )
        token = row[indices["ground_truth"]].strip().lower()
        if token not in _TRUTH_TOKENS:
            raise IngestError(
                f"line {lineno}: unknown ground-truth token {token!r}; "
                f"allowed tokens: {', '.join(sorted(_TRUTH_TOKENS))}"
            )
        statement = row[indices["statement"]].strip()
        if not statement:
            raise IngestError(f"line {lineno}: empty statement label")
        records.append(
            EvaluationRecord(
                examiner_id=row[indices["examiner_id"]].strip(),
                item_id=row[indices["item_id"]].strip(),
                truth=_TRUTH_TOKENS[token],
                statement=statement,
            )
        )
    return records


def tally(
    records: Sequence[EvaluationRecord],
    vocabulary: Sequence[str] | None = None,
    study_name: str = "",
) -> ConfusionTable:
    """Count records into a confusion table.

    Categories follow ``vocabulary`` order when given (zero-count
    categories are retained), else first appearance in the records.
    """
    counts = Counter((record.truth, record.statement) for record in records)
    # A Counter keeps insertion order, so its keys meet each statement in
    # order of first appearance in the records.
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
        same_source=tuple(counts[(GroundTruth.SAME_SOURCE, c)] for c in categories),
        different_source=tuple(
            counts[(GroundTruth.DIFFERENT_SOURCE, c)] for c in categories
        ),
        study_name=study_name,
    )


def parse_aggregated(source: str | Iterable[str], study_name: str = "") -> ConfusionTable:
    """Parse an aggregated per-category count table."""
    rows = _rows(source)
    lineno, cells = _header(rows, AGGREGATED_HEADER)
    if cells != AGGREGATED_HEADER:
        raise IngestError(
            f"line {lineno}: expected header {','.join(AGGREGATED_HEADER)}, "
            f"got {','.join(cells)}"
        )

    categories: list[str] = []
    same: list[int] = []
    different: list[int] = []
    for lineno, row in rows:
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


def emit_records(records: Sequence[EvaluationRecord]) -> str:
    """Serialize records in the raw-records schema (round-trips with parse_records)."""
    rows = ((r.examiner_id, r.item_id, r.truth.value, r.statement) for r in records)
    return _csv_text(RAW_HEADER, rows)


class DatasetKind(enum.Enum):
    RAW_RECORDS = "raw-records"
    AGGREGATED_TABLE = "aggregated-table"


_HEADERS = {
    DatasetKind.RAW_RECORDS: RAW_HEADER,
    DatasetKind.AGGREGATED_TABLE: AGGREGATED_HEADER,
}


def sniff_kind(path: str | Path) -> DatasetKind:
    """Classify a file by its header line."""
    return _kind_of(Path(path).read_text(encoding="utf-8"), path)


def _kind_of(text: str, path: str | Path) -> DatasetKind:
    """Classify the text of the file at ``path`` by its header line."""
    expected = f"expected {','.join(AGGREGATED_HEADER)} or {','.join(RAW_HEADER)}"
    for _, row in _rows(text):
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
        text = Path(self.path).read_text(encoding="utf-8")
        actual = _kind_of(text, self.path)
        if actual is not self.kind:
            raise IngestError(
                f"{self.path}: declared {self.kind.value} but header says {actual.value}"
            )
        if self.kind is DatasetKind.RAW_RECORDS:
            return parse_records(text)
        return parse_aggregated(text, study_name=Path(self.path).stem)
