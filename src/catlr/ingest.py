"""Reading study data, and writing aggregated tables.

Two fixed text schemas, both UTF-8 CSV with ``#`` comment lines ignored
(a leading byte-order mark is skipped, in a file, a string or the first of
an iterable's lines):

* raw records:  header ``examiner_id,item_id,ground_truth,statement``,
  one row per evaluation.  Extra columns are ignored.  Ground-truth
  tokens are ``same`` / ``different``; the aliases ``mated`` /
  ``nonmated`` are accepted and normalized on read.  They are parsed by
  ``catlr.records`` over the line reader here, tallied by its bytes reader
  under the same rules (a caller's lines through the line reader here), and
  written by ``catlr.simulate.emit_records``.
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
import os
from collections.abc import Sequence
from itertools import chain, islice

from .model import ConfusionTable, DataError

TYPE_CHECKING = False  # typing costs a command ~4 ms to import, and annotations are strings
if TYPE_CHECKING:
    from typing import IO, Any, Callable, Iterable, Iterator


class IngestError(DataError):
    """A file does not conform to its declared schema."""


RAW_HEADER = ("examiner_id", "item_id", "ground_truth", "statement")
AGGREGATED_HEADER = ("statement", "same_source_count", "different_source_count")

# lines read per block, also of a caller's lines that catlr.records tallies
# (its bytes reader reads only files and strings), and tails its tail tier caches
_BLOCK_LINES = 4096

# (physical line numbers, lines): see _blocks
_Block = tuple[Sequence[int], list[str]]


def _blocks(source: str | Iterable[str]) -> Iterator[_Block]:
    """(physical line numbers, lines) of the non-comment, non-blank lines of
    ``source``, in non-empty blocks of up to ``_BLOCK_LINES`` lines read; a
    string splits into lines as an open file does.

    A byte-order mark (U+FEFF) at the start of the first line is dropped."""
    lines = io.StringIO(source, newline=None) if isinstance(source, str) else iter(source)
    end = 0  # physical number of the last line read
    while block := list(islice(lines, _BLOCK_LINES)):
        if end == 0 and block[0].startswith("\ufeff"):
            block[0] = block[0][1:]
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

    def __init__(self, blocks: Iterable[_Block]):
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
            raise IngestError(
                "header has the raw-records columns; tally such a file first with 'catlr tally'"
            )
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


def _read_input(path: str | os.PathLike, read: Callable[[IO[str]], Any]) -> Any:
    """``read`` of the lines of the input file at ``path``, the one rule for
    every input file: UTF-8 with universal newlines, and every error of the
    read named as ``_naming`` names it.  The reader of the lines drops a
    leading byte-order mark."""

    def read_file() -> Any:
        with open(path, encoding="utf-8") as lines:
            return read(lines)

    return _naming(path, read_file)


def _naming(path: str | os.PathLike, call: Callable[[], Any]) -> Any:
    """``call()``, each DataError it raises, a decode failure included,
    raised again naming the input file at ``path``."""
    try:
        return call()
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not valid UTF-8 ({exc.reason})") from None


def _study_name(path: str | os.PathLike) -> str:
    """The name of the study in the file at ``path``: the file's stem, as
    ``pathlib.PurePath(path).stem`` gives it."""
    name = os.path.basename(os.fspath(path))
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else name


def load_table(path: str | os.PathLike) -> ConfusionTable:
    """The aggregated table in the file at ``path``, named after the file's stem."""
    return use_table(path, lambda table: table)


def use_table(path: str | os.PathLike, use: Callable[[ConfusionTable], Any]) -> Any:
    """``use`` of the table ``load_table(path)``: a DataError that ``use``
    raises about the table, such as a row with no observations, names the
    file as a read error does.  Check every other argument before."""
    return _read_input(path, lambda text: use(parse_aggregated(text, _study_name(path))))


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text of the header row then ``rows``, every line ending in a bare
    newline.  A row whose first cell starts with "#", after any whitespace,
    has every cell quoted, so that ``_blocks`` does not read it as a comment."""
    buffer = io.StringIO()
    plain = csv.writer(buffer, lineterminator="\n")
    quoted = csv.writer(buffer, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in chain((header,), rows):
        (quoted if str(row[0]).lstrip()[:1] == "#" else plain).writerow(row)
    return buffer.getvalue()


def emit_aggregated(table: ConfusionTable) -> str:
    """Serialize a table in the aggregated schema (round-trips with parse_aggregated)."""
    rows = zip(table.categories, table.same_source, table.different_source)
    return _csv_text(AGGREGATED_HEADER, rows)
