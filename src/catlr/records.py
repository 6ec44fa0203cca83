"""Raw per-evaluation records: parsing and tallying.

The raw-records schema and the reading rules it shares with the aggregated
schema are described in ``catlr.ingest``, whose line reader
``parse_records`` and the checked scan read through.

``tally_csv`` and ``tally_file`` count bytes instead.  The bytes reader
(``_cut``, ``_kept``) reads bytes only: a file read a chunk at a time, with
``os.pread`` for each part of a forked count, or a string encoded once.  It
applies the line reader's rules: universal newlines, the one leading
byte-order mark, and the ``str.lstrip`` comment rule.  It decodes only each
distinct line tail, each non-ASCII block of a file (to check that it is
UTF-8), the lines of a block that may hold a comment or a blank line, and
the blocks it hands to the checked scan.  A caller's lines are read by the
line reader, ``ingest._blocks``, and only the lines it keeps are encoded.
"""

from __future__ import annotations

import csv
import io
import sys
from collections import Counter
from collections.abc import Sequence
from itertools import chain, repeat
from operator import itemgetter

from .ingest import (
    _BLOCK_LINES,
    RAW_HEADER,
    IngestError,
    _Block,
    _blocks,
    _DataRows,
    _naming,
    _study_name,
)
from .model import ConfusionTable, DataError, EvaluationRecord, GroundTruth

TYPE_CHECKING = False  # typing costs a command ~4 ms to import, and annotations are strings
if TYPE_CHECKING:
    from os import PathLike
    from typing import IO, Callable, Iterable, Iterator, Mapping, NoReturn

_PART_BYTES = 1 << 20  # tally_file counts a file in parts of at least this many bytes
_CHUNK_BYTES = 1 << 16  # bytes read at a time from a file or an encoded string

# (physical line numbers, lines, their bytes or None for a caller's lines): see _source_lines
_Lines = tuple[Sequence[int], list[bytes], bytes | None]

_TRUTH_TOKENS = {
    "same": GroundTruth.SAME_SOURCE,
    "mated": GroundTruth.SAME_SOURCE,
    "different": GroundTruth.DIFFERENT_SOURCE,
    "nonmated": GroundTruth.DIFFERENT_SOURCE,
}


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
    same errors, in memory that does not grow with the number of rows.

    The rows are read as bytes (``_kept``), and blocks of data lines are
    counted by the tail tier (``_tail_counts``), which runs Python code per
    distinct line tail, not per row, until the first block it declines.
    From that block on, the lines are decoded and the checked scan that
    ``parse_records`` reads through counts every row and names the line of
    any fault.  ``tally_file`` counts a large file on every CPU.

    A caller's lines, an open text file among them, are read by
    ``ingest._blocks``, as ``parse_records`` reads them, and the lines it
    keeps are encoded before they are counted, which costs more than a
    string of the same text: prefer ``tally_file`` for a file, or pass its
    text.
    """
    return _table(_counts(_source_lines(source)), None, study_name)


def _counts(blocks: Iterator[_Lines]) -> Counter[tuple[GroundTruth, str]]:
    """The (truth, statement) counts of the raw-records ``blocks``."""
    columns, blocks = _header(blocks)
    counts, declined = _tail_counts(blocks, columns)
    if declined is not None:
        # As no row the tail tier counts spans lines, a scan starting at the
        # block it declines parses it as one that read every line before would.
        rows = _DataRows(map(_decoded, chain([declined], blocks)))
        counts.update(map(itemgetter(1), _checked_records(rows, columns)))
    return counts


def _header(blocks: Iterator[_Lines]) -> tuple[dict[str, int], Iterator[_Lines]]:
    """The columns the raw-records header of ``blocks`` names, and the blocks
    of data lines after it."""
    first = numbers, lines, data = next(blocks, ((), [], None))
    # the header's reader may read on only to fail, naming the line parse_records would
    columns = _raw_columns(_DataRows(map(_decoded, chain([first], blocks))))
    # a header read without error is one line, so the rest of its block follows
    rest = None if data is None else data[len(lines[0]):]
    return columns, chain([(numbers[1:], lines[1:], rest)], blocks)


def tally_file(path: str | PathLike) -> ConfusionTable:
    """Tally the raw-records file at ``path`` on every available CPU into a
    table named after the file's stem.

    Equals ``tally_csv`` of the file's text as ``ingest._read_input`` reads
    it, with the same error, naming the file, where the file holds one
    fault.  Where a row that fails comes before bytes that are not UTF-8,
    each names the fault it reads first, and this reads 64 KiB at a time
    where ``_read_input`` reads 4096 lines.  The file is cut just
    after a line feed into one part per CPU, each of at least
    ``_PART_BYTES``.  This process counts the first part with the tail tier
    and a forked child each other part, and the counts are merged in file
    order.  If the tail tier declines any part, a part is not valid UTF-8
    or a child dies, the whole file is counted again in this process, so a
    late fault costs a second read.  With one CPU, no ``os.fork``, a thread
    besides this one, or a file under two parts, only that count runs.  As
    it forks, it is meant for a single-threaded caller such as the CLI.
    """
    import os

    study_name = _study_name(path)

    def count() -> Counter[tuple[GroundTruth, str]]:
        with open(path, "rb", buffering=0) as file:
            counts = None
            if hasattr(os, "fork"):
                cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
                parts = min(cpus or 1, os.fstat(file.fileno()).st_size // _PART_BYTES)
                if parts > 1 and _threads() == 1:
                    counts = _forked_counts(file.fileno(), parts)
            return _counts(_kept(_cut(file.read), check=True)) if counts is None else counts

    return _naming(path, lambda: _table(count(), None, study_name))


def _threads() -> int:
    """The number of threads this process runs; a fork copies only the caller."""
    import os

    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:  # no /proc: the threads the threading module knows of
        threading = sys.modules.get("threading")
        return threading.active_count() if threading else 1


def _forked_counts(fd: int, parts: int) -> Counter | None:
    """The (truth, statement) counts of the file open at ``fd``, counted in up
    to ``parts`` parts by this process and forked children; None where a
    part is declined by the tail tier or fails."""
    import marshal
    import os

    children: list[tuple[int, IO[bytes]]] = []  # (pid, its pipe), not yet reaped
    try:
        cuts = _cuts(fd, parts)
        if len(cuts) < 3:
            return None
        columns, blocks = _header(_part_lines(fd, 0, cuts[1]))
        for start, end in zip(cuts[1:], cuts[2:]):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this one reads the whole file
                os.close(read_end)
                os.close(write_end)
                return None
            if pid == 0:  # the child counts its part and exits
                _send_part_counts(fd, start, end, columns, write_end)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        counts, declined = _tail_counts(blocks, columns)
        if declined is not None:
            return None
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            items = marshal.loads(data) if status == 0 else None
            if items is None:
                return None
            for truth, statement, n in items:
                counts[GroundTruth(truth), statement] += n
        return counts
    except (IngestError, UnicodeDecodeError):  # part 0 fails: the serial count names the fault
        return None
    finally:
        if children:  # left unreaped by an early return or an error
            import signal

            for pid, pipe in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pipe.close()


def _send_part_counts(
    fd: int,
    start: int,
    end: int,
    columns: dict[str, int],
    pipe_end: int,
) -> NoReturn:
    """In a forked child: count bytes ``start`` to ``end`` of the file open at
    ``fd`` with the tail tier, write the counts, or None where it declines,
    to the pipe at ``pipe_end`` with marshal, and exit; status 1 on a failure."""
    import marshal
    import os

    status = 1
    try:
        counts, declined = _tail_counts(_part_lines(fd, start, end), columns)
        items = [(truth.value, statement, n) for (truth, statement), n in counts.items()]
        with open(pipe_end, "wb") as pipe:
            marshal.dump(None if declined else items, pipe)
        status = 0
    finally:
        os._exit(status)


def _cuts(fd: int, parts: int) -> list[int]:
    """Offsets cutting the file open at ``fd`` into up to ``parts`` parts of
    about equal size, from 0 to its size; each other cut falls just after a
    line feed, and no part but the first starts with a byte-order mark,
    which ``_kept`` would drop."""
    import os

    size = os.fstat(fd).st_size
    cuts = [0]
    for i in range(1, parts):
        at = max(size * i // parts, cuts[-1])
        while (chunk := os.pread(fd, 1 << 16, at)) and b"\n" not in chunk:
            at += len(chunk)
        if not chunk:
            break
        at += chunk.index(b"\n") + 1
        if at == size or os.pread(fd, 3, at) == b"\xef\xbb\xbf":
            break
        cuts.append(at)
    return [*cuts, size]


def _part_lines(fd: int, start: int, end: int) -> Iterator[_Lines]:
    """The blocks of data lines of bytes ``start`` to ``end`` of the file open
    at ``fd``, each checked to be UTF-8.  It reads with ``os.pread``, so
    forked readers of one descriptor share no file position."""
    import os

    def read(size: int) -> bytes:
        nonlocal start
        data = os.pread(fd, min(size, end - start), start)
        start += len(data)
        return data

    return _kept(_cut(read), check=True)


def _source_lines(source: str | Iterable[str]) -> Iterator[_Lines]:
    """The blocks of data lines of ``source`` as bytes: a string is encoded
    once and cut as a file is; a caller's lines are read by
    ``ingest._blocks``, the line reader of ``parse_records``, and the lines
    it keeps are encoded, each as given, in blocks without their bytes
    (None).  A lone surrogate is encoded as itself ("surrogatepass"), so
    ``_decoded`` gives back every line as it was."""
    if isinstance(source, str):
        return _kept(_cut(io.BytesIO(source.encode("utf-8", "surrogatepass")).read))
    return (
        (numbers, [line.encode("utf-8", "surrogatepass") for line in lines], None)
        for numbers, lines in _blocks(source)
    )


def _cut(read: Callable[[int], bytes]) -> Iterator[tuple[list[bytes], bytes]]:
    """(lines, their bytes) of what ``read`` returns, ``_CHUNK_BYTES`` at a
    time, in non-empty blocks that each end at the last line feed read.

    Newlines are universal, as a text file reads them: a CRLF, or a lone
    CR, reads as one line feed, a CRLF also where a chunk ends between its
    two bytes.  A line longer than a chunk is joined once from its pieces."""
    pieces: list[bytes] = []  # of the line read in part
    held = False  # whether the last chunk ended at a CR, which may start a CRLF
    while chunk := read(_CHUNK_BYTES):
        if held:
            chunk = b"\r" + chunk
        held = chunk.endswith(b"\r")
        if held:
            chunk = chunk[:-1]
        if b"\r" in chunk:
            chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        end = chunk.rfind(b"\n") + 1
        if end:
            pieces.append(chunk[:end])
            data = b"".join(pieces)
            yield io.BytesIO(data).readlines(), data
            pieces = []
        if end < len(chunk):
            pieces.append(chunk[end:])
    if held:
        pieces.append(b"\n")
    if pieces:
        data = b"".join(pieces)
        yield io.BytesIO(data).readlines(), data


def _kept(blocks: Iterable[tuple[list[bytes], bytes]], check: bool = False) -> Iterator[_Lines]:
    """(physical line numbers, lines, their bytes) of the lines of the
    ``_cut`` blocks ``blocks`` that are neither comments nor blank, in
    non-empty blocks, by the rules of ``ingest._blocks``: a byte-order mark
    at the start of the first line is dropped, and a line whose text,
    ``str.lstrip``-ped, is empty or starts with "#" is skipped.  With
    ``check``, each block that is not ASCII is decoded, to raise
    UnicodeDecodeError where it is not UTF-8."""
    end = 0  # physical number of the last line read
    for lines, data in blocks:
        if end == 0 and lines[0].startswith(b"\xef\xbb\xbf"):
            lines[0] = lines[0][3:]
            data = data[3:]
        ascii_data = data.isascii()
        if check and not ascii_data:
            data.decode()
        # "#" and the UTF-8 of every whitespace character start below "$" or
        # at b"\xc2" and above, so when every line starts between them none
        # need stripping; no line of ASCII bytes starts at b"\x80" or above
        if min(lines) >= b"$" and (ascii_data or max(lines) < b"\xc2"):
            yield range(end + 1, end + len(lines) + 1), lines, data
        else:
            # a blank line's first character after lstrip is "", which is
            # "in" "#" too
            numbers = [
                n for n, raw in enumerate(lines, end + 1)
                if raw.decode("utf-8", "surrogatepass").lstrip()[:1] not in "#"
            ]
            if numbers:
                kept = [lines[n - end - 1] for n in numbers]
                yield numbers, kept, b"".join(kept)
        end += len(lines)


def _decoded(block: _Lines) -> _Block:
    """The block of text lines, for the checked scan, of a block of bytes lines.

    A lone surrogate of a caller's text, which ``_source_lines`` encodes as
    itself, decodes as itself; a file's blocks were checked by ``_kept``."""
    numbers, lines, _ = block
    return numbers, [line.decode("utf-8", "surrogatepass") for line in lines]


def _tail_counts(
    blocks: Iterator[_Lines], columns: dict[str, int]
) -> tuple[Counter[tuple[GroundTruth, str]], _Lines | None]:
    """The tail tier: the (truth, statement) counts of the blocks of bytes
    data lines ``blocks`` (see ``_kept``) up to the first block it declines,
    and that block; None if it declines none.

    Each line is cut at its ``skip``-th comma, ``skip`` being the lower of the
    two columns, and the pieces after the cut (the tails) are counted in C.
    Each new tail is decoded and parsed once by csv.reader, and its (truth,
    statement) meaning cached: None unless it reads as one whole row on one
    line with enough cells and a valid pair.  No byte of a multi-byte UTF-8
    character is a comma, quote, CR, LF or NUL, so the cut falls where
    csv.reader splits the decoded line if the text before it (the prefix)
    holds no ``"``, CR or LF and no prefix field reaches the csv field
    limit.  So a block is counted only when

    * every line has a tail, and every tail a meaning;
    * every ``"`` and LF of the block lies in a tail, and it holds no CR or
      NUL (csv.reader before Python 3.11 rejects a NUL anywhere);
    * its prefixes together, or failing that its longest line, are shorter
      than the field limit in bytes, and so in characters.

    The scans and the ``"`` count run on the block's bytes.  Where the
    lines were split at line feeds, each LF ends its line and so lies in
    its tail; a caller's lines come without their bytes, which are joined
    and their LFs counted.

    A block whose new tails would grow the cache past ``_BLOCK_LINES`` tails
    is declined too.  The tails of the blocks counted are summed, and each
    distinct one turned into its meaning once, at the end.
    """
    at = columns["ground_truth"], columns["statement"]
    skip = min(at)
    tail_of = itemgetter(skip)
    cells_of = itemgetter(*(column - skip for column in at))
    width = max(columns.values()) - skip + 1  # cells a tail needs
    known: dict[bytes, tuple[GroundTruth, str] | None] = {}

    def meaning(tail: bytes) -> tuple[GroundTruth, str] | None:
        reader = csv.reader((tail.decode("utf-8", "surrogatepass"), "\n"))
        try:
            cells, closing = next(reader), next(reader, None)
        except csv.Error:
            return None
        # the closing "\n" is a row of its own unless a quoted field is open
        if closing != [] or len(cells) < width:
            return None
        return _meaning(cells_of(cells))

    def tails_of(block: _Lines) -> Counter[bytes] | None:
        _, lines, data = block
        try:
            # map over bytes.split runs faster than over a methodcaller
            tails = Counter(map(tail_of, map(bytes.split, lines, repeat(b","), repeat(skip))))
        except IndexError:  # a line with fewer than skip commas
            return None
        new = [tail for tail in tails if tail not in known]
        if len(known) + len(new) > _BLOCK_LINES:
            return None
        for tail in new:
            known[tail] = meaning(tail)
        if not all(map(known.__getitem__, tails)):
            return None
        if data is None:
            data = b"".join(lines)
            if data.count(b"\n") != sum(n * tail.count(b"\n") for tail, n in tails.items()):
                return None
        if b"\r" in data or b"\0" in data:
            return None
        if data.count(b'"') != sum(n * tail.count(b'"') for tail, n in tails.items()):
            return None
        limit = csv.field_size_limit()
        prefixes = len(data) - sum(n * len(tail) for tail, n in tails.items())
        if prefixes >= limit and max(map(len, lines)) >= limit:
            return None
        return tails

    counted: Counter[bytes] = Counter()  # in order of first appearance
    declined = None
    for block in blocks:
        tails = tails_of(block)
        if tails is None:
            declined = block
            break
        counted.update(tails)
    counts: Counter[tuple[GroundTruth, str]] = Counter()
    for tail, n in counted.items():
        counts[known[tail]] += n
    return counts, declined


def tally(
    records: Iterable[EvaluationRecord],
    vocabulary: Sequence[str] | None = None,
    study_name: str = "",
) -> ConfusionTable:
    """Count records into a confusion table.

    Categories follow ``vocabulary`` order when given (zero-count
    categories are retained), else first appearance in the records.  A
    ``RecordBatch`` is counted from its code columns without row views.
    """
    # a RecordBatch exists only once its module has loaded: a list of records
    # is tallied without loading catlr.simulate
    simulate = sys.modules.get("catlr.simulate")
    if simulate is not None and isinstance(records, simulate.RecordBatch):
        counts = simulate._batch_counts(records)
    else:
        counts = Counter((record.truth, record.statement) for record in records)
    return _table(counts, vocabulary, study_name)


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
