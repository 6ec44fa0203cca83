"""Raw per-evaluation records: parsing and tallying.

The raw-records schema and the reading rules it shares with the aggregated
schema are described in ``catlr.ingest``, which this module reads through.
"""

from __future__ import annotations

import csv
import sys
from collections import Counter
from itertools import chain, repeat
from operator import itemgetter
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator, NoReturn, Sequence

from .ingest import (
    _BLOCK_LINES,
    RAW_HEADER,
    IngestError,
    _Block,
    _blocks,
    _DataRows,
    _Decoded,
    _naming,
    _read_input,
    _study_name,
    _table,
)
from .model import ConfusionTable, EvaluationRecord, GroundTruth

if TYPE_CHECKING:
    from os import PathLike

_PART_BYTES = 1 << 20  # tally_file counts a file in parts of at least this many bytes

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

    Blocks of data lines are counted by the tail tier (``_tail_counter``),
    which runs Python code per distinct line tail, not per row, until the
    first block it declines.  From that block on, the checked scan that
    ``parse_records`` reads through counts every row and names the line of
    any fault.  ``tally_file`` counts a large file on every CPU.
    """
    columns, blocks = _header(source)
    counts: Counter[tuple[GroundTruth, str]] = Counter()
    declined = _tail_counts(blocks, _tail_counter(columns), counts)
    if declined is not None:
        # As no row the tail tier counts spans lines, a scan starting at the
        # block it declines parses it as one that read every line before would.
        rows = _DataRows(chain([declined], blocks))
        counts.update(map(itemgetter(1), _checked_records(rows, columns)))
    return _table(counts, None, study_name)


def _header(source: str | Iterable[str]) -> tuple[dict[str, int], Iterator[_Block]]:
    """The columns the raw-records header of ``source`` names, and the blocks
    of data lines after it."""
    blocks = _blocks(source)
    first = numbers, lines, text = next(blocks, ((), [], None))
    # the header's reader may read on only to fail, naming the line parse_records would
    columns = _raw_columns(_DataRows(chain([first], blocks)))
    # a header read without error is one line, so the rest of its block follows
    rest = None if text is None else text[len(lines[0]):]
    return columns, chain([(numbers[1:], lines[1:], rest)], blocks)


def _tail_counts(
    blocks: Iterator[_Block],
    tails: Callable[[_Block], Counter[tuple[GroundTruth, str]] | None],
    counts: Counter[tuple[GroundTruth, str]],
) -> _Block | None:
    """Add the tail tier's counts of ``blocks`` to ``counts`` up to the first
    block it declines, and return that block; None if it declines none."""
    for block in blocks:
        found = tails(block)
        if found is None:
            return block
        counts.update(found)
    return None


def tally_file(path: str | PathLike) -> ConfusionTable:
    """Tally the raw-records file at ``path`` on every available CPU into a
    table named after the file's stem.

    Equals ``tally_csv`` of the file as ``ingest._read_input`` reads it,
    with the same errors, each naming the file.  The file is cut just after
    a line feed into one part per CPU, each of at least ``_PART_BYTES``.
    This process counts the first part with the tail tier and a forked
    child each other part, and the counts are merged in file order.  If the
    tail tier declines any part, a part is not valid UTF-8 or a child dies,
    ``tally_csv`` reads the whole file again, so a late fault costs a
    second read.  With one CPU, no ``os.fork``, a thread besides this one,
    or a file under two parts, only ``tally_csv`` runs.  As it forks, it is
    meant for a single-threaded caller such as the CLI.
    """
    import os

    study_name = _study_name(path)
    counts = None
    if hasattr(os, "fork"):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        parts = min(cpus or 1, os.stat(path).st_size // _PART_BYTES)
        if parts > 1 and _threads() == 1:
            counts = _forked_counts(path, parts)
    if counts is None:
        return _read_input(path, lambda text: tally_csv(text, study_name))
    return _naming(path, lambda: _table(counts, None, study_name))


def _threads() -> int:
    """The number of threads this process runs; a fork copies only the caller."""
    import os

    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:  # no /proc: the threads the threading module knows of
        threading = sys.modules.get("threading")
        return threading.active_count() if threading else 1


def _forked_counts(path: str | PathLike, parts: int) -> Counter | None:
    """The (truth, statement) counts of the file at ``path``, counted in up to
    ``parts`` parts by this process and forked children; None where a part
    is declined by the tail tier or fails."""
    import marshal
    import os
    import signal

    fd = os.open(path, os.O_RDONLY)
    children: list[tuple[int, IO[bytes]]] = []  # (pid, its pipe), not yet reaped
    try:
        cuts = _cuts(fd, parts)
        if len(cuts) < 3:
            return None
        with _range_text(fd, 0, cuts[1]) as text:
            try:
                columns, blocks = _header(text)
            except (IngestError, UnicodeDecodeError):
                return None
            tails = _tail_counter(columns)
            for start, end in zip(cuts[1:], cuts[2:]):
                read_end, write_end = os.pipe()
                try:
                    pid = os.fork()
                except OSError:  # no process to spare: this one reads the whole file
                    os.close(read_end)
                    os.close(write_end)
                    return None
                if pid == 0:  # the child counts its part and exits
                    _send_part_counts(fd, start, end, tails, write_end)
                os.close(write_end)
                children.append((pid, open(read_end, "rb")))
            counts: Counter[tuple[GroundTruth, str]] = Counter()
            try:
                if _tail_counts(blocks, tails, counts) is not None:
                    return None
            except UnicodeDecodeError:
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
    finally:
        for pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
        os.close(fd)


def _send_part_counts(
    fd: int,
    start: int,
    end: int,
    tails: Callable[[_Block], Counter[tuple[GroundTruth, str]] | None],
    pipe_end: int,
) -> NoReturn:
    """In a forked child: count bytes ``start`` to ``end`` of the file open at
    ``fd`` with the tail tier, write the counts, or None where it declines,
    to the pipe at ``pipe_end`` with marshal, and exit; status 1 on a failure."""
    import marshal
    import os

    status = 1
    try:
        counts: Counter[tuple[GroundTruth, str]] = Counter()
        with _range_text(fd, start, end) as part:
            declined = _tail_counts(_blocks(part), tails, counts)
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
    which ``_blocks`` would drop."""
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


def _range_text(fd: int, start: int, end: int) -> _Decoded:
    """Bytes ``start`` to ``end`` of the file open at ``fd`` as text, decoded
    as ``_read_input`` decodes a file, in bounded memory.  It reads with
    ``os.pread``, so forked readers of one descriptor share no file
    position."""
    import io
    import os

    class Range(io.RawIOBase):
        def readable(self) -> bool:
            return True

        def readinto(self, buffer) -> int:
            nonlocal start
            data = os.pread(fd, min(len(buffer), end - start), start)
            buffer[: len(data)] = data
            start += len(data)
            return len(data)

    return _Decoded(io.BufferedReader(Range()), encoding="utf-8")


def _tail_counter(
    columns: dict[str, int],
) -> Callable[[_Block], Counter[tuple[GroundTruth, str]] | None]:
    """The tail tier: a function from a block of data lines (see
    ``ingest._blocks``) to the Counter of their (truth, statement) pairs, or
    None where it declines.

    Each line is cut at its ``skip``-th comma, ``skip`` being the lower of the
    two columns, and the pieces after the cut (the tails) are counted in C.
    Each new tail is parsed once by csv.reader, and its (truth, statement)
    meaning cached: None unless it reads as one whole row on one line with
    enough cells and a valid pair.  The cut falls where csv.reader splits
    the line if the text before it (the prefix) holds no ``"``, CR or LF and
    no prefix field reaches the csv field limit.  So a block is counted only
    when

    * every line has a tail, and every tail a meaning;
    * every ``"`` and LF of the block lies in a tail, and it holds no CR or
      NUL (csv.reader before Python 3.11 rejects a NUL anywhere);
    * its prefixes together, or failing that its longest line, are shorter
      than the field limit.

    The scans and the ``"`` count run on the block's text.  Where the
    lines were split at line feeds, each LF ends its line and so lies in
    its tail; a caller's lines come without their text, which is joined
    and its LFs counted.

    A block whose new tails would grow the cache past ``_BLOCK_LINES`` tails
    is declined too.
    """
    at = columns["ground_truth"], columns["statement"]
    skip = min(at)
    tail_of = itemgetter(skip)
    cells_of = itemgetter(*(column - skip for column in at))
    width = max(columns.values()) - skip + 1  # cells a tail needs
    known: dict[str, tuple[GroundTruth, str] | None] = {}

    def meaning(tail: str) -> tuple[GroundTruth, str] | None:
        reader = csv.reader((tail, "\n"))
        try:
            cells, closing = next(reader), next(reader, None)
        except csv.Error:
            return None
        # the closing "\n" is a row of its own unless a quoted field is open
        if closing != [] or len(cells) < width:
            return None
        return _meaning(cells_of(cells))

    def count(block: _Block) -> Counter[tuple[GroundTruth, str]] | None:
        _, lines, text = block
        try:
            # map over str.split runs faster than over a methodcaller
            tails = Counter(map(tail_of, map(str.split, lines, repeat(","), repeat(skip))))
        except IndexError:  # a line with fewer than skip commas
            return None
        new = [tail for tail in tails if tail not in known]
        if len(known) + len(new) > _BLOCK_LINES:
            return None
        for tail in new:
            known[tail] = meaning(tail)
        keys = list(map(known.__getitem__, tails))
        if not all(keys):
            return None
        if text is None:
            text = "".join(lines)
            if text.count("\n") != sum(n * tail.count("\n") for tail, n in tails.items()):
                return None
        if "\r" in text or "\0" in text:
            return None
        if text.count('"') != sum(n * tail.count('"') for tail, n in tails.items()):
            return None
        limit = csv.field_size_limit()
        prefixes = len(text) - sum(n * len(tail) for tail, n in tails.items())
        if prefixes >= limit and max(map(len, lines)) >= limit:
            return None
        found: Counter[tuple[GroundTruth, str]] = Counter()
        for key, n in zip(keys, tails.values()):
            found[key] += n
        return found

    return count


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
