"""``records.tally_file`` against ``tally_csv``, with parts small enough to fork.

Each check runs in a fresh interpreter with warnings as errors: ``tally_file``
forks only in a process of one thread, and Python 3.12 warns on a fork in a
process that has threads.  The test process need not be one: the test
modules import numpy and scipy, whose BLAS libraries may start a thread
pool on import, though catlr itself imports neither.  The interpreter
buffers a line on its stdout before any fork, so a child that flushed it
would print it twice.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catlr
import cli_corpus

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="forks only with os.fork")

_PATH = os.pathsep.join([str(Path(catlr.__file__).parents[1]), str(Path(__file__).parent)])

# The start of each script _run runs: parts of 4096 bytes, argv[1] available
# CPUs, and a count of forks.
_PRELUDE = """
import json, os, sys
from catlr import ingest, records

cpus = int(sys.argv[1])
records._PART_BYTES = 4096
os.sched_getaffinity = lambda pid: set(range(cpus))
os.cpu_count = lambda: cpus
forks = 0
fork = os.fork

def counting_fork():
    global forks
    forks += 1
    return fork()

os.fork = counting_fork
print("buffered before the fork")

def unreaped():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True
"""

_TALLY = _PRELUDE + """
def outcome(tally):
    try:
        table = tally()
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    return [table.categories, table.same_source, table.different_source, table.study_name]

def serial():
    return ingest._read_input(path, lambda text: records.tally_csv(text, "records"))

def by_lines():
    # a caller's stream is read by its lines, whatever the chunk size
    with open(path, encoding="utf-8") as stream:
        return records.tally_csv(stream, "records")

def parsed():
    return ingest._read_input(path, lambda text: records.tally(records.parse_records(text), study_name="records"))

path = sys.argv[2]
records._CHUNK_BYTES = int(sys.argv[3])  # bytes read at a time
if sys.argv[4:] == ["thread"]:
    import threading
    stop = threading.Event()
    threading.Thread(target=stop.wait).start()
forked = outcome(lambda: records.tally_file(path))
if sys.argv[4:] == ["thread"]:
    stop.set()
result = {
    "forked": forked,
    "serial": outcome(serial),
    "lines": outcome(by_lines),
    "parsed": outcome(parsed),
    "forks": forks,
    "unreaped": unreaped(),
}
print(json.dumps(result))
"""

_CORPUS = _PRELUDE + """
import cli_corpus
from pathlib import Path

directory = Path(sys.argv[2])
cli_corpus.write_inputs(directory)
records_files = {f"{name}.csv" for name in cli_corpus.RECORDS}
calls = [argv for argv in cli_corpus.CALLS if argv[0] == "tally" and argv[2] in records_files]
outcomes = cli_corpus.outcomes(directory, calls)
print(json.dumps({"outcomes": outcomes, "forks": forks, "unreaped": unreaped()}))
"""


def _run(script: str, *args: str) -> dict:
    # unbuffered, the line before the fork would be written before it
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = _PATH
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", script, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.stderr == ""
    first, result = done.stdout.splitlines()
    assert first == "buffered before the fork"  # once: no child flushed it
    return json.loads(result)


_HEADER = "item_id,examiner_id,statement,ground_truth\n"
_LABELS = ("ID", '"Inconclusive, A"', " Elimination ", "Unsuitable")
_TRUTHS = ("same", "mated", "different", "nonmated")


def _rows(count: int, every: str = "") -> str:
    """``count`` data lines, each followed by ``every``."""
    return "".join(
        f"it{n},ex{n % 37},{_LABELS[n % 7 % 4]},{_TRUTHS[n % 4]}\n{every}" for n in range(count)
    )


def _amid(line: str | bytes) -> bytes:
    """A records file with ``line`` between its 500th and 501st data lines."""
    line = line if isinstance(line, bytes) else line.encode()
    return (_HEADER + _rows(500)).encode() + line + _rows(500).encode()


def _crlf_split_at(offset: int) -> bytes:
    """A records file with CRLF line ends, one of whose CRs is its byte at
    ``offset`` - 1, so that a chunk of ``offset`` bytes ends between the CR
    and its LF."""
    head = (_HEADER + _rows(1500)).replace("\n", "\r\n").encode()
    head = head[: head.rindex(b"\n", 0, offset - 40) + 1]
    line = b"it,ex1,ID,same"
    line = line[:2] + b"x" * (offset - 1 - len(head) - len(line)) + line[2:]
    return head + line + b"\r\n" + _rows(1000).replace("\n", "\r\n").encode()


_MULTI_BYTE = ("Identificaci\u00f3n", "\u4e2d\u6587 B", "\U0001f600", "\u00e9")


_PREAMBLE = "# a preamble longer than the first part\n" * 1600

# name -> (file bytes, whether tally_file forks)
_CASES = {
    "comments_and_blanks_at_every_cut": ((_HEADER + _rows(700, "# c\n  \n")).encode(), True),
    "crlf": ((_HEADER + _rows(1000)).replace("\n", "\r\n").encode(), True),
    "lone_cr": ((_HEADER + _rows(1000)).replace("\n", "\r").encode(), False),
    "byte_order_mark": (b"\xef\xbb\xbf" + (_HEADER + _rows(1000)).encode(), True),
    "no_final_newline": ((_HEADER + _rows(1000)).rstrip("\n").encode(), True),
    "not_utf8_in_the_last_part": ((_HEADER + _rows(1000)).encode() + b"i,e,\xff,same\n", True),
    "fault_in_the_last_part": ((_HEADER + _rows(1000) + "it9,ex9,ID,maybe\n").encode(), True),
    "quote_left_open_on_the_last_line": ((_HEADER + _rows(1000) + 'i,e,"ID,same').encode(), True),
    "header_after_a_long_preamble": ((_PREAMBLE + _HEADER + _rows(1000)).encode(), False),
    "header_only": (_HEADER.encode(), False),
    "header_then_only_comments": ((_HEADER + _PREAMBLE).encode(), True),
    "two_byte_order_marks": (b"\xef\xbb\xbf" * 2 + (_HEADER + _rows(1000)).encode(), False),
    "a_line_longer_than_a_part": (_amid(f"i,{'e' * 5000},ID,same\n"), True),
    "quote_in_a_prefix": (_amid('i,e"1,ID,same\n'), True),
    "quoted_prefix_cell": (_amid('i,"e,1",same,ID\n'), True),
    "nul_in_a_prefix": (_amid("i,e\x001,ID,same\n"), True),
    "quoted_field_across_lines": (_amid('i,e,"I\nD",same\n'), True),
    "crlf_split_across_chunks": (_crlf_split_at(1 << 16), True),
    "comment_led_by_a_separator": (_amid("\x1c# c,d,e\n"), True),
    "comment_led_by_a_no_break_space": (_amid("\xa0# c,d,e\n"), True),
    "multi_byte_labels": (
        (_HEADER + "".join(
            f"it{n},ex{n % 37},{_MULTI_BYTE[n % 4]},{_TRUTHS[n % 4]}\n" for n in range(1000)
        )).encode(),
        True,
    ),
    "not_utf8_in_a_prefix": (_amid(b"i,e\xff1,ID,same\n"), True),
}

# bytes read at a time: the reader's own chunk size, and one that cuts
# every line several times
_CHUNKS = {"chunk_default": 1 << 16, "chunk_7": 7}


@pytest.mark.parametrize("chunk", _CHUNKS)
@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("case", _CASES)
def test_tally_file_equals_tally_csv(tmp_path, case, cpus, chunk):
    data, forks = _CASES[case]
    path = tmp_path / "records.csv"
    path.write_bytes(data)
    result = _run(_TALLY, cpus, path, _CHUNKS[chunk])
    assert result["forked"] == result["serial"] == result["parsed"]
    if isinstance(result["forked"][0], str):  # an error, which names the file
        kind, message = result["forked"]
        assert message.startswith(f"{path}: ")
        if result["lines"][0] != "UnicodeDecodeError":  # an error of the content
            assert result["lines"] == [kind, message.removeprefix(f"{path}: ")]
    else:  # a table, named after the file's stem
        assert result["forked"][3] == "records"
        assert result["lines"] == result["forked"]
    assert (result["forks"] > 0) == forks
    assert result["forks"] < cpus
    assert not result["unreaped"]


def _faults(rows: str, bad_at: int) -> bytes:
    """A records file whose third line fails and whose first byte at or
    after ``bad_at`` that starts a line of ``rows`` is not UTF-8; ``rows``
    repeats up to 6000 lines."""
    head = (_HEADER + "i,e,ID,same\nit9,ex9,ID,maybe\n").encode()
    body = (rows * 6000).encode()
    cut = body.index(b"\n", bad_at - len(head)) + 1
    return head + body[:cut] + b"i,e,\xff,same\n" + body[cut:]


# name -> (file bytes, the fault tally_file names, the fault parse_records names)
_TWO_FAULTS = {
    # the bad byte in the second 64 KiB chunk, within the first 4096 lines
    "long_lines": (
        _faults("item0000,examiner00,Inconclusive,same\n", 80_000), "line 3", "not valid UTF-8"
    ),
    # the bad byte in the first 64 KiB chunk, 1000 lines after the first 4096
    "short_lines": (_faults("i,e,ID,same\n", 61_500), "not valid UTF-8", "line 3"),
}


@pytest.mark.parametrize("case", _TWO_FAULTS)
def test_of_two_faults_each_reader_names_the_one_it_reads_first(tmp_path, case):
    # tally_file reads 64 KiB at a time, parse_records 4096 lines
    data, by_bytes, by_lines = _TWO_FAULTS[case]
    path = tmp_path / "records.csv"
    path.write_bytes(data)
    result = _run(_TALLY, 2, path, 1 << 16)
    assert result["forked"][0] == result["parsed"][0] == "IngestError"
    assert result["forked"][1].startswith(f"{path}: {by_bytes}")
    assert result["parsed"][1].startswith(f"{path}: {by_lines}")
    assert result["serial"] == result["parsed"]
    assert not result["unreaped"]


def test_a_part_starting_with_a_byte_order_mark_is_not_cut_there(tmp_path):
    # Where the second part would start, a line opens with U+FEFF: mid-file
    # it is part of the line, so this one is a data row that fails.
    text = (_HEADER + _rows(1000)).encode()
    cut = text.index(b"\n", len(text) // 2) + 1
    line = text[cut:text.index(b"\n", cut) + 1]
    marked = b"\xef\xbb\xbf#" + b"x" * (len(line) - 5) + b"\n"
    path = tmp_path / "records.csv"
    path.write_bytes(text[:cut] + marked + text[cut + len(line):])
    result = _run(_TALLY, 2, path, 1 << 16)
    assert result["serial"][0] == "IngestError"
    assert (result["forked"], result["forks"]) == (result["serial"], 0)


def test_a_second_thread_keeps_the_count_in_one_process(tmp_path):
    path = tmp_path / "records.csv"
    path.write_bytes((_HEADER + _rows(1000)).encode())
    result = _run(_TALLY, 2, path, 1 << 16, "thread")
    assert result["forked"] == result["serial"]
    assert result["forks"] == 0


@pytest.mark.parametrize("cpus", [2, 3])
def test_every_records_entry_of_the_corpus_holds_forked(tmp_path, cpus):
    expected = json.loads(cli_corpus.GOLDEN.read_text(encoding="utf-8"))
    result = _run(_CORPUS, cpus, tmp_path)
    golden = {json.dumps(e["argv"]): e for e in expected}
    assert [golden[json.dumps(a["argv"])] for a in result["outcomes"]] == result["outcomes"]
    assert len(result["outcomes"]) == len(cli_corpus.RECORDS)
    assert result["forks"] > 0
    assert not result["unreaped"]
