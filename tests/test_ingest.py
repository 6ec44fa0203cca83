import builtins
import csv
import io
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path, PurePath

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import catlr.ingest
import catlr.records
from catlr.cli import run
from catlr.ingest import (
    _BLOCK_LINES,
    IngestError,
    _blocks,
    _read_input,
    _study_name,
    emit_aggregated,
    load_table,
    parse_aggregated,
)
from catlr.model import ConfusionTable, DataError, EvaluationRecord, GroundTruth
from catlr.records import _decoded, _source_lines, parse_records, tally, tally_csv, tally_file
from catlr.report import read_display_fixture
from catlr.simulate import RecordBatch, emit_records, load_profile

SAME = GroundTruth.SAME_SOURCE
DIFF = GroundTruth.DIFFERENT_SOURCE

RAW_HEADER = "examiner_id,item_id,ground_truth,statement"


class TestParseRecords:
    def test_single_row(self):
        records = parse_records(f"{RAW_HEADER}\nex1,item9,same,ID\n")
        assert records == [EvaluationRecord("ex1", "item9", SAME, "ID")]

    def test_empty_file_with_header(self):
        assert parse_records(f"{RAW_HEADER}\n") == []

    def test_truth_aliases_normalized(self):
        records = parse_records(
            f"{RAW_HEADER}\n"
            "e1,i1,mated,ID\n"
            "e2,i2,nonmated,ID\n"
            "e3,i3,different,Elim\n"
        )
        assert [r.truth for r in records] == [SAME, DIFF, DIFF]

    def test_unknown_truth_token_lists_allowed(self):
        with pytest.raises(IngestError, match="allowed tokens.*different.*same"):
            parse_records(f"{RAW_HEADER}\ne1,i1,maybe,ID\n")

    def test_malformed_row_names_line_number(self):
        with pytest.raises(IngestError, match="line 3"):
            parse_records(f"{RAW_HEADER}\ne1,i1,same,ID\ne2,i2\n")

    def test_comment_and_blank_lines_ignored(self):
        records = parse_records(
            f"# a comment\n{RAW_HEADER}\n\n   \ne1,i1,same,ID\n# trailing\n"
        )
        assert len(records) == 1

    def test_unknown_columns_ignored(self):
        records = parse_records(
            "examiner_id,item_id,ground_truth,statement,difficulty\n"
            "e1,i1,same,ID,hard\n"
        )
        assert records[0].statement == "ID"

    def test_column_order_taken_from_header(self):
        records = parse_records(
            "statement,ground_truth,item_id,examiner_id\nID,same,i1,e1\n"
        )
        assert records == [EvaluationRecord("e1", "i1", SAME, "ID")]

    def test_labels_trimmed_but_case_sensitive(self):
        records = parse_records(f"{RAW_HEADER}\ne1,i1,same,  ID \ne2,i2,same,id\n")
        assert records[0].statement == "ID"
        assert records[1].statement == "id"

    def test_missing_header_column(self):
        with pytest.raises(IngestError, match="ground_truth"):
            parse_records("examiner_id,item_id,statement\ne1,i1,ID\n")

    def test_empty_input(self):
        with pytest.raises(IngestError, match="empty input"):
            parse_records("")

    def test_quoted_field_with_comma(self):
        records = parse_records(f'{RAW_HEADER}\ne1,i1,same,"Incl, weak"\n')
        assert records[0].statement == "Incl, weak"

    def test_quoted_field_left_open_at_end_of_line(self):
        text = f'{RAW_HEADER}\ne1,i1,same,"ID\ne2,i2,same,X"\ne3,i3,same,ID\n'
        with pytest.raises(IngestError, match="^line 3: a quoted field left open"):
            parse_records(text)

    def test_field_over_csv_limit_is_an_ingest_error(self):
        text = f"{RAW_HEADER}\ne1,i1,same,ID\ne2,i2,same,\"{'x' * 200_000}\"\n"
        with pytest.raises(IngestError, match="^line 3: field larger than field limit"):
            parse_records(text)


# Comment, blank and whitespace lines come before the bad row, which is line 7.
_PREAMBLE = f"# study export\n\n{RAW_HEADER}\n# note, with \"quote\n  \ne1,i1,same,ID\n"
_ROW_ERRORS = [
    ("e9,i9,same", "line 7: expected at least 4 fields, got 3"),
    (
        "e9,i9, Maybe ,ID",
        "line 7: unknown ground-truth token 'maybe'; "
        "allowed tokens: different, mated, nonmated, same",
    ),
    ("e9,i9,same,  ", "line 7: empty statement label"),
]


class TestRowErrorLines:
    @pytest.mark.parametrize("bad, message", _ROW_ERRORS)
    @pytest.mark.parametrize("read", [parse_records, tally_csv])
    @pytest.mark.parametrize("as_file", [False, True], ids=["text", "file"])
    def test_error_names_physical_line(self, bad, message, read, as_file):
        text = f"{_PREAMBLE}{bad}\ne2,i2,different,ID\n"
        with pytest.raises(IngestError) as info:
            read(io.StringIO(text) if as_file else text)
        assert str(info.value) == message

    @pytest.mark.parametrize("read", [parse_records, tally_csv])
    def test_row_short_of_a_last_column_outside_truth_and_statement(self, read):
        text = "ground_truth,statement,item_id,examiner_id\nsame,ID,i1,e1\nsame,ID,i2\n"
        with pytest.raises(IngestError) as info:
            read(text)
        assert str(info.value) == "line 3: expected at least 4 fields, got 3"

    @pytest.mark.parametrize("read", [parse_records, tally_csv])
    def test_line_numbers_hold_over_many_thousand_lines(self, read):
        lines = [RAW_HEADER]
        for n in range(12_000):
            lines.append(f"e1,i{n},same,ID")
            if n % 7 == 0:
                lines.append("# comment")
            if n % 11 == 0:
                lines.append("")
        lines.append("e1,ix,maybe,ID")
        with pytest.raises(IngestError, match=f"^line {len(lines)}: unknown"):
            read(io.StringIO("\n".join(lines) + "\n"))


class TestTallyCsv:
    def test_equals_tally_of_parsed_records(self):
        text = (
            f"# head\n{RAW_HEADER}\ne1,i1,nonmated,B\ne2,i2, SAME ,A\n\n"
            'e3,i3,different," B "\ne4,i4,mated,B\n'
        )
        expected = tally(parse_records(text), study_name="s")
        table = tally_csv(io.StringIO(text), study_name="s")
        assert table == expected
        assert table.study_name == "s"
        assert table.categories == ("B", "A")

    def test_header_only_has_no_categories(self):
        with pytest.raises(DataError, match="zero records"):
            tally_csv(f"{RAW_HEADER}\n")

    def test_form_feed_in_a_label_is_counted_from_a_string_too(self):
        text = f"{RAW_HEADER}\ne1,i1,same,ID\x0cx\ne2,i2,different,ID\n"
        table = tally_csv(text)
        assert table.categories == ("ID\x0cx", "ID")
        assert table == tally_csv(io.StringIO(text, newline=None))

    @settings(max_examples=100, deadline=None)
    @given(
        cells=st.lists(
            st.sampled_from(
                ["e1", "same", "mated", "different", "ID", " A ", '"B', 'C"', "", "#"]
            ),
            max_size=30,
        ),
        breaks=st.lists(
            st.sampled_from(
                [",", ",", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1e", "\x85"]
                + ["\u2028", "\u2029", " "]
            ),
            min_size=30,
            max_size=30,
        ),
    )
    def test_a_string_reads_as_an_open_file_does(self, cells, breaks):
        body = "".join(cell + sep for cell, sep in zip(cells, breaks))
        text = f"{RAW_HEADER}\n{body}"
        assert _outcome(tally_csv, text) == _outcome(
            tally_csv, io.StringIO(text, newline=None)
        )
        assert _outcome(parse_records, text) == _outcome(
            parse_records, io.StringIO(text, newline=None)
        )


def _outcome(read, source):
    """What ``read(source)`` returns, or the type and message of what it raises."""
    try:
        return read(source)
    except Exception as exc:  # the outcome under comparison
        return type(exc), str(exc)


# Some examiner ids start a data line below "$" or at "\x85" and above, where
# the block filter strips every line instead of keeping the block whole
_EXAMINERS = ("e1", "!e2", " e3", '"e,4"', "\xe94")
_LABELS = ("ID", '"Incl, A"', " Incl. B ", '"ID"', "Elim")
_JUNK = ("# comment", "", "   ", "  # indented", '# a "quote, left open', "\xa0# a,b,c,d", "\u3000")
_FAULTS = (
    {"statement": "  "},
    {"ground_truth": " Maybe "},
    {"statement": '"ID'},
    {"statement": f'"{"x" * 140_000}"'},
    {"statement": '"ID" x'},  # not a fault: the csv module reads the field as 'ID x'
    {},  # with the last field dropped: a short row
)


@st.composite
def records_lines(draw):
    """Lines of raw-records text over more than one block, with at most one fault.

    Columns come in any order.  The fault sits at the edge of the first
    block, just after the header or on the last line; comment, blank and
    whitespace lines fall anywhere.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    order = draw(st.permutations(RAW_HEADER.split(",")))

    def line(cells):
        return ",".join(cells[name] for name in order) + "\n"

    lines = [line({name: name for name in order})]
    for n in range(_BLOCK_LINES + 8):
        truth = rng.choice(_TRUTH_SPELLINGS[rng.choice((SAME, DIFF))])
        cells = {"examiner_id": rng.choice(_EXAMINERS), "item_id": f"i{n}"}
        lines.append(line({**cells, "ground_truth": truth, "statement": rng.choice(_LABELS)}))
    for junk in draw(st.lists(st.sampled_from(_JUNK), max_size=4)):
        lines.insert(rng.randrange(len(lines) + 1), junk + "\n")
    fault = draw(st.sampled_from((None, *_FAULTS)))
    if fault is not None:
        cells = {"examiner_id": "e9", "item_id": "i9", "ground_truth": "same", "statement": "ID"}
        bad = line({**cells, **fault})
        if not fault:
            bad = bad[: bad.rindex(",")] + "\n"
        # physical line numbers: the first block ends at line _BLOCK_LINES
        at = draw(st.sampled_from((2, _BLOCK_LINES - 1, _BLOCK_LINES, _BLOCK_LINES + 1, None)))
        lines.insert(len(lines) if at is None else at - 1, bad)
    return lines


class TestTallyCsvDifferential:
    @settings(max_examples=40, deadline=None)
    @given(lines=records_lines())
    def test_equals_tally_of_parsed_records_including_errors(self, lines):
        text = "".join(lines)
        expected = _outcome(lambda t: tally(parse_records(t)), text)
        assert _outcome(tally_csv, text) == expected
        assert _outcome(tally_csv, io.StringIO(text)) == expected
        assert _outcome(tally_csv, (line for line in lines)) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(
            st.sampled_from(
                (*_JUNK, "\x1c# c", "\x85", "e1,i1,same,ID", "\xe9,i,same,ID", "\u0100,i", "$")
            ),
            max_size=12,
        )
    )
    def test_blocks_keep_the_lines_that_are_not_blank_once_stripped_nor_comments(self, lines):
        kept = [(n, line) for numbers, block in _blocks(lines) for n, line in zip(numbers, block)]
        assert kept == [
            (n, line)
            for n, line in enumerate(lines, start=1)
            if line.strip() and not line.strip().startswith("#")
        ]
        # the bytes reader of tally_csv keeps the same lines, of a caller's
        # lines and of their text
        for source in (lines, "".join(f"{line}\n" for line in lines)):
            by_bytes = [_decoded(block) for block in _source_lines(source)]
            assert [
                (n, line.rstrip("\n")) for numbers, block in by_bytes for n, line in zip(numbers, block)
            ] == kept

    @pytest.mark.parametrize(
        "header, line",
        [
            ("examiner_id,item_id,ground_truth,statement\n", "e{n},i{n}\ud800,same,ID\n"),
            ("ground_truth,statement,item_id,examiner_id\n", "same,ID,i{n}\ud800,e\n"),
        ],
        ids=["tail-tier", "declined"],
    )
    def test_a_lone_surrogate_outside_the_pair_reads_as_parse_records_reads_it(self, header, line):
        # the bytes reader encodes a str with each lone surrogate kept as itself
        text = header + "".join(line.format(n=n) for n in range(_BLOCK_LINES + 9))
        expected = tally(parse_records(text))
        assert tally_csv(text) == tally_csv(text.splitlines(True)) == expected

    @pytest.mark.parametrize(
        "lines",
        [
            [f"{RAW_HEADER}\n", 'e,"a\rb",same,ID\n', "e2,i2,different,X\n"],
            [f"{RAW_HEADER}\n", 'e,"a\nb",same,ID\n', "e2,i2,different,X\n"],
            [f"{RAW_HEADER}\n", "e\nx,i,same,ID\n", "e2,i2,different,X\n"],
            [f"{RAW_HEADER}\n", "e\rx,i,same,ID\n", "e2,i2,different,X\n"],
            [f"{RAW_HEADER}\n", "e1,i1,same,ID", "e2,i2,different,X\n"],
            [f"\ufeff{RAW_HEADER}\n", "\x1c# c,d\n", "e1,i1,same,ID\n"],
            [f"{RAW_HEADER}\r\n", "e1,i1,same,ID\r\n", "e2,i2,different,X\r\n"],
            [f"{RAW_HEADER}\r", "e1,i1,same,ID\r", "e2,i2,different,X\r"],
        ],
        ids=[
            "quoted-cr-in-an-id",
            "quoted-lf-in-an-id",
            "unquoted-lf-in-a-prefix-cell",
            "unquoted-cr-in-a-prefix-cell",
            "no-line-end-before-the-next-line",
            "byte-order-mark-then-a-comment-led-by-x1c",
            "crlf",
            "lone-cr",
        ],
    )
    def test_a_callers_lines_are_kept_as_given(self, lines):
        # each line is one line of the csv reader, whatever it holds
        expected = _outcome(lambda s: tally(parse_records(s)), lines)
        assert _outcome(tally_csv, lines) == expected
        if lines[1][1] in "\r\n":  # both line ends fail alike
            assert expected[0] is IngestError
            assert expected[1].startswith("line 2: new-line character seen in unquoted field")

    @pytest.mark.parametrize("at", [_BLOCK_LINES, None], ids=["block-end", "input-end"])
    def test_quoted_field_left_open_on_the_last_line_of_a_block(self, at):
        lines = [f"{RAW_HEADER}\n"] + [f"e{n},i{n},same,ID\n" for n in range(_BLOCK_LINES + 9)]
        lines.insert(len(lines) if at is None else at - 1, 'e9,i9,same,"ID\n')
        text = "".join(lines)
        expected = _outcome(lambda t: tally(parse_records(t)), text)
        assert _outcome(tally_csv, text) == expected
        where = "left open on an earlier line ends here" if at else "is still open at the end"
        assert expected[0] is IngestError and where in expected[1]

    def test_header_after_a_block_of_nothing_but_comments(self):
        text = "# comment\n\n" * _BLOCK_LINES + f"{RAW_HEADER}\ne1,i1,same,ID\ne2,i2,different,X\n"
        expected = ConfusionTable(("ID", "X"), (1, 0), (0, 1))
        assert tally_csv(text) == tally(parse_records(text)) == expected
        bad = text.replace("different,X", "maybe,X")
        fault = (
            IngestError,
            f"line {2 * _BLOCK_LINES + 3}: unknown ground-truth token 'maybe'; "
            "allowed tokens: different, mated, nonmated, same",
        )
        assert _outcome(tally_csv, bad) == _outcome(parse_records, bad) == fault

    def test_header_left_open_across_a_block_end(self):
        # the header is the first block's last data line; its quote closes in the next
        text = "# comment\n" * (_BLOCK_LINES - 1) + f'{RAW_HEADER[:-len("statement")]}"statement\n'
        text += 'e1,i1,same,ID"\n' + "e2,i2,same,ID\n" * 3
        fault = (
            IngestError,
            f"line {_BLOCK_LINES + 1}: a quoted field left open on an earlier line ends "
            "here; quoted fields must close on their own line",
        )
        assert _outcome(tally_csv, text) == _outcome(parse_records, text) == fault

    def test_valid_input_never_enters_the_checked_scan(self, monkeypatch):
        lines = [f"# export\n{RAW_HEADER}\n"]
        for n in range(3 * _BLOCK_LINES):
            if n % 1000 == 0:
                lines.append("# block\n\n")
            label = ('"Incl, A"', " Elim ", "ID")[n % 3]
            lines.append(f"e{n % 7},i{n},{('mated', 'different', 'SAME')[n % 4 % 3]},{label}\n")
        text = "".join(lines)
        expected = tally(parse_records(text))

        def checked_scan(rows, columns, scan=catlr.records._checked_records):
            for _ in scan(rows, columns):
                raise AssertionError("a row of valid input reached the checked scan")
            yield from ()

        monkeypatch.setattr(catlr.records, "_checked_records", checked_scan)
        assert tally_csv(io.StringIO(text)) == expected
        assert tally_csv(text) == expected


# The benchmark's layout: the pair after three other columns, so each line's
# tail is the text after its third comma
_TIER_HEADER = "item_id,examiner_id,session,statement,ground_truth,notes\n"
_TIER_LABELS = ('"ID"', '"Inconclusive, A"', " Elimination ", "Unsuitable")


def _tier_lines(n=2 * _BLOCK_LINES + 50):
    """Benchmark-shaped raw-records lines: reordered and extra columns, quoted
    labels with commas, aliases, padded labels and comments."""
    lines = ["# export\n", _TIER_HEADER]
    for i in range(n):
        if i % 1000 == 0:
            lines.append(f"# block {i // 1000}\n\n")
        truth = ("same", "mated", "different", "nonmated")[i % 4]
        lines.append(f"it{i},ex{i % 37},s{i % 5},{_TIER_LABELS[i % 7 % 4]},{truth},n/a\n")
    return lines


# Lines whose text after the third comma reads as a valid pair, although the
# cut there is not where csv.reader splits the line, or the line is not data
_HAZARDS = {
    "quoted prefix cell with a comma, a fault": 'i1,"e,1",s1,same,ID,n\n',
    "quoted prefix cell with a comma, valid": 'i1,"e,1",s1,ID,same,n\n',
    "CR in the prefix": "i1,e\r1,s1,ID,same,n\n",
    "LF in the prefix": "i1,e\n1,s1,ID,same,n\n",
    "prefix field over the field limit": f"i1,{'e' * 140_000},s1,ID,same,n\n",
    "comment": "# x,y,z,ID,same,n\n",
    "indented comment": "  # x,y,z,ID,same,n\n",
}


# Layouts the tail tier declines, as (header, skip, line of row i): with the
# pair first every tail is a whole line, so the tails outgrow the cache in the
# second block; a quoted prefix cell holding a comma moves the cut into it
_DECLINED = {
    "pair first": (
        "ground_truth,statement,examiner_id,item_id\n",
        0,
        lambda i, truth, label: f"{truth},{label},ex{i % 37},item{i}\n",
    ),
    "quoted prefix cell": (
        "examiner_id,item_id,ground_truth,statement\n",
        2,
        lambda i, truth, label: f'"Lab {i % 3}, ex{i % 37:02d}",item{i},{truth},{label}\n',
    ),
}


def _sources(lines):
    """Makers of ``lines`` as a string, an open file and a generator of the items."""
    text = "".join(lines)
    return {
        "text": lambda: text,
        "file": lambda: io.StringIO(text),
        "generator": lambda: (line for line in lines),
    }


@pytest.fixture
def reader_calls(monkeypatch):
    """The number of csv.reader calls made so far, as a one-item list."""
    calls = [0]
    reader = csv.reader

    def counting(*args, **kwargs):
        calls[0] += 1
        return reader(*args, **kwargs)

    monkeypatch.setattr(csv, "reader", counting)
    return calls


@pytest.fixture
def field_limit():
    """Restores the csv module's field size limit after the test."""
    limit = csv.field_size_limit()
    yield limit
    csv.field_size_limit(limit)


class TestTailTier:
    @pytest.mark.parametrize("source", ["text", "file", "generator"])
    @pytest.mark.parametrize("hazard", list(_HAZARDS))
    # physical line numbers: the first block ends at line _BLOCK_LINES
    @pytest.mark.parametrize("at", [3, _BLOCK_LINES, _BLOCK_LINES + 1, None])
    def test_hazard_in_a_column_before_the_pair(self, hazard, at, source):
        lines = _tier_lines()
        lines.insert(len(lines) if at is None else at - 1, _HAZARDS[hazard])
        make = _sources(lines)[source]
        expected = _outcome(lambda s: tally(parse_records(s)), make())
        assert _outcome(tally_csv, make()) == expected
        if "comment" in hazard:
            assert expected == tally(parse_records("".join(_tier_lines())))

    @pytest.mark.parametrize("source", ["text", "file", "generator"])
    @pytest.mark.parametrize(
        "where", [(_BLOCK_LINES,), (_BLOCK_LINES, _BLOCK_LINES + 2), (_BLOCK_LINES + 1,)]
    )
    def test_tail_first_seen_at_a_block_edge(self, where, source):
        lines = _tier_lines()
        for at in where:
            lines.insert(at - 1, "i1,e1,s1, Rare ,different,n\n")
        make = _sources(lines)[source]
        table = tally_csv(make())
        assert table == tally(parse_records(make()))
        assert table.different_source[table.categories.index("Rare")] == len(where)

    @pytest.mark.parametrize("source", ["text", "file", "generator"])
    def test_benchmark_shaped_input_is_counted_by_tails_alone(self, source, reader_calls):
        lines = _tier_lines(3 * _BLOCK_LINES)
        make = _sources(lines)[source]
        expected = tally(parse_records(make()))
        data = [line for line in lines[2:] if line.strip() and not line.startswith("#")]
        tails = {line.split(",", 3)[3] for line in data}
        reader_calls[0] = 0
        assert tally_csv(make()) == expected
        # one reader for the header, then one per distinct tail, none per block
        assert reader_calls[0] <= 1 + len(tails)

    def test_field_limit_is_read_at_call_time(self, reader_calls, field_limit):
        lines = _tier_lines()
        expected = tally(parse_records("".join(lines)))
        # each block's prefixes together exceed the limit, but no line does
        csv.field_size_limit(1000)
        reader_calls[0] = 0
        assert tally_csv("".join(lines)) == expected
        assert reader_calls[0] <= 1 + 4 * len(_TIER_LABELS)
        lines.insert(_BLOCK_LINES + 5, f"i1,{'e' * 1001},s1,ID,same,n\n")
        text = "".join(lines)
        fault = _outcome(parse_records, text)
        assert _outcome(tally_csv, text) == fault
        assert fault[0] is IngestError and fault[1].endswith(": field larger than field limit (1000)")

    @pytest.mark.parametrize("source", ["text", "file", "generator"])
    @pytest.mark.parametrize("layout", list(_DECLINED))
    def test_declined_layout_is_counted_by_one_scan(
        self, layout, source, reader_calls, monkeypatch
    ):
        header, skip, line = _DECLINED[layout]
        lines = [header] + [
            line(i, ("same", "mated", "different", "nonmated")[i % 4], _TIER_LABELS[i % 7 % 4])
            for i in range(3 * _BLOCK_LINES)
        ]
        make = _sources(lines)[source]
        expected = tally(parse_records(make()))
        first_block_tails = {row.split(",", skip)[skip] for row in lines[1:_BLOCK_LINES]}
        offered, declined = [], []

        def counting_tail_counts(blocks, columns, tail_counts=catlr.records._tail_counts):
            def offering():
                for block in blocks:
                    offered.append(block)
                    yield block

            counts, block = tail_counts(offering(), columns)
            declined.append(block)
            return counts, block

        monkeypatch.setattr(catlr.records, "_tail_counts", counting_tail_counts)
        reader_calls[0] = 0
        assert tally_csv(make()) == expected
        # the header's reader, one per tail of the first block, then one scan
        assert reader_calls[0] <= 1 + len(first_block_tails) + 1
        # no block after the first one declined is offered to the tail tier
        assert declined == [offered[-1]] and offered[-1] is not None


class TestTally:
    def test_one_record_each_truth(self):
        records = [
            EvaluationRecord("e1", "i1", SAME, "ID"),
            EvaluationRecord("e2", "i2", DIFF, "ID"),
        ]
        table = tally(records)
        assert table.categories == ("ID",)
        assert table.same_source == (1,)
        assert table.different_source == (1,)

    def test_reproduces_bullets_from_expanded_records(self, bullets):
        records = []
        for truth in (SAME, DIFF):
            for label, count in zip(bullets.categories, bullets.row(truth)):
                records.extend(
                    EvaluationRecord("e", f"i{truth.value}{label}{j}", truth, label)
                    for j in range(count)
                )
        assert tally(records) == bullets

    def test_matches_naive_counting_oracle(self):
        rng = random.Random(42)
        categories = ("A", "B", "C")
        records = [
            EvaluationRecord(
                f"e{rng.randrange(20)}",
                f"i{n}",
                rng.choice((SAME, DIFF)),
                rng.choice(categories),
            )
            for n in range(10_000)
        ]
        table = tally(records, vocabulary=categories)
        # independent naive second pass
        for truth in (SAME, DIFF):
            for k, label in enumerate(categories):
                naive = sum(
                    1 for r in records if r.truth is truth and r.statement == label
                )
                assert table.row(truth)[k] == naive

    def test_cell_sum_equals_record_count(self):
        rng = random.Random(7)
        records = [
            EvaluationRecord("e", f"i{n}", rng.choice((SAME, DIFF)), rng.choice("xyz"))
            for n in range(500)
        ]
        table = tally(records)
        assert table.total() == len(records)
        assert table.row_total(SAME) + table.row_total(DIFF) == len(records)

    def test_first_appearance_order(self):
        records = [
            EvaluationRecord("e", "i1", SAME, "zeta"),
            EvaluationRecord("e", "i2", DIFF, "alpha"),
            EvaluationRecord("e", "i3", SAME, "zeta"),
        ]
        assert tally(records).categories == ("zeta", "alpha")

    def test_vocabulary_keeps_zero_count_categories(self):
        records = [EvaluationRecord("e", "i1", SAME, "ID")]
        table = tally(records, vocabulary=("ID", "Elim"))
        assert table.categories == ("ID", "Elim")
        assert table.same_source == (1, 0)

    def test_record_outside_vocabulary_names_label(self):
        records = [EvaluationRecord("e", "i1", SAME, "Surprise")]
        with pytest.raises(DataError, match="Surprise"):
            tally(records, vocabulary=("ID",))

    def test_first_unknown_label_in_record_order_is_named(self):
        records = [
            EvaluationRecord("e", "i1", DIFF, "ID"),
            EvaluationRecord("e", "i2", DIFF, "Later"),
            EvaluationRecord("e", "i3", SAME, "Earlier"),
            EvaluationRecord("e", "i4", SAME, "Later"),
        ]
        with pytest.raises(DataError, match="'Later' is not in"):
            tally(records, vocabulary=("ID", "Earlier"))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from((SAME, DIFF)), st.sampled_from("abcdef")),
            max_size=40,
        ),
        st.booleans(),
    )
    def test_equals_explicit_per_record_loop(self, pairs, with_vocabulary):
        records = [
            EvaluationRecord("e", f"i{n}", truth, statement)
            for n, (truth, statement) in enumerate(pairs)
        ]
        vocabulary = tuple("fedcba") if with_vocabulary else None
        if vocabulary is None and not records:
            with pytest.raises(DataError):
                tally(records)
            return
        categories = list(vocabulary or ())
        same, different = {}, {}
        for record in records:
            if record.statement not in categories:
                categories.append(record.statement)
            row = same if record.truth is SAME else different
            row[record.statement] = row.get(record.statement, 0) + 1
        table = tally(records, vocabulary=vocabulary)
        assert table.categories == tuple(categories)
        assert table.same_source == tuple(same.get(c, 0) for c in categories)
        assert table.different_source == tuple(different.get(c, 0) for c in categories)

    def test_empty_records_need_vocabulary(self):
        with pytest.raises(DataError):
            tally([])
        table = tally([], vocabulary=("ID",))
        assert table.same_source == (0,)

    def test_shuffle_invariance_with_vocabulary(self):
        rng = random.Random(3)
        records = [
            EvaluationRecord("e", f"i{n}", rng.choice((SAME, DIFF)), rng.choice("abc"))
            for n in range(300)
        ]
        vocabulary = ("a", "b", "c")
        baseline = tally(records, vocabulary=vocabulary)
        for _ in range(5):
            rng.shuffle(records)
            assert tally(records, vocabulary=vocabulary) == baseline

    def test_shuffle_invariance_of_counts_without_vocabulary(self):
        # category *order* follows first appearance, so compare per-label counts
        rng = random.Random(4)
        records = [
            EvaluationRecord("e", f"i{n}", rng.choice((SAME, DIFF)), rng.choice("abc"))
            for n in range(300)
        ]
        baseline = tally(records)
        as_map = {
            c: (baseline.same_source[i], baseline.different_source[i])
            for i, c in enumerate(baseline.categories)
        }
        rng.shuffle(records)
        shuffled = tally(records)
        assert {
            c: (shuffled.same_source[i], shuffled.different_source[i])
            for i, c in enumerate(shuffled.categories)
        } == as_map


class TestTallyOfBatch:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 5)), max_size=40),
        st.sampled_from([None, tuple("fedcba"), ("b", "a")]),
    )
    def test_equals_tally_of_its_rows(self, rows, vocabulary):
        batch = RecordBatch(tuple("abcdef"), [t for t, _ in rows], [c for _, c in rows])
        try:
            expected = tally(list(batch), vocabulary=vocabulary)
        except DataError as exc:
            with pytest.raises(DataError) as info:
                tally(batch, vocabulary=vocabulary)
            assert str(info.value) == str(exc)
            return
        assert tally(batch, vocabulary=vocabulary) == expected

    @pytest.mark.parametrize("k", [128, 129, 256, 257, 300])
    def test_wide_vocabularies_count_and_write_as_their_rows(self, k):
        # up to 128 categories a row's truth * K + code is a byte, then a list
        # entry; over 256 the statement codes are an array, not bytes
        labels = tuple(f"c{j}" for j in range(k))
        batch = _random_batch(labels, 5000, k)
        assert type(batch.statement_codes.obj).__name__ == ("bytes" if k <= 256 else "array")
        assert tally(batch) == tally(list(batch))
        assert _first_difference(emit_records(batch), emit_records(list(batch))) is None

    def test_tally_of_a_list_loads_neither_simulate_nor_numpy(self):
        script = (
            "import sys\n"
            "from catlr.model import EvaluationRecord, GroundTruth\n"
            "from catlr.records import tally\n"
            "tally([EvaluationRecord('e1', 'i1', GroundTruth.SAME_SOURCE, 'ID')])\n"
            "print('catlr.simulate' in sys.modules, 'numpy' in sys.modules)\n"
        )
        src = str(Path(catlr.records.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.split() == ["False", "False"]


class TestParseAggregated:
    def test_bullets_fixture(self, bullets):
        assert bullets.categories == (
            "ID",
            "Inconcl.-A",
            "Inconcl.-B",
            "Inconcl.-C",
            "Elimination",
            "Other",
        )
        assert bullets.same_source == (1076, 127, 125, 36, 41, 24)
        assert bullets.different_source == (20, 268, 848, 745, 961, 49)

    def test_single_category(self):
        table = parse_aggregated(
            "statement,same_source_count,different_source_count\ns,1,1\n"
        )
        assert table.categories == ("s",)
        assert table.same_source == (1,)
        assert table.different_source == (1,)

    def test_negative_count_rejected(self):
        with pytest.raises(IngestError, match="negative"):
            parse_aggregated(
                "statement,same_source_count,different_source_count\ns,-3,1\n"
            )

    def test_duplicate_category_rejected(self):
        with pytest.raises(IngestError, match="duplicate"):
            parse_aggregated(
                "statement,same_source_count,different_source_count\ns,1,1\ns,2,2\n"
            )

    def test_non_integer_count_names_line(self):
        with pytest.raises(IngestError, match="line 3"):
            parse_aggregated(
                "statement,same_source_count,different_source_count\na,1,1\nb,two,1\n"
            )

    def test_wrong_header_rejected(self):
        with pytest.raises(IngestError) as raised:
            parse_aggregated("statement,same,different\ns,1,1\n")
        assert str(raised.value) == f"header statement,same,different {_NO_SCHEMA}"

    def test_header_only_rejected(self):
        with pytest.raises(IngestError, match="no category rows"):
            parse_aggregated("statement,same_source_count,different_source_count\n")


label_strategy = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .-()',\"/",
    min_size=1,
    max_size=12,
).filter(lambda s: s == s.strip())

table_strategy = st.lists(
    st.tuples(label_strategy, st.integers(0, 10_000), st.integers(0, 10_000)),
    min_size=1,
    max_size=6,
    unique_by=lambda row: row[0],
).map(
    lambda rows: ConfusionTable(
        tuple(r[0] for r in rows),
        tuple(r[1] for r in rows),
        tuple(r[2] for r in rows),
    )
)


class TestRoundTrips:
    @given(table=table_strategy)
    @settings(max_examples=150)
    def test_aggregated_round_trip(self, table):
        assert parse_aggregated(emit_aggregated(table)) == table

    @given(rows=st.lists(st.tuples(st.text(max_size=8), st.integers(0, 2**64), st.integers(0, 9)),
                         min_size=1, max_size=5))
    @example(rows=[(" a", 1, 2)])
    @example(rows=[("a\nb", 1, 2)])
    @example(rows=[("#a", 1, 2), ("b", 3, 4)])
    @settings(max_examples=200)
    def test_every_accepted_table_round_trips(self, rows):
        try:
            table = ConfusionTable(*zip(*rows))
        except DataError:
            assume(False)
        assert parse_aggregated(emit_aggregated(table)) == table

    def test_records_round_trip(self):
        rng = random.Random(11)
        records = [
            EvaluationRecord(
                f"ex{rng.randrange(5)}",
                f"item{n}",
                rng.choice((SAME, DIFF)),
                rng.choice(("ID", "Incl, weak", 'say "no"', "Elim")),
            )
            for n in range(200)
        ]
        assert parse_records(emit_records(records)) == records

    def test_records_with_hash_leading_ids_round_trip(self):
        records = [
            EvaluationRecord("#ex1", "#item1", SAME, "#1 pick"),
            EvaluationRecord("#ex2", "item2", DIFF, "Elim"),
        ]
        assert parse_records(emit_records(records)) == records
        # an id is trimmed on read, but its row is not lost as a comment
        padded = [EvaluationRecord("  #ex3", "item3", SAME, "ID")]
        assert [r.examiner_id for r in parse_records(emit_records(padded))] == ["#ex3"]

    def test_batch_round_trip(self):
        rng = np.random.default_rng(5)
        labels = ("ID", "Incl, weak", 'say "no"', "Elim")
        batch = RecordBatch(labels, rng.integers(0, 2, 300), rng.integers(0, 4, 300))
        assert list(batch) == parse_records(emit_records(batch))

    def test_batch_text_equals_text_of_its_rows(self):
        # rows in 71 chunks of 1000 item numbers
        rng = np.random.default_rng(6)
        n = 70_001
        batch = RecordBatch(('say "no"', "ID"), rng.integers(0, 2, n), rng.integers(0, 2, n))
        text = emit_records(batch)
        assert _first_difference(text, emit_records(list(batch))) is None
        buffer = io.StringIO()
        assert emit_records(batch, buffer) is None
        assert _first_difference(buffer.getvalue(), text) is None


def _random_batch(labels, n: int, seed: int) -> RecordBatch:
    rng = np.random.default_rng(seed)
    return RecordBatch(labels, rng.integers(0, 2, n), rng.integers(0, len(labels), n))


class TestBatchTemplate:
    """A batch is written in chunks of the 1000 item numbers that share
    their leading digits, each chunk one % over one prebuilt template; the
    text must equal that of the batch's row views, written row by row."""

    @pytest.mark.parametrize("n", [0, 1, 999, 1000, 1001, 63_999, 64_000, 64_001])
    def test_equals_row_text_at_chunk_edges(self, n):
        batch = _random_batch(("ID", "Elim"), n, n)
        assert _first_difference(emit_records(batch), emit_records(list(batch))) is None

    def test_equals_row_text_where_item_ids_grow_to_seven_digits(self):
        batch = _random_batch(("ID", "Elim"), 1_000_002, 3)
        lines = emit_records(batch).splitlines()
        assert len(lines) == 1 + len(batch)
        # line i + 1 holds row i; rows 999 998 .. 1 000 001 are items 999999 .. 1000002
        assert lines[999_999:] == emit_records(batch[999_998:]).splitlines()[1:]
        assert lines[-1].startswith("ex02,item1000002,")

    def test_labels_with_format_characters(self):
        labels = ("50% sure", "%s", "%(x)s", "{0}", "{}", 'say "no"', "a, b")
        batch = _random_batch(labels, 2500, 8)
        text = emit_records(batch)
        assert _first_difference(text, emit_records(list(batch))) is None
        assert parse_records(text) == list(batch)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=5, unique=True),
        st.integers(0, 3000),
        st.integers(0, 2**32 - 1),
    )
    def test_every_batch_reads_back(self, labels, n, seed):
        try:
            batch = _random_batch(labels, n, seed)
        except DataError:
            assume(False)
        assert parse_records(emit_records(batch)) == list(batch)


def _first_difference(text: str, expected: str) -> tuple[int, str, str] | None:
    """First differing line as (index, line, expected line); a failure then
    reports one line rather than a diff of megabytes."""
    lines, wanted = text.splitlines(), expected.splitlines()
    lines += [""] * (len(wanted) - len(lines))
    wanted += [""] * (len(lines) - len(wanted))
    return next(
        ((i, got, want) for i, (got, want) in enumerate(zip(lines, wanted)) if got != want),
        None,
    )


_TRUTH_SPELLINGS = {
    SAME: ("same", "mated", " Mated ", "SAME"),
    DIFF: ("different", "nonmated", "NonMated", " different"),
}
_COMMENTS = ("# comment", '# a "quote, left open', "", "   ", "  # indented")


@st.composite
def varied_records_csv(draw):
    """Records, and raw-records text for them with the accepted input variations.

    Comment and blank lines are injected, ground truth uses the aliases and
    other spellings, labels are padded or quoted.
    """
    pairs = draw(
        st.lists(st.tuples(st.sampled_from((SAME, DIFF)), label_strategy), min_size=1, max_size=25)
    )
    records = [
        EvaluationRecord(f"ex{n % 3}", f"item{n}", truth, label)
        for n, (truth, label) in enumerate(pairs)
    ]
    buffer = io.StringIO()
    buffer.write(f"{draw(st.sampled_from(_COMMENTS))}\n{RAW_HEADER}\n")
    for record in records:
        if draw(st.booleans()):
            buffer.write(draw(st.sampled_from(_COMMENTS)) + "\n")
        quoting = csv.QUOTE_ALL if draw(st.booleans()) else csv.QUOTE_MINIMAL
        label = draw(st.sampled_from((record.statement, f"  {record.statement} ")))
        token = draw(st.sampled_from(_TRUTH_SPELLINGS[record.truth]))
        csv.writer(buffer, lineterminator="\n", quoting=quoting).writerow(
            (record.examiner_id, record.item_id, token, label)
        )
    return records, buffer.getvalue()


class TestTallyCommandProperty:
    @settings(max_examples=60, deadline=None)
    @given(case=varied_records_csv())
    def test_cli_tally_equals_library_tally(self, tmp_path_factory, case):
        records, text = case
        path = tmp_path_factory.mktemp("tally") / "records.csv"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        assert run(["tally", "--in", str(path)], stdout=out, stderr=err) == 0
        assert out.getvalue() == emit_aggregated(tally(records))


AGGREGATED_HEADER = "statement,same_source_count,different_source_count"
_EXPECTED_SCHEMAS = f"expected {AGGREGATED_HEADER} or {RAW_HEADER}"
_NO_SCHEMA = f"matches no known schema; {_EXPECTED_SCHEMAS}"
_RAW_AS_TABLE = "header has the raw-records columns; tally such a file first with 'catlr tally'"
_AGGREGATED_FAULTS = (
    "s9,-3,1",
    "s9,two,1",
    " ,1,1",
    "s0,1,1",  # a duplicate of the first row's label
    "s9,1",
    "s9,1,1,1",
    '"s9,1,1',
    's9,1,"1',
    f's9,1,"{"1" * 140_000}"',
)
_AGGREGATED_LABELS = ("s{}", '"s,{}"', " s{} ", '"s""{}"', "\xe9{}")


@st.composite
def aggregated_lines(draw):
    """Lines, without their ends, of an aggregated table, with at most one fault.

    Comment, blank and whitespace lines fall anywhere, labels are padded or
    quoted, a table may span more than one block, the last line may end the
    text, and the fault may sit on any line after the header, the last included.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    size = draw(st.sampled_from((1, 3, _BLOCK_LINES + 4)))
    lines = [AGGREGATED_HEADER] + [
        f"{rng.choice(_AGGREGATED_LABELS).format(n)},{rng.randrange(50)},{rng.randrange(50)}"
        for n in range(size)
    ]
    for junk in draw(st.lists(st.sampled_from(_JUNK), max_size=4)):
        lines.insert(rng.randrange(len(lines) + 1), junk)
    fault = draw(st.sampled_from((None, *_AGGREGATED_FAULTS)))
    if fault is not None:
        # a physical line number after the header's, or the last line
        at = draw(st.sampled_from((2, _BLOCK_LINES, _BLOCK_LINES + 1, len(lines) + 1)))
        lines.insert(min(max(at - 1, lines.index(AGGREGATED_HEADER) + 1), len(lines)), fault)
    if draw(st.booleans()):
        lines.append("")  # the text ends in a line end
    return lines


class TestLoadTable:
    def test_loads_the_table_named_after_the_file(self, tmp_path, bullets):
        agg = tmp_path / "table.csv"
        agg.write_text(emit_aggregated(bullets), encoding="utf-8")
        table = load_table(agg)
        assert table == bullets
        assert table.study_name == "table"
        assert load_table(str(agg)).study_name == "table"

    @pytest.mark.parametrize(
        "text, message",
        [
            (f"# export\n{RAW_HEADER}\ne1,i1,same,ID\n", _RAW_AS_TABLE),
            ("ground_truth,statement,item_id,examiner_id,x\n", _RAW_AS_TABLE),
            ("colA, colB\n1,2\n", f"header colA,colB {_NO_SCHEMA}"),
            (
                "statement,same_source_count\ns,1\n",
                f"header statement,same_source_count {_NO_SCHEMA}",
            ),
            ("", f"no header line found; {_EXPECTED_SCHEMAS}"),
            ("# comment\n\n   \n", f"no header line found; {_EXPECTED_SCHEMAS}"),
        ],
        ids=["raw", "raw-reordered", "unknown", "short", "empty", "comments-only"],
    )
    def test_header_messages_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(IngestError) as raised:
            load_table(path)
        assert str(raised.value) == f"{path}: {message}"
        with pytest.raises(IngestError) as raised:
            parse_aggregated(text)
        assert str(raised.value) == message

    def test_load_of_the_wrong_kind_reads_only_the_header_block(self, tmp_path):
        # bytes that are not UTF-8 far past the header are never decoded
        raw = tmp_path / "records.csv"
        rows = b"".join(b"e1,i%d,same,ID\n" % n for n in range(20_000))
        raw.write_bytes(b"examiner_id,item_id,ground_truth,statement\n" + rows + b"\xff\n")
        with pytest.raises(IngestError) as raised:
            load_table(raw)
        assert str(raised.value) == f"{raw}: {_RAW_AS_TABLE}"

    def test_a_row_fault_is_named_before_later_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "table.csv"
        # the bad bytes lie beyond the first block and the file reads that decode it
        rows = b"".join(b"s%d,1,2\n" % n for n in range(2 * _BLOCK_LINES))
        path.write_bytes(f"{AGGREGATED_HEADER}\ns,x,1\n".encode() + rows + b"\xff,1,1\n")
        with pytest.raises(IngestError) as raised:
            load_table(path)
        assert str(raised.value) == f"{path}: line 2: count 'x' is not an integer"

    def test_opens_the_file_once(self, tmp_path, bullets, monkeypatch):
        agg = tmp_path / "table.csv"
        agg.write_text(emit_aggregated(bullets), encoding="utf-8")
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return real_open(*args, **kwargs)

        real_open = builtins.open
        monkeypatch.setattr(builtins, "open", counting_open)
        assert load_table(agg) == bullets
        assert opened == [agg]

    @settings(max_examples=40, deadline=None)
    @given(lines=aggregated_lines(), newline=st.sampled_from(("\n", "\r\n", "\r")))
    def test_equals_parse_aggregated_of_the_text_including_errors(
        self, tmp_path_factory, lines, newline
    ):
        text = newline.join(lines)
        path = tmp_path_factory.mktemp("load") / "study.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(lambda t: parse_aggregated(t, study_name="study"), text)
        if not isinstance(expected, ConfusionTable):
            expected = (expected[0], f"{path}: {expected[1]}")
        outcome = _outcome(load_table, path)
        assert outcome == expected
        if isinstance(outcome, ConfusionTable):
            assert outcome.study_name == "study"


class TestReadInput:
    def test_reads_the_lines_with_a_byte_order_mark_skipped(self, tmp_path):
        # the file decodes as plain UTF-8; the reader drops the one leading mark
        path = tmp_path / "input.csv"
        path.write_bytes(b"\xef\xbb\xbfa\nb\n")
        assert _read_input(path, list) == ["\ufeffa\n", "b\n"]
        def lines(text):
            return [line for _, block in _blocks(text) for line in block]

        assert _read_input(path, lines) == ["a\n", "b\n"]

    @pytest.mark.parametrize("error", [DataError, IngestError])
    def test_a_data_error_keeps_its_type_and_names_the_file(self, tmp_path, error):
        path = tmp_path / "input.csv"
        path.write_text("a\n", encoding="utf-8")

        def read(lines):
            raise error("line 1: bad")

        with pytest.raises(DataError) as raised:
            _read_input(path, read)
        assert type(raised.value) is error
        assert str(raised.value) == f"{path}: line 1: bad"

    def test_bytes_that_are_not_utf8_are_an_ingest_error_naming_the_file(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_bytes(b"a\n\xff\n")
        with pytest.raises(IngestError) as raised:
            _read_input(path, list)
        assert str(raised.value) == f"{path}: not valid UTF-8 (invalid start byte)"

    def test_a_missing_file_is_the_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            _read_input(tmp_path / "missing.csv", list)

    def test_tally_file_names_the_table_and_its_errors_after_the_file(self, tmp_path):
        path = tmp_path / "study.csv"
        path.write_text(f"{RAW_HEADER}\ne1,i1,same,ID\n", encoding="utf-8")
        assert tally_file(path).study_name == "study"
        path.write_text(f"{RAW_HEADER}\ne1,i1,maybe,ID\n", encoding="utf-8")
        with pytest.raises(IngestError, match=f"^{re.escape(str(path))}: line 2: unknown"):
            tally_file(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_tally_reads_a_fifo_as_it_reads_a_regular_file(self, tmp_path):
        # a FIFO's size reads as 0, so it is counted in one process by its
        # own reads; the rows are more than a pipe holds at once
        rows = (f"e{n},i{n},{('same', 'different')[n % 3 > 0]},L{n % 5}\n" for n in range(20000))
        data = f"{RAW_HEADER}\n{''.join(rows)}".encode("utf-8")
        regular, fifo = tmp_path / "records.csv", tmp_path / "fifo.csv"
        regular.write_bytes(data)
        os.mkfifo(fifo)
        expected = io.StringIO()
        assert run(["tally", "--in", str(regular)], stdout=expected) == 0

        def write():
            with open(fifo, "wb") as pipe:
                pipe.write(data)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        out = io.StringIO()
        try:
            assert run(["tally", "--in", str(fifo)], stdout=out) == 0
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert out.getvalue() == expected.getvalue()


_STILL_OPEN = (
    "a quoted field is still open at the end of the input; "
    "quoted fields must close on their own line"
)
_ENDS = ("", "\n", "\n# trailing comment\n\n")  # what follows the last data line


def _via_file(tmp_path, read):
    """``read`` applied to an open file of the text, rather than to the text."""

    def read_file(text):
        path = tmp_path / "input.csv"
        path.write_text(text, encoding="utf-8")
        with open(path, encoding="utf-8") as lines:
            return read(lines)

    return read_file


class TestQuotedFieldOpenAtTheEnd:
    @pytest.mark.parametrize("end", _ENDS, ids=["bare", "newline", "comment"])
    @pytest.mark.parametrize("as_file", [False, True], ids=["text", "file"])
    @pytest.mark.parametrize(
        "read, text",
        [
            (parse_records, f'{RAW_HEADER}\ne1,i1,same,ID\n# c\ne2,i2,same,"ID'),
            (tally_csv, f'{RAW_HEADER}\ne1,i1,same,ID\n# c\ne2,i2,same,"ID'),
            (parse_aggregated, f'{AGGREGATED_HEADER}\nA,1,2\n# c\nID,3,"4'),
            (read_display_fixture, 'name,lr\nA,1\n# c\nB,"2'),
        ],
        ids=["parse_records", "tally_csv", "parse_aggregated", "read_display_fixture"],
    )
    def test_is_an_error_naming_the_last_data_line(self, tmp_path, read, text, as_file, end):
        with pytest.raises(IngestError) as raised:
            (_via_file(tmp_path, read) if as_file else read)(text + end)
        assert str(raised.value) == f"line 4: {_STILL_OPEN}"

    @pytest.mark.parametrize("end", _ENDS, ids=["bare", "newline", "comment"])
    def test_load_table(self, tmp_path, end):
        path = tmp_path / "table.csv"
        path.write_text(f'{AGGREGATED_HEADER}\nA,1,2\n# c\nID,3,"4{end}', encoding="utf-8")
        with pytest.raises(IngestError) as raised:
            load_table(path)
        assert str(raised.value) == f"{path}: line 4: {_STILL_OPEN}"

    @pytest.mark.parametrize("read", [parse_records, tally_csv])
    def test_the_header_line_too(self, read):
        with pytest.raises(IngestError) as raised:
            read(f'{RAW_HEADER[:-len("statement")]}"statement')
        assert str(raised.value) == f"line 1: {_STILL_OPEN}"

    @pytest.mark.parametrize("read", [parse_records, tally_csv])
    def test_a_block_of_comments_after_a_row_left_open(self, read):
        text = f'{RAW_HEADER}\ne1,i1,same,"ID\ne2,i2,same,ID\n' + "# c\n" * (_BLOCK_LINES + 1)
        with pytest.raises(IngestError) as raised:
            read(text)
        assert str(raised.value) == (
            "line 3: a quoted field left open on an earlier line ends here; "
            "quoted fields must close on their own line"
        )


class TestLeadingByteOrderMark:
    """Each reader skips one U+FEFF at the start of a string, of the first of
    an iterable's lines, or of a file, which is decoded as plain UTF-8."""

    @pytest.mark.parametrize("as_lines", [False, True], ids=["string", "lines"])
    @pytest.mark.parametrize(
        "read, text",
        [
            (parse_records, f"{RAW_HEADER}\ne1,i1,same,ID\ne2,i2,different,Elim\n"),
            (tally_csv, f"{RAW_HEADER}\ne1,i1,same,ID\ne2,i2,different,Elim\n"),
            (parse_aggregated, f"{AGGREGATED_HEADER}\nID,30,2\nElim,4,50\n"),
            (read_display_fixture, "study,LR\nbullets,109\n"),
        ],
        ids=["parse_records", "tally_csv", "parse_aggregated", "read_display_fixture"],
    )
    def test_is_skipped(self, read, text, as_lines):
        def source(text):
            return iter(text.splitlines(keepends=True)) if as_lines else text

        assert read(source("\ufeff" + text)) == read(source(text))

    @pytest.mark.parametrize("marks", [1, 2], ids=["one mark", "two marks"])
    @pytest.mark.parametrize(
        "read_file, read_text, text",
        [
            (
                load_table,
                lambda t: parse_aggregated(t, "study"),
                f"{AGGREGATED_HEADER}\nID,30,2\n",
            ),
            (tally_file, lambda t: tally_csv(t, "study"), f"{RAW_HEADER}\ne1,i1,same,ID\n"),
            (
                lambda path: _read_input(path, load_profile),
                load_profile,
                "[profile]\ncategories = A, B\np_given_h1 = 0.5, 0.5\n"
                "p_given_h2 = 0.25, 0.75\nn_h1 = 3\nn_h2 = 4\n",
            ),
        ],
        ids=["table", "records", "profile"],
    )
    def test_a_file_reads_as_its_text(self, tmp_path, read_file, read_text, text, marks):
        # one mark is skipped; a second one is part of the first line, in a
        # file as in its text, and the file's error names it
        path = tmp_path / "study.csv"
        path.write_bytes(("\ufeff" * marks + text).encode("utf-8"))
        expected = _outcome(read_text, "\ufeff" * marks + text)
        if type(expected) is tuple:
            expected = (expected[0], f"{path}: {expected[1]}")
        assert _outcome(read_file, path) == expected
        assert (expected == read_text(text)) == (marks == 1)


class TestStudyName:
    @pytest.mark.parametrize(
        "name", ["a.csv", "a", ".hidden", "a.", "a..", "a.b.csv", "d/a.csv", "d.x/a"]
    )
    def test_is_the_stem_of_the_file_name(self, name):
        # a PurePath is an os.PathLike
        assert _study_name(name) == _study_name(PurePath(name)) == PurePath(name).stem


_EDGE_HEADER = "item_id,examiner_id,session,statement,ground_truth\n"


def _edge_text(*middle: str) -> str:
    """Raw-records text in the tail tier's layout, ``middle`` amid its rows."""
    rows = [
        f"it{n},ex{n % 3},s{n % 2},{_TIER_LABELS[n % 4]},{('same', 'nonmated')[n % 2]}\n"
        for n in range(12)
    ]
    return _EDGE_HEADER + "".join(rows[:6]) + "".join(middle) + "".join(rows[6:])


# name -> records text, read below in chunks of sizes that put a chunk edge
# at or just before each character of the lines of interest
_EDGE_CASES = {
    "a line several chunks long": _edge_text(f"it1,{'e' * 150},s1,ID,same\n"),
    "comment and blank lines": _edge_text("# c,d,e,f\n", "\n", "   \n", "  # x,y\n"),
    "crlf": _edge_text().replace("\n", "\r\n"),
    "lone cr": _edge_text().replace("\n", "\r"),
    "no final line feed": _edge_text().rstrip("\n"),
    "byte-order mark": "\ufeff" + _edge_text(),
    "a quote in a prefix": _edge_text('it1,e"1,s1,ID,same\n'),
    "a quoted prefix cell": _edge_text('it1,"e,1",s1,same,ID\n'),
    "a NUL in a prefix": _edge_text("it1,e\x001,s1,ID,same\n"),
    "a quoted field across lines": _edge_text('it1,e1,s1,"I\nD",same\n'),
    "other line boundaries": _edge_text("it1,e\x0c1,s\u20281,ID,same\n"),
    "comments led by other whitespace": _edge_text("\x1c# c,d,e,f\n", "\xa0# x,y\n", "\u3000\n"),
    "multi-byte labels": _edge_text("it1,e\u00e91,s1,\u4e2d\u6587,same\n", "it2,e2,s0,\U0001f600,nonmated\n"),
    "a fault": _edge_text("it1,e1,s1,ID,maybe\n"),
}
_EDGE_FAULTS = ("a quoted prefix cell", "a quoted field across lines", "a fault")
_CHUNKS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144)


def _tallied(outcome):
    """A tally's categories and counts, or the type and message of its error."""
    if isinstance(outcome, ConfusionTable):
        return outcome.categories, outcome.same_source, outcome.different_source
    return outcome


class TestChunkEdges:
    """A file or a string that ``tally_csv`` encodes is read in chunks of
    ``records._CHUNK_BYTES`` bytes, cut at line feeds; every reader agrees
    wherever the chunk edges fall."""

    @pytest.mark.parametrize("case", _EDGE_CASES)
    def test_file_text_lines_and_records_agree(self, tmp_path, monkeypatch, case):
        # the same counts, or the same first error on the same line
        text = _EDGE_CASES[case]
        path = tmp_path / "records.csv"
        path.write_bytes(text.encode("utf-8"))
        # a caller's lines are read by lines, whatever the chunk size
        lines = io.StringIO(text, newline=None).readlines()
        expected = _tallied(_outcome(tally_csv, lines))
        assert _tallied(_outcome(lambda t: tally(parse_records(t)), lines)) == expected
        for chunk in _CHUNKS:
            monkeypatch.setattr(catlr.records, "_CHUNK_BYTES", chunk)
            assert _tallied(_outcome(tally_csv, text)) == expected
            assert _tallied(_outcome(lambda t: tally(parse_records(t)), text)) == expected
            from_file = _tallied(_outcome(tally_file, path))
            if type(from_file) is tuple and from_file[0] is IngestError:
                from_file = (IngestError, from_file[1].removeprefix(f"{path}: "))
            assert from_file == expected
        # csv.reader before Python 3.11 rejects a NUL anywhere
        if "NUL" not in case:
            assert (expected[0] is IngestError) == (case in _EDGE_FAULTS)

    @pytest.mark.parametrize("chunk", _CHUNKS)
    def test_blocks_end_at_line_feeds_and_carry_their_bytes(self, monkeypatch, chunk):
        monkeypatch.setattr(catlr.records, "_CHUNK_BYTES", chunk)
        text = "".join(_EDGE_CASES.values())
        blocks = list(_source_lines(text))
        for _, lines, data in blocks[:-1]:
            assert data == b"".join(lines) and data.endswith(b"\n")
        assert blocks[-1][2] == b"".join(blocks[-1][1])
        # the lines and numbers the line reader gives, of a caller's lines or
        # of the text, decoded; a caller's lines come without their bytes
        callers = io.StringIO(text, newline=None).readlines()
        by_lines = list(_source_lines(callers))
        assert all(data is None for *_, data in by_lines)
        kept = [(n, line) for numbers, lines in map(_decoded, blocks) for n, line in zip(numbers, lines)]
        for source in (callers, text):
            assert kept == [
                (n, line) for numbers, lines in _blocks(source) for n, line in zip(numbers, lines)
            ]
        assert kept == [
            (n, line) for numbers, lines in map(_decoded, by_lines) for n, line in zip(numbers, lines)
        ]

    def test_a_callers_stream_is_read_by_its_lines(self, tmp_path, monkeypatch):
        # a file opened with newline="" ends its lines at each lone CR, which
        # the csv module reads as a line end
        monkeypatch.setattr(catlr.records, "_CHUNK_BYTES", 5)
        path = tmp_path / "records.csv"
        path.write_bytes(_edge_text().replace("\n", "\r").encode("utf-8"))
        with open(path, encoding="utf-8", newline="") as stream:
            assert tally_csv(stream) == tally_csv(_edge_text())
