"""Rendering LR analyses as Markdown, CSV, or JSON tables.

Rendering is deterministic: identical inputs produce byte-identical
output, always with a trailing newline.  Human-facing formats carry the
display strings ("42", "1 / 8"); JSON additionally carries the raw
unrounded numbers.

JSON schema: a list of one ``{"study": <table's study name>, "statements":
rows}``, a row per category in table order.  Row schema: ``statement``,
``lr`` (number, or null when infinite or undefined), ``lr_display``,
``p_h1``, ``p_h2``, and with an interval method ``interval``: ``lower`` /
``upper`` (null when infinite), ``level`` and ``method``.  A bootstrap
``interval`` is null for an undefined (0/0) point LR, as the bootstrap law
has no defined value there either.
"""

from __future__ import annotations

import math

from .engine import NO_SMOOTHING, SmoothingPolicy, full_table_lrs, presentation_round
from .ingest import _blocks, _csv_text, _DataRows, use_table
from .model import (
    FORMATS,
    ConfusionTable,
    DataError,
    check_interval_method,
    check_level,
)

TYPE_CHECKING = False  # typing costs a command ~4 ms to import, and annotations are strings
if TYPE_CHECKING:
    from os import PathLike
    from typing import Callable, Iterable, Sequence

_SUMMARY_HEADERS_TWO = ("", "LR (identification)", "LR (exclusion)")


def _normalize_format(fmt: str) -> str:
    key = {"markdown": "md"}.get(fmt.strip().lower(), fmt.strip().lower())
    if key not in FORMATS:
        raise DataError(f"unknown output format {fmt!r}; choose one of {FORMATS}")
    return key


def canonical_json(payload) -> str:
    """The one JSON serialization used everywhere; idempotent under re-parse."""
    # imported here, not at module level: md and csv output never need it
    import json

    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False,
                      allow_nan=False) + "\n"


def _md_table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    def line(cells):
        return "| " + " | ".join(str(c).replace("|", "\\|") for c in cells) + " |"

    out = [line(header), line(["---"] * len(header))]
    out.extend(line(row) for row in rows)
    return "\n".join(out) + "\n"


def _json_number(value: float | None) -> float | None:
    return None if (value is None or math.isinf(value)) else value


def _lr_table_renderer(
    fmt: str, smoothing: SmoothingPolicy, interval_method: str | None, level: float
) -> Callable[[ConfusionTable], str]:
    """The LR table of a table in these options, every option checked now,
    before any table is read.  Intervals are computed for JSON only."""
    fmt = _normalize_format(fmt)
    check_report_options(smoothing, interval_method, level)
    interval = None
    if fmt == "json" and interval_method is not None:
        # imported here, not at module level: only a JSON table with
        # intervals computes them
        from .uncertainty import interval_of

        interval = interval_of(interval_method, level)

    def render(table: ConfusionTable) -> str:
        estimates = full_table_lrs(table, smoothing)
        if fmt != "json":
            header = [""] + [e.statement for e in estimates]
            body = [["LR"] + [presentation_round(e) for e in estimates]]
            return _md_table(header, body) if fmt == "md" else _csv_text(header, body)
        rows = []
        for e in estimates:
            row = {"statement": e.statement, "lr": _json_number(e.lr),
                   "lr_display": presentation_round(e), "p_h1": e.p_given_h1, "p_h2": e.p_given_h2}
            if interval is not None:
                row["interval"] = None  # a 0/0 row's bootstrap law has no defined value
                if e.lr is not None or interval_method != "bootstrap":
                    bounds = interval(table, e.statement)
                    row["interval"] = {"lower": _json_number(bounds.lower),
                                       "upper": _json_number(bounds.upper),
                                       "level": bounds.level, "method": bounds.method}
            rows.append(row)
        return canonical_json([{"study": table.study_name, "statements": rows}])

    return render


def render_lr_table(
    table: ConfusionTable,
    fmt: str = "md",
    smoothing: SmoothingPolicy = NO_SMOOTHING,
    interval_method: str | None = None,
    level: float = 0.95,
) -> str:
    """The LR table of ``table``: ``build_report``'s bytes for a file that
    holds it, in the same options.

    md and csv have one column per category and one "LR" row of display
    strings.  JSON nests the rows under the study, and with an
    ``interval_method`` each row has its interval at ``level``.
    """
    return _lr_table_renderer(fmt, smoothing, interval_method, level)(table)


def render_summary_table(
    entries: Sequence[Sequence[str]],
    fmt: str = "md",
    headers: Sequence[str] | None = None,
) -> str:
    """A name column plus one or more LR display columns, one row per entry.

    Default headers fit the two common layouts: (name, id LR, exclusion
    LR) study summaries and (statement, LR) per-study listings.  An empty
    entry list yields a header-only table.
    """
    fmt = _normalize_format(fmt)
    entries = [tuple(str(c) for c in e) for e in entries]
    widths = {len(e) for e in entries}
    if len(widths) > 1:
        raise DataError(f"entries have inconsistent column counts: {sorted(widths)}")
    if headers is None:
        width = widths.pop() if widths else 3
        if width < 2:
            raise DataError("each entry needs a name and at least one display value")
        headers = _SUMMARY_HEADERS_TWO if width == 3 else ("",) + ("LR",) * (width - 1)
    headers = tuple(str(h) for h in headers)
    if entries and len(headers) != len(entries[0]):
        raise DataError(
            f"{len(headers)} headers for entries of width {len(entries[0])}"
        )
    if fmt == "json":
        return canonical_json(
            [{"name": e[0], "lr_displays": list(e[1:])} for e in entries]
        )
    return _md_table(headers, entries) if fmt == "md" else _csv_text(headers, entries)


def read_display_fixture(source: str | Iterable[str]) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    """Read a (headers, rows) display-value fixture from CSV text.

    The first non-comment row is the header, and at least one row must
    follow it; all rows must share its width.  Cells are display strings,
    taken verbatim after trimming.
    """
    parsed: list[tuple[str, ...]] = []
    rows = _DataRows(_blocks(source))
    for row in rows:
        cells = tuple(c.strip() for c in row)
        if parsed and len(cells) != len(parsed[0]):
            raise DataError(
                f"line {rows.line}: expected {len(parsed[0])} cells, got {len(cells)}"
            )
        parsed.append(cells)
    if not parsed:
        raise DataError("fixture has no header row")
    if len(parsed) == 1:
        raise DataError("display fixture has a header but no rows")
    return parsed[0], parsed[1:]


def check_report_options(smoothing: SmoothingPolicy, interval_method: str | None,
                         level: float) -> None:
    """DataError unless these ``build_report`` options are valid."""
    if interval_method is not None:
        check_interval_method(interval_method)
        if not smoothing.is_none:
            # both interval methods are computed from the raw counts, so a
            # smoothed point LR could fall outside its own interval
            raise DataError(
                f"{interval_method} intervals are computed without smoothing; "
                f"drop smoothing {smoothing.describe()} or the interval"
            )
    check_level(level)


def build_report(
    path: str | PathLike,
    output_format: str = "md",
    smoothing: SmoothingPolicy = NO_SMOOTHING,
    interval_method: str | None = None,
    level: float = 0.95,
) -> str:
    """``render_lr_table`` of the aggregated table file at ``path``.

    Every option is checked before the file is read, and a data error
    about the table's content names the file.
    """
    return use_table(path, _lr_table_renderer(output_format, smoothing, interval_method, level))
