"""Rendering LR analyses as Markdown, CSV, or JSON tables.

Rendering is deterministic: identical inputs produce byte-identical
output, always with a trailing newline.  Human-facing formats carry the
display strings ("42", "1 / 8"); JSON additionally carries the raw
unrounded numbers.

JSON row schema: ``statement``, ``lr`` (number, or null when infinite or
undefined), ``lr_display``, ``p_h1``, ``p_h2``, and optionally
``interval`` with ``lower`` / ``upper`` (null when infinite), ``level``
and ``method``; a bootstrap ``interval`` is null for an undefined (0/0)
point LR, as the bootstrap law has no defined value there either.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .engine import NO_SMOOTHING, SmoothingPolicy, full_table_lrs, presentation_round
from .ingest import _blocks, _csv_text, _DataRows, use_table
from .model import (
    FORMATS,
    ConfusionTable,
    DataError,
    check_interval_method,
    check_level,
)

if TYPE_CHECKING:
    from .uncertainty import Interval

_SUMMARY_HEADERS_TWO = ("", "LR (identification)", "LR (exclusion)")
_SUMMARY_HEADERS_ONE = ("", "LR")


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


def _json_number(value: float) -> float | None:
    return None if (value is None or math.isinf(value)) else value


def _interval_payload(interval: Interval | None) -> dict | None:
    if interval is None:
        return None
    return {
        "lower": _json_number(interval.lower),
        "upper": _json_number(interval.upper),
        "level": interval.level,
        "method": interval.method,
    }


def lr_rows_payload(
    table: ConfusionTable,
    smoothing: SmoothingPolicy = NO_SMOOTHING,
    intervals: Mapping[str, Interval | None] | None = None,
    lower_bounds: Mapping[str, float] | None = None,
) -> list[dict]:
    """JSON-ready rows, one per category in table order."""
    rows = []
    for est in full_table_lrs(table, smoothing):
        bound = (lower_bounds or {}).get(est.statement)
        row = {
            "statement": est.statement,
            "lr": _json_number(est.lr),
            "lr_display": presentation_round(est.lr, zero_count_bound=bound),
            "p_h1": est.p_given_h1,
            "p_h2": est.p_given_h2,
        }
        if intervals and est.statement in intervals:
            row["interval"] = _interval_payload(intervals[est.statement])
        rows.append(row)
    return rows


def render_lr_table(
    table: ConfusionTable,
    fmt: str = "md",
    smoothing: SmoothingPolicy = NO_SMOOTHING,
    intervals: Mapping[str, Interval | None] | None = None,
    lower_bounds: Mapping[str, float] | None = None,
) -> str:
    """One column per category, one "LR" row of display strings.

    ``lower_bounds`` may supply a finite zero-count bound per statement;
    infinite cells then render as "> bound".  Intervals, when given,
    appear in the JSON output only.
    """
    fmt = _normalize_format(fmt)
    rows = lr_rows_payload(table, smoothing, intervals, lower_bounds)
    if fmt == "json":
        return canonical_json(rows)
    header = [""] + [r["statement"] for r in rows]
    body = [["LR"] + [r["lr_display"] for r in rows]]
    return _md_table(header, body) if fmt == "md" else _csv_text(header, body)


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
        headers = _SUMMARY_HEADERS_TWO if width == 3 else (
            _SUMMARY_HEADERS_ONE if width == 2 else ("",) + ("LR",) * (width - 1)
        )
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
    path: str | Path,
    output_format: str = "md",
    smoothing: SmoothingPolicy = NO_SMOOTHING,
    interval_method: str | None = None,
    level: float = 0.95,
) -> str:
    """The LR table of the aggregated table file at ``path``.

    Every option is checked before the file is read, and a data error
    about the table's content names the file.  Intervals are computed for
    JSON only, nested per study; md and csv show the point LRs.
    """
    fmt = _normalize_format(output_format)
    check_report_options(smoothing, interval_method, level)
    interval = None
    if fmt == "json" and interval_method is not None:
        # imported here, not at module level: only a JSON report with
        # intervals computes them
        from .uncertainty import interval_of

        interval = interval_of(interval_method, level)

    def render(table: ConfusionTable) -> str:
        if fmt != "json":
            return render_lr_table(table, fmt, smoothing)
        intervals = None
        if interval is not None:
            bootstrap = interval_method == "bootstrap"
            # a 0/0 row's bootstrap law has no defined value: it has no interval
            intervals = {
                e.statement: None if e.lr is None and bootstrap else interval(table, e.statement)
                for e in full_table_lrs(table)
            }
        statements = lr_rows_payload(table, smoothing, intervals)
        return canonical_json([{"study": table.study_name, "statements": statements}])

    # a data error about the table's content names the file
    return use_table(path, render)
