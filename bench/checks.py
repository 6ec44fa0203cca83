"""Independent checks of catlr CLI output.

Every expected value here is computed by the benchmark from the counts it
generated, never by calling catlr.  The checks pin what the README
promises (likelihood ratios, the display convention, the JSON row schema,
exit codes) and deliberately not incidental bytes such as the exact
random stream, so they keep passing when the RNG scheme or the record
representation is rewritten.  Interval endpoints are checked against the
sampling law itself: a reference sample drawn once during set-up.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Plain-text numbers carry 4 significant digits, so they are off by at
# most half a unit in the 4th digit.
PLAIN_RTOL = 6e-4
EXACT_RTOL = 1e-9


class CheckError(Exception):
    """An invocation's exit code or output contradicts the expectation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass(frozen=True)
class Table:
    """A confusion table as the benchmark generated it."""

    categories: tuple[str, ...]
    same: tuple[int, ...]
    different: tuple[int, ...]

    @property
    def n1(self) -> int:
        return sum(self.same)

    @property
    def n2(self) -> int:
        return sum(self.different)

    def probabilities(self, k: int, alpha: float = 0.0) -> tuple[float, float]:
        width = len(self.categories)
        p1 = (self.same[k] + alpha) / (self.n1 + alpha * width)
        p2 = (self.different[k] + alpha) / (self.n2 + alpha * width)
        return p1, p2

    def ratio(self, k: int, alpha: float = 0.0) -> float | None:
        """The LR as a float, ``math.inf`` for x/0, ``None`` for 0/0."""
        p1, p2 = self.probabilities(k, alpha)
        if p2 > 0.0:
            return p1 / p2
        return math.inf if p1 > 0.0 else None

    def write(self, path: Path, comment: str) -> None:
        buffer = io.StringIO()
        buffer.write(f"# {comment}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["statement", "same_source_count", "different_source_count"])
        for row in zip(self.categories, self.same, self.different):
            writer.writerow(row)
        path.write_text(buffer.getvalue(), encoding="utf-8")


def read_table(path: Path) -> Table:
    """Read an aggregated table file (used for the bundled bullets data)."""
    lines = [
        line for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    rows = list(csv.reader(lines))[1:]
    return Table(
        tuple(r[0].strip() for r in rows),
        tuple(int(r[1]) for r in rows),
        tuple(int(r[2]) for r in rows),
    )


def _close(actual: float, expected: float, rtol: float) -> bool:
    if math.isinf(expected) or math.isinf(actual):
        return actual == expected
    return abs(actual - expected) <= rtol * max(abs(expected), 1e-300)


# ---- exit status -----------------------------------------------------------

def expect_ok(code: int, err: str) -> None:
    require(code == 0, f"exit {code}, expected 0; stderr: {err.strip()[:300]!r}")


def expect_ok_or_data_error(code: int, err: str) -> bool:
    """True when the command succeeded; a clean exit 2 'data error' also passes."""
    if code == 0:
        return True
    require(
        code == 2 and err.startswith("data error"),
        f"exit {code}, expected 0 or a clean 2 'data error'; stderr: {err.strip()[:300]!r}",
    )
    return False


# ---- number and display formats ---------------------------------------------

def check_plain_number(text: str, expected: float | None, what: str) -> None:
    """A value in the CLI's plain format: 4 significant digits, inf, undefined."""
    text = text.strip()
    if expected is None:
        require(text == "undefined", f"{what}: got {text!r}, expected 'undefined'")
        return
    if math.isinf(expected):
        require(text == "inf", f"{what}: got {text!r}, expected 'inf'")
        return
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"{what}: {text!r} is not a number") from None
    require(_close(value, expected, PLAIN_RTOL), f"{what}: got {value}, expected {expected}")


def display_matches(text: str, lr: float | None) -> bool:
    """Whether ``text`` is the display-convention rendering of ``lr``.

    Accepts either neighbour when the ratio sits within rounding error of
    a half-way point, so the check does not depend on the order of the
    program's floating-point operations.
    """
    if lr is None:  # 0/0 has no display form in the README's contract yet
        return True
    if math.isinf(lr):
        return text == "∞" or text.startswith("> ")
    if text == "0":
        return lr == 0.0
    if lr == 0.0:
        return False
    slack = 1e-9
    try:
        if text.startswith("1 / "):
            n = int(text[4:])
            return n >= 2 and n - 0.5 - slack <= 1.0 / lr <= n + 0.5 + slack
        n = int(text)
    except ValueError:
        return False
    if n == 1:
        return 1.0 / 1.5 - slack <= lr < 1.5 + slack
    return n - 0.5 - slack <= lr <= n + 0.5 + slack


def check_displays(displays: list[str], table: Table, alpha: float = 0.0) -> None:
    require(
        len(displays) == len(table.categories),
        f"{len(displays)} display cells for {len(table.categories)} categories",
    )
    for k, text in enumerate(displays):
        lr = table.ratio(k, alpha)
        require(
            display_matches(text, lr),
            f"{table.categories[k]}: display {text!r} does not match LR {lr}",
        )


# ---- whole-output checks ------------------------------------------------------

def check_plain_lr(out: str, table: Table, alpha: float = 0.0) -> None:
    lines = out.splitlines()
    require(len(lines) == len(table.categories), f"{len(lines)} lines for {len(table.categories)} categories")
    for k, line in enumerate(lines):
        statement, _, value = line.partition("\t")
        require(statement == table.categories[k], f"line {k + 1}: statement {statement!r}")
        check_plain_number(value, table.ratio(k, alpha), statement)


def _md_cells(line: str) -> list[str]:
    require(line.startswith("| ") and line.endswith(" |"), f"not a Markdown table row: {line!r}")
    return line[2:-2].split(" | ")


def check_lr_md(out: str, table: Table, alpha: float = 0.0) -> None:
    lines = out.splitlines()
    require(len(lines) == 3, f"expected a 3-line Markdown table, got {len(lines)} lines")
    header, rule, row = (_md_cells(line) for line in lines)
    require(header == [""] + list(table.categories), f"header {header}")
    require(set(rule) == {"---"}, f"rule row {rule}")
    require(row[0] == "LR", f"row label {row[0]!r}")
    check_displays(row[1:], table, alpha)


def check_lr_csv(out: str, table: Table, alpha: float = 0.0) -> None:
    rows = list(csv.reader(out.splitlines()))
    require(len(rows) == 2, f"expected header and one row, got {len(rows)} rows")
    require(rows[0] == [""] + list(table.categories), f"header {rows[0]}")
    require(rows[1][0] == "LR", f"row label {rows[1][0]!r}")
    check_displays(rows[1][1:], table, alpha)


def check_json_rows(rows, table: Table, alpha: float = 0.0, laws=None, level=None, method=None):
    """Check JSON report rows; with ``laws`` also each row's interval."""
    require(isinstance(rows, list) and len(rows) == len(table.categories), "row count")
    for k, row in enumerate(rows):
        name = table.categories[k]
        require(row.get("statement") == name, f"row {k}: statement {row.get('statement')!r}")
        p1, p2 = table.probabilities(k, alpha)
        require(_close(row["p_h1"], p1, EXACT_RTOL), f"{name}: p_h1 {row['p_h1']} != {p1}")
        require(_close(row["p_h2"], p2, EXACT_RTOL), f"{name}: p_h2 {row['p_h2']} != {p2}")
        lr = table.ratio(k, alpha)
        if lr is None or math.isinf(lr):
            require(row["lr"] is None, f"{name}: lr {row['lr']} should be null")
        else:
            require(
                row["lr"] is not None and _close(row["lr"], lr, EXACT_RTOL),
                f"{name}: lr {row['lr']} != {lr}",
            )
        require(display_matches(row["lr_display"], lr), f"{name}: lr_display {row['lr_display']!r}")
        if laws is None:
            continue
        interval = row.get("interval")
        require(isinstance(interval, dict), f"{name}: missing interval")
        require(interval["level"] == level, f"{name}: level {interval['level']} != {level}")
        require(
            str(interval["method"]).startswith(method),
            f"{name}: method {interval['method']!r} is not {method}",
        )
        lower, upper = (
            math.inf if interval[key] is None else float(interval[key])
            for key in ("lower", "upper")
        )
        laws[k].check(lower, upper, level, EXACT_RTOL, name)


def parse_json(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from None


def check_report_json(out: str, table: Table, study: str, **interval_expectation) -> None:
    sections = parse_json(out)
    require(isinstance(sections, list) and len(sections) == 1, "expected one study section")
    require(sections[0].get("study") == study, f"study {sections[0].get('study')!r} != {study!r}")
    check_json_rows(sections[0]["statements"], table, **interval_expectation)


def check_summary(out: str, fmt: str, rows: list[tuple[str, ...]]) -> None:
    """``report --summary``: every fixture row appears verbatim, in order."""
    if fmt == "json":
        payload = parse_json(out)
        got = [tuple([e["name"], *e["lr_displays"]]) for e in payload]
    elif fmt == "csv":
        got = [tuple(r) for r in csv.reader(out.splitlines())][1:]
    else:
        got = [tuple(_md_cells(line)) for line in out.splitlines()[2:]]
    require(got == rows, f"summary rows differ: {got[:2]}... vs {rows[:2]}...")


def check_aggregated(text: str, categories: list[str], same: list[int], different: list[int]) -> None:
    """A ``tally`` result: categories in first-appearance order with exact counts."""
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    require(
        rows and [c.strip() for c in rows[0]] == ["statement", "same_source_count", "different_source_count"],
        f"aggregated header {rows[:1]}",
    )
    got = [(r[0], int(r[1]), int(r[2])) for r in rows[1:]]
    want = list(zip(categories, same, different))
    require(got == want, f"tally counts differ: {got[:3]}... vs {want[:3]}...")


def check_simulated(path: Path, categories, p1, p2, n1: int, n2: int) -> None:
    """``simulate`` output: exact row totals, frequencies within binomial tolerance."""
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(line for line in handle if not line.startswith("#"))
        header = [c.strip() for c in next(reader)]
        try:
            ti, si = header.index("ground_truth"), header.index("statement")
        except ValueError:
            raise CheckError(f"simulate header {header}") from None
        counts: dict[tuple[str, str], int] = {}
        for row in reader:
            key = (row[ti], row[si])
            counts[key] = counts.get(key, 0) + 1
    index = {c: k for k, c in enumerate(categories)}
    for truth, _ in counts:
        require(truth in ("same", "different"), f"ground truth {truth!r}")
    for (_, statement) in counts:
        require(statement in index, f"statement {statement!r} is not in the profile")
    for truth, probs, total in (("same", p1, n1), ("different", p2, n2)):
        got = [counts.get((truth, c), 0) for c in categories]
        require(sum(got) == total, f"{truth}: {sum(got)} records, expected {total}")
        for c, x, p in zip(categories, got, probs):
            sd = math.sqrt(total * p * (1.0 - p))
            require(abs(x - total * p) <= 6.0 * sd + 1.0, f"{truth}/{c}: {x} far from {total * p:.1f}")


# ---- interval references ------------------------------------------------------

class IntervalLaw:
    """A large reference sample of one statement's LR under an interval's law.

    An interval endpoint is accepted when the law puts the expected tail
    probability at it, within the sampling error of a percentile taken
    from ``replicates`` draws (5 standard errors) plus that of the
    reference itself.
    """

    def __init__(self, ratios: np.ndarray, replicates: int):
        self.sorted = np.sort(ratios[~np.isnan(ratios)])
        require(self.sorted.size > 0, "reference law has no defined values")
        # undefined (0/0) replicates are dropped before the percentile
        self.defined_replicates = max(1.0, replicates * self.sorted.size / ratios.size)

    def _tail_ok(self, q: float, value: float, rtol: float) -> bool:
        size = self.sorted.size
        n = self.defined_replicates
        tol = 5.0 * math.sqrt(q * (1 - q) / n) + 5.0 * math.sqrt(q * (1 - q) / size) + 2.0 / n
        below = np.searchsorted(self.sorted, value * (1 - rtol), "left") / size
        upto = np.searchsorted(self.sorted, value * (1 + rtol), "right") / size
        return below <= q + tol and upto >= q - tol

    def check(self, lower: float, upper: float, level: float, rtol: float, what: str) -> None:
        require(not (math.isnan(lower) or math.isnan(upper)), f"{what}: NaN endpoint")
        require(lower <= upper, f"{what}: lower {lower} > upper {upper}")
        tail = (1.0 - level) / 2.0
        require(self._tail_ok(tail, lower, rtol), f"{what}: lower {lower} is off the reference law")
        require(self._tail_ok(1.0 - tail, upper, rtol), f"{what}: upper {upper} is off the reference law")


def _ratio_array(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den


def bootstrap_law(table: Table, k: int, rng: np.random.Generator, size: int, replicates: int) -> IntervalLaw:
    """Stratified bootstrap: each row resampled with its total fixed.

    Statement k's cell of a multinomial row is Binomial(n, f_k).
    """
    n1, n2 = table.n1, table.n2
    x1 = rng.binomial(n1, table.same[k] / n1, size) / n1
    x2 = rng.binomial(n2, table.different[k] / n2, size) / n2
    return IntervalLaw(_ratio_array(x1, x2), replicates)


def dirichlet_law(
    table: Table, k: int, rng: np.random.Generator, size: int, draws: int, alpha: float = 0.5
) -> IntervalLaw:
    """Dirichlet(counts + alpha) posterior: cell k is Beta(c_k + a, rest)."""
    width = len(table.categories)
    rows = []
    for row in (table.same, table.different):
        a = row[k] + alpha
        b = sum(row) + alpha * width - a
        rows.append(rng.beta(a, b, size))
    return IntervalLaw(_ratio_array(*rows), draws)
