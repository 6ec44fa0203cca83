"""The CLI output corpus: catlr's commands over small inputs, and what each call printed.

``write_inputs(directory)`` writes the input files, and ``CALLS`` lists the
calls, their paths relative to that directory.  ``outcomes(directory)`` runs
every call in order through ``cli.run`` with the directory as the working
directory, and records for each its exit code (or, when the call raises, the
exception's type name), the SHA-256 of its stdout and its stderr text.  The
calls run in order because one reads a file an earlier one wrote.

``tests/golden/cli_corpus.json`` holds the recorded outcomes, and
``tests/test_cli_corpus.py`` checks that they still hold.  After a change
meant to alter some output, rewrite the golden file with

    PYTHONPATH=src python tests/cli_corpus.py --regenerate

and name each changed entry in CHANGES.md; without ``--regenerate`` the
script prints the entries that differ from the golden file.  No call prints
help or a usage error: ``tests/test_cli.py`` pins those.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from importlib.resources import files
from pathlib import Path

from catlr import cli

GOLDEN = Path(__file__).parent / "golden" / "cli_corpus.json"

_AGGREGATED = "statement,same_source_count,different_source_count\n"
_BULLETS = (files("catlr") / "data" / "bullets.csv").read_text(encoding="utf-8")

# Aggregated tables: name -> file bytes
TABLES = {
    "bullets": _BULLETS.encode(),
    "infinite": f"{_AGGREGATED}ID,20,0\nInconclusive,5,10\nElimination,1,30\n".encode(),
    "zero_same_source": f"{_AGGREGATED}ID,0,5\nElimination,7,2\n".encode(),
    "undefined": f"{_AGGREGATED}ID,100,0\nNONE,0,0\nElimination,3,40\n".encode(),
    "one_category": f"{_AGGREGATED}ID,10,4\n".encode(),
    "zero_row": f"{_AGGREGATED}ID,5,0\nElimination,3,0\n".encode(),
    "comments": f"# a\n\n{_AGGREGATED}# b\nID,30,2\n\n   \nElimination,4,50\n# c\n".encode(),
    "crlf": f"{_AGGREGATED}ID,30,2\nElimination,4,50\n".replace("\n", "\r\n").encode(),
    "quoted": f'{_AGGREGATED}"Inconclusive, A",12,30\n"say ""no""",3,4\n" ID ",40,1\n'.encode(),
    "form_feed": f"{_AGGREGATED}ID\x0cx,30,2\nElimination,4,50\n".encode(),
    "row_total_2p63_minus_1": f"{_AGGREGATED}ID,{2**63 - 11},1\nElimination,10,5\n".encode(),
    "row_total_2p63": f"{_AGGREGATED}ID,{2**63 - 10},1\nElimination,10,5\n".encode(),
    # p_h1 of ID is 1/3 + 2**-54 / 3, whose correctly rounded float is 0.33333333333333337
    "row_total_2p53": f"{_AGGREGATED}ID,{2**53 + 1},1\nElimination,{2**54 - 1},2\n".encode(),
    # the largest row total a table accepts, and one past it
    "row_total_2p1023": f"{_AGGREGATED}ID,{2**1023 - 7},3\nInconclusive,4,{2**1022}\n"
                        f"Elimination,3,{2**1022 - 3}\n".encode(),
    "row_total_1e400": f"{_AGGREGATED}ID,{10**400},1\nElimination,1,1\n".encode(),
    # exact LRs 2/3 and 3/2, and 46.5: each half rounds up
    "exact_halves": f"{_AGGREGATED}a,2,3\nb,3,2\n".encode(),
    "half_up_46": f"{_AGGREGATED}ID,1,1\nElim,1,92\n".encode(),
    # B is 0/0; smoothed at alpha=1e-320 its probabilities are below the
    # smallest float, but its LR is exactly 1
    "zero_category_large": f"{_AGGREGATED}A,1000000,1000000\nB,0,0\n".encode(),
    # smoothed at alpha=1e-320, the LR of ID is past the largest float
    "past_float_smoothed": f"{_AGGREGATED}ID,5,0\nElim,5,5\n".encode(),
    # at Dirichlet alpha=1e-80, Beta(1e-80, ~1e248) has a / (a + b) below the smallest float
    "mode_underflow": f"{_AGGREGATED}a,0,2\nb,{10**248},{10**138}\n".encode(),
    "bom": b"\xef\xbb\xbf" + _BULLETS.encode(),
    "not_utf8": f"{_AGGREGATED}ID,30,2\n".encode() + b"\xff\xfe,4,50\n",
    # header faults
    "empty": b"",
    "comments_only": b"# nothing here\n\n",
    "unknown_header": b"statement,same,different\nID,1,2\n",
    "records_header": b"examiner_id,item_id,ground_truth,statement\ne1,i1,same,ID\n",
    "header_only": _AGGREGATED.encode(),
    # row faults
    "short_row": f"{_AGGREGATED}ID,30,2\nElimination,4\n".encode(),
    "long_row": f"{_AGGREGATED}ID,30,2,7\n".encode(),
    "empty_label": f"{_AGGREGATED}ID,30,2\n  ,4,50\n".encode(),
    "duplicate_label": f"{_AGGREGATED}ID,30,2\n ID ,4,50\n".encode(),
    "not_an_integer": f"{_AGGREGATED}ID,30,2.5\n".encode(),
    "negative_count": f"{_AGGREGATED}ID,30,-2\n".encode(),
    "open_quote": f'{_AGGREGATED}ID,30,2\n"Elimination,4,50\n'.encode(),
    "field_over_limit": f'{_AGGREGATED}ID,30,2\n"{"x" * 140_000}",4,50\n'.encode(),
}
# The statement of a table's interval calls, where it is not "ID"
_INTERVAL_STATEMENT = {"undefined": "NONE", "quoted": "Inconclusive, A", "form_feed": "ID\x0cx",
                       "exact_halves": "a", "zero_category_large": "B", "mode_underflow": "a"}

_SUMMARY = (files("catlr") / "data" / "summary_published.csv").read_text(encoding="utf-8")
_APPENDIX = ("bloodstain", "cartridge", "fingerprint", "footwear", "handwriting")

# Display fixtures for report --summary: name -> file bytes
SUMMARIES = {
    "summary_published": _SUMMARY.encode(),
    **{
        f"appendix_{name}": (files("catlr") / "data" / "appendix" / f"{name}.csv").read_bytes()
        for name in _APPENDIX
    },
    "summary_bom": b"\xef\xbb\xbf" + _SUMMARY.encode(),
    "summary_uneven": b"study,LR\na,1,2\nb,3\n",
    "summary_header_only": b"study,LR\n",
}

_PROFILE = (
    "[profile]\ncategories = ID, Inconclusive, Elimination\n"
    "p_given_h1 = 0.75, 0.2, 0.05\np_given_h2 = 0.007, 0.5, 0.493\n"
    "n_h1 = 50\nn_h2 = 80\nseed = 42\n"
)

PROFILES = {
    "small": _PROFILE.encode(),
    "quoted_label": _PROFILE.replace("Inconclusive", 'say "no"').encode(),
    "bom_profile": b"\xef\xbb\xbf" + _PROFILE.encode(),
    "sums_above_one": _PROFILE.replace("0.2, 0.05", "0.3, 0.05").encode(),
    "not_utf8_profile": _PROFILE.encode().replace(b"Elimination", b"\xffElimination"),
    "empty_label_profile": _PROFILE.replace("Inconclusive", "").encode(),
    # a "#"-leading label, which tally must quote so that lr does not read it as a comment
    "hash_label_profile": _PROFILE.replace("= ID,", "= #1 pick,").encode(),
}

# The four raw-records layouts: header, then data line n of truth token t and label
_LAYOUTS = {
    "bench": (
        "item_id,examiner_id,session,statement,ground_truth,notes",
        lambda n, t, label: f"it{n},ex{n % 37},s{n % 5},{label},{t},n/a",
    ),
    "simulate": (
        "examiner_id,item_id,ground_truth,statement",
        lambda n, t, label: f"ex{n % 10 + 1:02d},item{n:06d},{t},{label}",
    ),
    "pair_first": (
        "ground_truth,statement,examiner_id,item_id",
        lambda n, t, label: f"{t},{label},ex{n % 37},item{n}",
    ),
    "quoted_prefix": (
        "examiner_id,item_id,ground_truth,statement",
        lambda n, t, label: f'"Lab {n % 3}, ex{n % 37:02d}",item{n},{t},{label}',
    ),
}
_LABELS = ('"ID"', '"Inconclusive, A"', " Elimination ", "Unsuitable")
_TRUTHS = ("same", "mated", "different", "nonmated")
_RECORD_ROWS = 8200

# Faults by physical line; each layout takes each fault at another line.
_FAULT_LINES = (3, 4096, 4097, None)  # None: the last line
_FAULTS = (
    {"t": "maybe"},  # unknown ground-truth token
    {"label": "  "},  # empty statement label
    {"label": '"ID'},  # a quoted field left open
    {"line": "short,row"},  # a short row
)


def _records_text(layout: str, fault: tuple[int | None, dict] | None = None) -> str:
    """Raw-records text of ``layout``; ``fault`` is a physical line number, or
    None for the last line, and the ``_FAULTS`` entry put there.  The bench
    layout carries a comment and a blank line every 1000 rows."""
    header, line = _LAYOUTS[layout]
    lines = [header + "\n"]
    for n in range(_RECORD_ROWS):
        if layout == "bench" and n % 1000 == 500:
            lines.append(f"# block {n // 1000}\n\n")
        lines.append(line(n, _TRUTHS[n % 4], _LABELS[n % 7 % 4]) + "\n")
    text = "".join(lines)
    if fault is None:
        return text
    at, cells = fault[0], {"t": "same", "label": "ID", **fault[1]}
    bad = cells.get("line") or line(10**6, cells["t"], cells["label"])
    physical = text.splitlines(keepends=True)
    physical.insert(len(physical) if at is None else at - 1, bad + "\n")
    return "".join(physical)


def _records() -> dict[str, bytes]:
    """Raw-records files for tally: name -> file bytes."""
    records = {}
    for i, layout in enumerate(_LAYOUTS):
        records[f"records_{layout}"] = _records_text(layout).encode()
        for j, at in enumerate(_FAULT_LINES):
            fault = _FAULTS[(i + j) % len(_FAULTS)]
            name = f"records_{layout}_fault_at_{at or 'end'}"
            records[name] = _records_text(layout, (at, fault)).encode()
    small = "examiner_id,item_id,ground_truth,statement\ne1,i1,same,ID\ne2,i2,different,Elim\n"
    records["records_bom"] = b"\xef\xbb\xbf" + small.encode()
    records["records_bom_pair_first"] = b"\xef\xbb\xbf" + _records_text("pair_first").encode()
    records["records_not_utf8"] = small.encode() + b"e3,i3,same,\xff\n"
    records["records_missing_column"] = b"examiner_id,item_id,statement\ne1,i1,ID\n"
    records["records_header_only"] = b"examiner_id,item_id,ground_truth,statement\n"
    return records


RECORDS = _records()


def write_inputs(directory: Path) -> None:
    """Write every input file of the corpus into ``directory``."""
    groups = (TABLES, ".csv"), (SUMMARIES, ".csv"), (RECORDS, ".csv"), (PROFILES, ".cfg")
    for group, suffix in groups:
        for name, data in group.items():
            (directory / f"{name}{suffix}").write_bytes(data)


_FORMATS = ("md", "csv", "json")
_METHODS = ("bootstrap", "dirichlet")


def _calls() -> list[list[str]]:
    calls = []
    for name in TABLES:
        table, statement = ["--table", f"{name}.csv"], _INTERVAL_STATEMENT.get(name, "ID")
        calls += [
            ["lr", *table],
            *(["lr", *table, "--format", fmt] for fmt in _FORMATS),
            ["lr", *table, "--smoothing", "alpha=0.5"],
            *(["report", *table, "--format", fmt] for fmt in _FORMATS),
            *(["report", *table, "--format", "json", "--interval", m] for m in _METHODS),
            *(["interval", *table, "--statement", statement, "--method", m] for m in _METHODS),
        ]
    bullets = ["--table", "bullets.csv"]
    json_report = ["report", *bullets, "--format", "json"]
    # 0.9999999999999999 = 1 - 2**-53, whose upper quantile 1 - (1 - level) / 2 rounds to 1
    levels_and_seeds = (
        ["--level", "0.9"], ["--level", "0.99", "--seed", "7"], ["--seed", "1"],
        ["--level", "1.5"], ["--seed", "-1"], ["--level", "0.9999999999999999"],
    )
    bootstrap_options = ([], ["--level", "0.5"], ["--seed", "3"], ["--level", "0.9999999999999999"])
    dirichlet_options = ([], ["--alpha", "2"], ["--alpha", "1e-9"], ["--alpha", "1e101"],
                         ["--alpha", "0"], ["--level", "0.9999999999999999"])
    calls += [
        ["lr", "--table", "missing.csv"],
        ["lr", *bullets, "--smoothing", "alpha=1", "--format", "md"],
        ["lr", *bullets, "--smoothing", "none", "--format", "csv"],
        [*json_report, "--smoothing", "alpha=0.5"],
        [*json_report, "--interval", "bootstrap", "--smoothing", "alpha=0.5"],
        ["report", *bullets, "--format", "md", "--interval", "bootstrap"],
        ["report", "--format", "md"],
        *([*json_report, "--interval", m, *o] for m in _METHODS for o in levels_and_seeds),
        *(
            ["interval", *bullets, "--statement", statement, "--method", "bootstrap", *options]
            for statement in ("Inconcl.-A", "Other")
            for options in bootstrap_options
        ),
        *(
            ["interval", *bullets, "--statement", statement, "--method", "dirichlet", *options]
            for statement in ("Elimination", "Other")
            for options in dirichlet_options
        ),
        ["interval", *bullets, "--statement", "Nope", "--method", "bootstrap"],
        ["interval", *bullets, "--statement", "ID", "--method", "dirichlet", "--workers", "4"],
        # an LR whose reciprocal is past the largest float
        *(
            [command, "--table", "zero_same_source.csv", "--smoothing", "alpha=1e-320",
             "--format", fmt]
            for command in ("lr", "report")
            for fmt in _FORMATS
        ),
        # N + alpha K is past the largest float: each LR is the uniform limit, 1
        *(["lr", *bullets, "--smoothing", "alpha=1e308", *fmt] for fmt in ([], ["--format", "json"])),
        # probabilities below the smallest float, an LR of 1; an LR past the largest float
        *(
            [command, "--table", f"{name}.csv", "--smoothing", "alpha=1e-320", *fmt]
            for name in ("zero_category_large", "past_float_smoothed")
            for command, fmt in (("lr", []), *((c, ["--format", f]) for c in ("lr", "report")
                                               for f in _FORMATS))
        ),
        ["interval", "--table", "mode_underflow.csv", "--statement", "a", "--method", "dirichlet",
         "--alpha", "1e-80"],
    ]
    for name in SUMMARIES:
        calls += [["report", "--summary", f"{name}.csv", "--format", fmt] for fmt in _FORMATS]
    calls.append(["report", "--summary", "missing.csv"])
    priors_and_lrs = ("0.5", "10"), ("0.01", "108.8"), ("0", "inf"), ("1", "0"), ("0.2", "-1")
    for prior, lr in (*priors_and_lrs, ("1.5", "2")):
        calls.append(["posterior", "--prior", prior, "--lr", lr])
    adjustments = (("109", "0.01"), ("10", "1"), ("inf", "0.5"), ("10", "0"), ("10", "1.5"),
                   ("inf", "1e-320"), ("1e300", "1e-320"))
    for lr, fraction in adjustments:
        calls.append(["adjust", "--lr", lr, "--fraction", fraction])
    calls += [["simulate", "--profile", f"{name}.cfg"] for name in PROFILES]
    calls += [
        ["simulate", "--profile", "missing.cfg"],
        ["simulate", "--profile", "small.cfg", "--out", "simulated.csv"],
        ["tally", "--in", "simulated.csv"],
        ["tally", "--in", "missing.csv"],
        ["simulate", "--profile", "hash_label_profile.cfg", "--out", "hash_label_records.csv"],
        ["tally", "--in", "hash_label_records.csv", "--out", "hash_label.csv"],
        ["lr", "--table", "hash_label.csv"],
        ["report", "--table", "hash_label.csv", "--format", "csv"],
    ]
    calls += [["tally", "--in", f"{name}.csv"] for name in RECORDS]
    return calls


CALLS = _calls()


def outcomes(directory: Path, calls: list[list[str]] = CALLS) -> list[dict]:
    """Run ``calls``, by default every call of the corpus, with the inputs in
    ``directory``, in order."""
    here = os.getcwd()
    os.chdir(directory)
    try:
        return [_outcome(argv) for argv in calls]
    finally:
        os.chdir(here)


def _outcome(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    try:
        exit_code: int | str = cli.run(argv, out, err)
    except Exception as exc:  # recorded: a call must never raise
        exit_code = type(exc).__name__
    return {
        "argv": argv,
        "exit": exit_code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr": err.getvalue(),
    }


def dumps(entries: list[dict]) -> str:
    """The golden file's text: one entry per line, so a diff names each change."""
    lines = (json.dumps(entry, ensure_ascii=True, sort_keys=True) for entry in entries)
    return "[\n" + ",\n".join(lines) + "\n]\n"


def changed(expected: list[dict], actual: list[dict]) -> list[str]:
    """A line for each entry of ``actual`` that differs from ``expected``."""
    if [e["argv"] for e in expected] != [a["argv"] for a in actual]:
        return ["the list of calls differs from the golden file's"]
    return [
        f"{' '.join(a['argv'])}: {e} -> {a}"
        for e, a in zip(expected, actual)
        if e != a
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--regenerate", action="store_true", help=f"rewrite {GOLDEN.name}")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(Path(directory))
        actual = outcomes(Path(directory))
    if args.regenerate:
        GOLDEN.write_text(dumps(actual), encoding="utf-8")
        print(f"wrote {len(actual)} entries to {GOLDEN}")
        return 0
    differences = changed(json.loads(GOLDEN.read_text(encoding="utf-8")), actual)
    for line in differences:
        print(line)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
