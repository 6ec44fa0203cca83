"""The benchmark's three workloads: seeded inputs plus one cycle of CLI calls.

Each workload writes its inputs into a work directory and returns the
argv lists of one cycle, each paired with a check of its output.  A run
repeats the cycle, so every run sees the same mix of commands; only the
seed-dependent contents of the inputs change between runs.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks as C
from checks import Table


@dataclass
class Invocation:
    """One CLI call: ``catlr <argv>``; ``check(code, stdout, stderr)`` raises CheckError."""

    argv: list[str]
    check: Callable[[int, str, str], None]
    out_file: Path | None = None  # a file the command writes and the check reads
    records: int = 0  # records the command writes or reads


@dataclass
class Plan:
    cycle: list[Invocation]
    min_cycles: int
    alloc_profile: Path | None = None  # simulate profile for the allocation probe


def _counts(rng: np.random.Generator, total: int, width: int, floor: int = 1) -> list[int]:
    """``width`` counts summing to ``total``, each at least ``floor``."""
    probs = rng.dirichlet(np.full(width, 2.0))
    return [floor + int(c) for c in rng.multinomial(total - floor * width, probs)]


# ---- point-queries ------------------------------------------------------------

def point_queries(root: Path, work: Path, seed: int) -> Plan:
    """Cheap commands over small tables: startup dominates every call."""
    rng = np.random.default_rng([seed, 1])
    bullets_path = work / "bullets.csv"
    shutil.copyfile(root / "src/catlr/data/bullets.csv", bullets_path)
    bullets = C.read_table(bullets_path)
    golden_md = (root / "tests/golden/bullets_lr.md").read_text(encoding="utf-8")
    golden_csv = (root / "tests/golden/bullets_lr.csv").read_text(encoding="utf-8")

    k2 = Table(
        ("Identification", "Elimination"),
        (int(rng.integers(200, 1500)), int(rng.integers(1, 100))),
        (0, int(rng.integers(500, 3000))),
    )
    k20_names = tuple(f"Level-{i:02d}" for i in range(1, 21))
    k20 = Table(k20_names, tuple(_counts(rng, 4000, 20)), tuple(_counts(rng, 4000, 20)))
    zero = Table(
        ("ID", "Inconclusive", "Unused", "Elimination"),
        (int(rng.integers(100, 900)), int(rng.integers(10, 300)), 0, int(rng.integers(1, 50))),
        (int(rng.integers(1, 30)), int(rng.integers(100, 900)), 0, int(rng.integers(300, 2000))),
    )
    paths = {}
    for name, table in (("k2zero", k2), ("k20", k20), ("allzero", zero)):
        paths[name] = work / f"{name}.csv"
        table.write(paths[name], f"point-queries seed {seed}")

    summary_rows = [
        (f"study {i + 1} (seed {seed})", str(int(rng.integers(2, 2000))), f"1 / {int(rng.integers(2, 200))}")
        for i in range(8)
    ]
    summary = work / "summary.csv"
    summary.write_text(
        "# display-value fixture\nstudy,LR (identification),LR (exclusion)\n"
        + "".join(",".join(row) + "\n" for row in summary_rows),
        encoding="utf-8",
    )
    prior = round(float(rng.uniform(0.01, 0.9)), 4)
    lr = round(float(10 ** rng.uniform(-2, 4)), 3)
    fraction = round(float(rng.uniform(0.01, 1.0)), 4)

    def ok(fn):
        def check(code, out, err):
            C.expect_ok(code, err)
            fn(out)
        return check

    def ok_or_data_error(fn):
        def check(code, out, err):
            if C.expect_ok_or_data_error(code, err):
                fn(out)
        return check

    def golden(text):
        return ok(lambda out: C.require(out == text, "output differs from the golden file"))

    def report_json(table, study, alpha=0.0):
        return lambda out: C.check_report_json(out, table, study, alpha=alpha)

    def number(expected):
        return ok(lambda out: C.check_plain_number(out, expected, "value"))

    s = str
    cycle = [
        Invocation(["lr", "--table", s(bullets_path)], ok(lambda out: C.check_plain_lr(out, bullets))),
        Invocation(["lr", "--table", s(bullets_path), "--format", "md"], golden(golden_md)),
        Invocation(["lr", "--table", s(bullets_path), "--format", "csv"], golden(golden_csv)),
        Invocation(["lr", "--table", s(bullets_path), "--format", "json"], ok(report_json(bullets, "bullets"))),
        Invocation(["lr", "--table", s(paths["k2zero"])], ok(lambda out: C.check_plain_lr(out, k2))),
        Invocation(["lr", "--table", s(paths["k2zero"]), "--format", "md"], ok(lambda out: C.check_lr_md(out, k2))),
        Invocation(
            ["lr", "--table", s(paths["k2zero"]), "--format", "json", "--smoothing", "alpha=0.5"],
            ok(report_json(k2, "k2zero", alpha=0.5)),
        ),
        Invocation(["lr", "--table", s(paths["k20"]), "--format", "csv"], ok(lambda out: C.check_lr_csv(out, k20))),
        Invocation(["lr", "--table", s(paths["k20"]), "--format", "json"], ok(report_json(k20, "k20"))),
        Invocation(["lr", "--table", s(paths["allzero"])], ok_or_data_error(lambda out: C.check_plain_lr(out, zero))),
        Invocation(
            ["lr", "--table", s(paths["allzero"]), "--format", "json"],
            ok_or_data_error(report_json(zero, "allzero")),
        ),
        Invocation(
            ["report", "--table", s(paths["allzero"]), "--format", "md"],
            ok_or_data_error(lambda out: C.check_lr_md(out, zero)),
        ),
        Invocation(["report", "--table", s(paths["k20"]), "--format", "md"], ok(lambda out: C.check_lr_md(out, k20))),
        Invocation(["report", "--table", s(bullets_path), "--format", "json"], ok(report_json(bullets, "bullets"))),
        Invocation(
            ["report", "--summary", s(summary), "--format", "md"],
            ok(lambda out: C.check_summary(out, "md", summary_rows)),
        ),
        Invocation(
            ["report", "--summary", s(summary), "--format", "json"],
            ok(lambda out: C.check_summary(out, "json", summary_rows)),
        ),
        Invocation(
            ["posterior", "--prior", s(prior), "--lr", s(lr)],
            number(prior * lr / (prior * lr + (1.0 - prior))),
        ),
        Invocation(["adjust", "--lr", s(lr), "--fraction", s(fraction)], number(lr * fraction)),
    ]
    return Plan(cycle, min_cycles=6)


# ---- report-intervals -------------------------------------------------------

# Replicate counts the CLI uses when none are given (documented defaults).
BOOTSTRAP_REPLICATES = 2000
DIRICHLET_DRAWS = 10000
REFERENCE_SIZE = 200_000


def report_intervals(root: Path, work: Path, seed: int) -> Plan:
    """Bootstrap and Dirichlet intervals: uncertainty and rng dominate."""
    rng = np.random.default_rng([seed, 2])
    # K=2 at ~4e3 per row: one different-source count is tiny, so some
    # bootstrap replicates divide by zero and the upper endpoint is infinite.
    n1, n2 = 4000 + int(rng.integers(0, 500)), 4000 + int(rng.integers(0, 500))
    small = int(rng.integers(1, 4))
    ident = int(rng.integers(2500, 3500))
    k2 = Table(("Identification", "Elimination"), (ident, n1 - ident), (small, n2 - small))
    # K=6 at ~1e6 per row, with one zero different-source cell (infinite LR).
    k6_names = ("ID", "Inconcl.-A", "Inconcl.-B", "Inconcl.-C", "Elimination", "Other")
    k6_diff = _counts(rng, 1_000_000 + int(rng.integers(0, 1000)), 5, floor=1000)
    k6 = Table(k6_names, tuple(_counts(rng, 1_000_000 + int(rng.integers(0, 1000)), 6, floor=1000)),
               (0, *k6_diff))
    # K=20 at ~4e3 per row, one zero different-source cell.
    k20_names = tuple(f"Level-{i:02d}" for i in range(1, 21))
    k20_diff = _counts(rng, 4000, 20)
    zero_at = int(rng.integers(0, 20))
    k20_diff[zero_at] = 0
    k20 = Table(k20_names, tuple(_counts(rng, 4000, 20)), tuple(k20_diff))
    paths = {}
    for name, table in (("k2", k2), ("k6big", k6), ("k20", k20)):
        paths[name] = work / f"{name}.csv"
        table.write(paths[name], f"report-intervals seed {seed}")

    law_rng = np.random.default_rng([seed, 3])

    def boot_laws(table):
        return [C.bootstrap_law(table, k, law_rng, REFERENCE_SIZE, BOOTSTRAP_REPLICATES)
                for k in range(len(table.categories))]

    def dir_laws(table):
        return [C.dirichlet_law(table, k, law_rng, REFERENCE_SIZE, DIRICHLET_DRAWS)
                for k in range(len(table.categories))]

    pick = {name: int(rng.integers(0, len(t.categories))) for name, t in (("k6big", k6), ("k20", k20))}
    laws = {
        ("boot", "k2"): boot_laws(k2),
        ("boot", "k6big"): {pick["k6big"]: C.bootstrap_law(
            k6, pick["k6big"], law_rng, REFERENCE_SIZE, BOOTSTRAP_REPLICATES)},
        ("boot", "k20"): {pick["k20"]: C.bootstrap_law(
            k20, pick["k20"], law_rng, REFERENCE_SIZE, BOOTSTRAP_REPLICATES)},
        ("dir", "k2"): dir_laws(k2),
        ("dir", "k6big"): dir_laws(k6),
    }
    cli_seed = str(seed % 100_000)

    def report(name, table, fmt, method, level):
        argv = ["report", "--table", str(paths[name]), "--format", fmt, "--interval", method,
                "--seed", cli_seed, "--level", str(level)]
        family = {"bootstrap": "boot", "dirichlet": "dir"}[method]

        def check(code, out, err):
            C.expect_ok(code, err)
            if fmt == "json":
                C.check_report_json(out, table, name, laws=laws[(family, name)], level=level, method=method)
            else:
                C.check_lr_md(out, table)
        return Invocation(argv, check)

    def interval(name, table, k, method, level, workers):
        argv = ["interval", "--table", str(paths[name]), "--statement", table.categories[k],
                "--method", method, "--seed", cli_seed, "--level", str(level), "--workers", str(workers)]
        law = laws[({"bootstrap": "boot", "dirichlet": "dir"}[method], name)][k]

        def check(code, out, err):
            C.expect_ok(code, err)
            fields = out.strip().split("\t")
            C.require(len(fields) == 2, f"expected 'lower<TAB>upper', got {out.strip()!r}")
            lower, upper = (math.inf if f == "inf" else float(f) for f in fields)
            law.check(lower, upper, level, C.PLAIN_RTOL, table.categories[k])
        return Invocation(argv, check)

    # Ordered by typical latency.  The median falls inside the four K=2
    # Dirichlet intervals (equal cost: each draws whole rows) and the 90th
    # percentile inside the three K=6 Dirichlet reports, so each percentile
    # is taken within a group of several samples of one cost.
    cycle = [
        interval("k20", k20, pick["k20"], "bootstrap", 0.95, 1),
        interval("k6big", k6, pick["k6big"], "bootstrap", 0.9, 2),
        report("k2", k2, "json", "bootstrap", 0.95),
        interval("k2", k2, 0, "dirichlet", 0.95, 1),
        interval("k2", k2, 1, "dirichlet", 0.9, 1),
        interval("k2", k2, 0, "dirichlet", 0.8, 1),
        interval("k2", k2, 1, "dirichlet", 0.99, 1),
        report("k20", k20, "md", "bootstrap", 0.95),
        report("k6big", k6, "md", "dirichlet", 0.95),
        report("k6big", k6, "json", "dirichlet", 0.8),
        report("k6big", k6, "json", "dirichlet", 0.95),
    ]
    return Plan(cycle, min_cycles=2)


# ---- records-pipeline --------------------------------------------------------

RECORD_SIZES = (100_000, 1_000_000)
_RECORD_LABELS = ("ID", "Inconclusive, A", "Inconclusive, B", "Elimination", "Unsuitable")
_PROFILE_LABELS = ("ID", "Inconcl.-A", "Inconcl.-B", "Inconcl.-C", "Elimination", "Other")


def _records_file(path: Path, rng: np.random.Generator, size: int) -> tuple[list[str], list[int], list[int]]:
    """A raw-records file exercising the documented input variations.

    Columns in a non-canonical order plus extra ones, ``#`` comment lines,
    ``mated``/``nonmated`` aliases, quoted labels with commas, and padded
    labels.  Returns the expected tally: categories in first-appearance
    order with their same- and different-source counts.
    """
    width = len(_RECORD_LABELS)
    truth = rng.random(size) < 0.4
    statement = np.where(
        truth,
        rng.choice(width, size, p=[0.6, 0.15, 0.1, 0.05, 0.1]),
        rng.choice(width, size, p=[0.01, 0.1, 0.2, 0.6, 0.09]),
    )
    alias = rng.random(size) < 0.5
    same_tokens = ("same", "mated")
    diff_tokens = ("different", "nonmated")
    cells = ['"ID"', '"Inconclusive, A"', '"Inconclusive, B"', " Elimination ", "Unsuitable"]
    lines = ["# records generated by the benchmark", "item_id,examiner_id,session,statement,ground_truth,notes"]
    truth_l, statement_l, alias_l = truth.tolist(), statement.tolist(), alias.tolist()
    for i in range(size):
        if i % 50_000 == 0:
            lines.append(f"# block {i // 50_000}")
        token = same_tokens[alias_l[i]] if truth_l[i] else diff_tokens[alias_l[i]]
        lines.append(f"it{i},ex{i % 37},s{i % 5},{cells[statement_l[i]]},{token},n/a")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    order = list(dict.fromkeys(statement_l))
    same = np.bincount(statement[truth], minlength=width)
    diff = np.bincount(statement[~truth], minlength=width)
    return ([_RECORD_LABELS[k] for k in order], [int(same[k]) for k in order], [int(diff[k]) for k in order])


def records_pipeline(root: Path, work: Path, seed: int) -> Plan:
    """simulate (write path) and tally (read path) at 1e5 and 1e6 records."""
    rng = np.random.default_rng([seed, 4])
    cycle = []
    alloc_profile = None
    for size in RECORD_SIZES:
        tag = f"{size:.0e}".replace("+0", "")
        # profile probabilities are multiples of 1/1000, so they sum to 1 exactly
        p1 = [c / 1000 for c in _counts(rng, 1000, len(_PROFILE_LABELS), floor=5)]
        p2 = [c / 1000 for c in _counts(rng, 1000, len(_PROFILE_LABELS), floor=5)]
        n1 = int(size * 0.4)
        n2 = size - n1
        profile = work / f"profile-{tag}.cfg"
        profile.write_text(
            "[profile]\n"
            f"categories = {', '.join(_PROFILE_LABELS)}\n"
            f"p_given_h1 = {', '.join(map(str, p1))}\n"
            f"p_given_h2 = {', '.join(map(str, p2))}\n"
            f"n_h1 = {n1}\nn_h2 = {n2}\nseed = {seed % 100_000}\n",
            encoding="utf-8",
        )
        alloc_profile = alloc_profile or profile
        simulated = work / f"simulated-{tag}.csv"

        def check_simulate(code, out, err, simulated=simulated, p1=p1, p2=p2, n1=n1, n2=n2):
            C.expect_ok(code, err)
            C.check_simulated(simulated, _PROFILE_LABELS, p1, p2, n1, n2)

        records = work / f"records-{tag}.csv"
        categories, same, diff = _records_file(records, rng, size)
        tallied = work / f"tallied-{tag}.csv"

        def check_tally(code, out, err, tallied=tallied, expected=(categories, same, diff)):
            C.expect_ok(code, err)
            C.check_aggregated(tallied.read_text(encoding="utf-8"), *expected)

        table = Table(tuple(categories), tuple(same), tuple(diff))
        json_lr = size != RECORD_SIZES[0]

        def check_lr(code, out, err, table=table, study=tallied.stem, json_lr=json_lr):
            C.expect_ok(code, err)
            if json_lr:
                C.check_report_json(out, table, study)
            else:
                C.check_plain_lr(out, table)

        lr = Invocation(["lr", "--table", str(tallied)] + (["--format", "json"] if json_lr else []), check_lr)
        cycle += [
            Invocation(["simulate", "--profile", str(profile), "--out", str(simulated)], check_simulate,
                       simulated, records=size),
            Invocation(["tally", "--in", str(records), "--out", str(tallied)], check_tally, tallied, records=size),
            lr,
        ]
    return Plan(cycle, min_cycles=2, alloc_profile=alloc_profile)


WORKLOADS = {
    "point-queries": point_queries,
    "report-intervals": report_intervals,
    "records-pipeline": records_pipeline,
}
