"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (visible with ``pytest -s``).  Tolerances are fixed here
and nowhere else."""

import io
import math
import random
import time
from fractions import Fraction

from catlr import fixtures
from catlr.cli import run as cli_run
from catlr.engine import (
    conditional_probability,
    full_table_lrs,
    likelihood_ratio,
    lr_from_error_rates,
)
from catlr.ingest import emit_aggregated, parse_aggregated
from catlr.interpret import hardness_adjust, posterior_probability
from catlr.model import ConfusionTable, GroundTruth
from catlr.records import tally
from catlr.report import render_lr_table, render_summary_table
from catlr.simulate import PanelProfile, simulate_study, true_lr
from catlr.uncertainty import bootstrap_interval

SAME = GroundTruth.SAME_SOURCE
DIFF = GroundTruth.DIFFERENT_SOURCE


def gate(num, name, ok, detail=""):
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_bullets_end_to_end_display_row(golden):
    started = time.perf_counter()
    table = parse_aggregated(fixtures.bullets_csv(), study_name="bullets")
    markdown = render_lr_table(table, "md")
    elapsed = time.perf_counter() - started
    row_ok = (
        markdown.splitlines()[-1] == "| LR | 109 | 1 | 1 / 3 | 1 / 10 | 1 / 12 | 1 |"
    )
    golden_ok = markdown == golden("bullets_lr.md")
    gate(
        1,
        "tally-to-display end to end",
        row_ok and golden_ok and elapsed < 1.0,
        f"elapsed={elapsed:.3f}s",
    )


def test_02_worked_example_probabilities(bullets):
    p1 = conditional_probability(bullets, "ID", SAME)
    p2 = conditional_probability(bullets, "ID", DIFF)
    est = likelihood_ratio(bullets, "ID")
    rational_ok = (
        Fraction(est.h1_count, est.h1_total) == Fraction(1076, 1429)
        and Fraction(est.h2_count, est.h2_total) == Fraction(20, 2891)
        and p1 == 1076 / 1429
        and p2 == 20 / 2891
    )
    digits_ok = abs(p1 - 0.7530) <= 5e-5 and abs(p2 - 0.006918) <= 5e-7
    gate(2, "worked-example probabilities", rational_ok and digits_ok,
         f"p1={p1:.6f} p2={p2:.8f}")


def test_03_two_statement_identity():
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(1000):
        table = ConfusionTable(
            ("ID", "Elimination"),
            (rng.randint(0, 500), rng.randint(0, 500)),
            (rng.randint(1, 500), rng.randint(0, 500)),
        )
        if table.row_total(SAME) == 0:
            table = ConfusionTable(("ID", "Elimination"), (1, 0), table.different_source)
        fnr = table.count(SAME, "Elimination") / table.row_total(SAME)
        fpr = table.count(DIFF, "ID") / table.row_total(DIFF)
        shortcut = lr_from_error_rates(fnr, fpr)
        direct = likelihood_ratio(table, "ID").lr
        if direct > 0:
            worst = max(worst, abs(shortcut - direct) / direct)
        else:
            worst = max(worst, abs(shortcut - direct))
    gate(3, "error-rate shortcut identity", worst <= 1e-12, f"max rel diff={worst:.2e}")


def test_04_posterior_anchor():
    p = posterior_probability(0.10, 1000)
    gate(4, "posterior anchor", abs(p - 0.9911) <= 1e-4 and round(p, 2) == 0.99,
         f"posterior={p:.6f}")


def test_05_hardness_anchor():
    ok = (
        hardness_adjust(109, 0.01) == 109 / 100
        and hardness_adjust(376, 0.01) == 376 / 100
    )
    gate(5, "hardest-fraction anchor", ok,
         f"109 -> {hardness_adjust(109, 0.01)}, 376 -> {hardness_adjust(376, 0.01)}")


def test_06_calibration_identity(bullets):
    rng = random.Random(77)
    tables = [bullets]
    for _ in range(1000):
        size = rng.randint(1, 6)
        tables.append(
            ConfusionTable(
                tuple(f"c{i}" for i in range(size)),
                tuple(rng.randint(1, 2000) for _ in range(size)),
                tuple(rng.randint(1, 2000) for _ in range(size)),
            )
        )
    worst = 0.0
    for table in tables:
        ests = full_table_lrs(table)
        worst = max(
            worst,
            abs(math.fsum(e.p_given_h2 * e.lr for e in ests) - 1.0),
            abs(math.fsum(e.p_given_h1 / e.lr for e in ests) - 1.0),
        )
    gate(6, "calibration identity", worst <= 1e-12, f"max |sum-1|={worst:.2e}")


def test_07_simulator_consistency(bullets):
    started = time.perf_counter()
    truth = {e.statement: e.lr for e in full_table_lrs(bullets)}

    profile_large = PanelProfile.from_table(bullets, 10**6, 10**6, seed=4)
    table_large = tally(simulate_study(profile_large), vocabulary=bullets.categories)
    rel_large = {
        e.statement: abs(e.lr / truth[e.statement] - 1.0)
        for e in full_table_lrs(table_large)
    }

    profile_small = PanelProfile.from_table(bullets, 10**3, 10**3, seed=4)
    table_small = tally(simulate_study(profile_small), vocabulary=bullets.categories)
    rel_small_id = abs(
        likelihood_ratio(table_small, "ID").lr / truth["ID"] - 1.0
    )
    elapsed = time.perf_counter() - started
    ok = (
        max(rel_large.values()) <= 0.03
        and rel_small_id <= 0.35
        and elapsed < 30.0
    )
    gate(
        7,
        "simulator consistency",
        ok,
        f"max rel(1e6)={max(rel_large.values()):.4f}, "
        f"ID rel(1e3)={rel_small_id:.4f}, elapsed={elapsed:.1f}s",
    )


def test_08_bootstrap_coverage():
    started = time.perf_counter()
    categories = ("w", "x", "y", "z")
    p1 = (0.55, 0.25, 0.12, 0.08)
    p2 = (0.05, 0.35, 0.30, 0.30)
    assert min(p1) >= 0.02 and min(p2) >= 0.02
    studies = 500
    covered = 0
    for s in range(studies):
        profile = PanelProfile(categories, p1, p2, 1000, 1000, seed=1000 + s)
        table = tally(simulate_study(profile), vocabulary=categories)
        interval = bootstrap_interval(table, "w")
        if interval.contains(true_lr(profile, "w")):
            covered += 1
    coverage = covered / studies
    elapsed = time.perf_counter() - started
    gate(
        8,
        "bootstrap coverage",
        0.91 <= coverage <= 0.99 and elapsed < 300.0,
        f"coverage={coverage:.3f}, elapsed={elapsed:.0f}s",
    )


def test_09_seeded_commands_byte_identical(tmp_path, bullets):
    table_path = tmp_path / "bullets.csv"
    table_path.write_text(emit_aggregated(bullets), encoding="utf-8")
    profile_path = tmp_path / "profile.cfg"
    profile_path.write_text(
        "[profile]\n"
        "categories = a, b, c\n"
        "p_given_h1 = 0.6, 0.3, 0.1\n"
        "p_given_h2 = 0.1, 0.3, 0.6\n"
        "n_h1 = 400\nn_h2 = 400\nseed = 31\n",
        encoding="utf-8",
    )

    def invoke(*argv):
        out, err = io.StringIO(), io.StringIO()
        code = cli_run(list(argv), stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()

    interval_args = (
        "interval", "--table", str(table_path), "--statement", "ID",
        "--method", "bootstrap", "--seed", "42",
    )
    runs = [invoke(*interval_args) for _ in range(2)]
    runs += [invoke(*interval_args, "--workers", "4") for _ in range(2)]
    interval_ok = len({r[1] for r in runs}) == 1 and all(r[0] == 0 for r in runs)

    # the Dirichlet interval is computed, not drawn: the same bytes for any seed
    dirichlet_args = (
        "interval", "--table", str(table_path), "--statement", "Elimination",
        "--method", "dirichlet",
    )
    dirichlet_runs = [invoke(*dirichlet_args, "--seed", seed) for seed in ("8", "8", "9")]
    dirichlet_ok = len(set(dirichlet_runs)) == 1 and dirichlet_runs[0][0] == 0

    simulate_args = ("simulate", "--profile", str(profile_path))
    simulate_ok = invoke(*simulate_args) == invoke(*simulate_args)

    gate(
        9,
        "seeded determinism (incl. parallel)",
        interval_ok and dirichlet_ok and simulate_ok,
        f"interval bytes={runs[0][1].strip()!r}",
    )


EXPECTED_SUMMARY_ROWS = [
    "| pattern type from bloodstain pattern | 6 | 1 / 4 |",
    "| writer from handwriting sample | 17 | 1 / 28 |",
    "| firearm from cartridge | 81 | 1 / 28 |",
    "| firearm from bullet | 109 | 1 / 12 |",
    "| footwear from print | 113 | 1 / 7 |",
    "| person from latent fingerprints | 376 | 1 / 11 |",
]

EXPECTED_APPENDIX_ROWS = {
    "bloodstain": [
        "| identification ('definitive') | 6 |",
        "| possible ('included') | 1 |",
        "| excluded | 1 / 4 |",
    ],
    "handwriting": [
        "| The questioned sample was written by the known writer | 17 |",
        "| The questioned sample was probably written by the known writer | 7 |",
        "| No conclusion | 1 / 2 |",
        "| The questioned sample was probably not written by the known writer | 1 / 22 |",
        "| The questioned sample was not written by the known writer | 1 / 28 |",
    ],
    "footwear": [
        "| identification | 113 |",
        "| high association | 13 |",
        "| association | 1 |",
        "| limited association | 1 |",
        "| no association | 1 / 6 |",
        "| exclusion | 1 / 7 |",
        "| inconclusive | 1 / 2 |",
        "| not suitable | 1 / 2 |",
    ],
    "cartridge": [
        "| identification | 81 |",
        "| inconclusive A | 2 |",
        "| inconclusive B | 1 / 2 |",
        "| inconclusive C | 1 / 14 |",
        "| elimination | 1 / 28 |",
        "| other | 1 |",
    ],
    "fingerprint": [
        "| individualisation | 376 |",
        "| inconclusive | 2 |",
        "| exclusion | 1 / 11 |",
    ],
}


def test_10_published_display_value_regression():
    headers, rows = fixtures.published_summary()
    summary_md = render_summary_table(rows, "md", headers=("",) + headers[1:])
    summary_ok = summary_md.splitlines()[2:] == EXPECTED_SUMMARY_ROWS

    appendix_ok = True
    detail = []
    for study, expected in EXPECTED_APPENDIX_ROWS.items():
        headers, rows = fixtures.appendix_table(study)
        rendered = render_summary_table(rows, "md", headers=("",) + headers[1:])
        if rendered.splitlines()[2:] != expected:
            appendix_ok = False
            detail.append(study)
    gate(
        10,
        "published display-value regression",
        summary_ok and appendix_ok,
        "mismatch: " + ", ".join(detail) if detail else "all rows verbatim",
    )
