"""Startup cost: commands that draw nothing must not import numpy.

The suite itself has numpy loaded, so each check runs a fresh interpreter.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catlr
from catlr.cli import run
from catlr.ingest import emit_aggregated

SRC = Path(catlr.__file__).resolve().parents[1]
SUMMARY_CSV = Path(catlr.__file__).resolve().parent / "data" / "summary_published.csv"

# runs catlr.cli.run(sys.argv[1:]) and reports the result and whether numpy loaded
_RUN = """
import io, json, sys
import catlr.cli
out, err = io.StringIO(), io.StringIO()
code = catlr.cli.run(sys.argv[1:], stdout=out, stderr=err)
json.dump([code, out.getvalue(), err.getvalue(), "numpy" in sys.modules], sys.stdout)
"""


def cold(script, *argv):
    """stdout of ``script`` run with ``argv`` in a fresh interpreter that imports this catlr."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def cold_run(*argv):
    """(exit code, stdout, stderr, numpy loaded) of ``catlr.cli.run(argv)`` in a fresh interpreter."""
    return tuple(json.loads(cold(_RUN, *argv)))


@pytest.fixture
def bullets_csv(tmp_path, bullets):
    path = tmp_path / "bullets.csv"
    path.write_text(emit_aggregated(bullets), encoding="utf-8")
    return str(path)


@pytest.fixture
def records_csv(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(
        "examiner_id,item_id,ground_truth,statement\n"
        "e1,i1,same,ID\n"
        "e2,i2,different,Elim\n",
        encoding="utf-8",
    )
    return str(path)


def test_import_loads_no_numpy():
    script = "import sys, catlr, catlr.cli; print('numpy' in sys.modules)"
    assert cold(script) == "False\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("lr", "--table", "{table}"),
        ("lr", "--table", "{table}", "--format", "md"),
        ("lr", "--table", "{table}", "--format", "csv"),
        ("lr", "--table", "{table}", "--format", "json"),
        ("report", "--table", "{table}", "--format", "md"),
        ("report", "--table", "{table}", "--format", "json"),
        ("report", "--summary", str(SUMMARY_CSV)),
        ("posterior", "--prior", "0.1", "--lr", "1000"),
        ("adjust", "--lr", "109", "--fraction", "0.01"),
        ("tally", "--in", "{records}"),
        ("--help",),
    ],
    ids=lambda argv: " ".join(a for a in argv if "{" not in a and "/" not in a),
)
def test_command_that_draws_nothing_loads_no_numpy(bullets_csv, records_csv, argv):
    argv = [a.format(table=bullets_csv, records=records_csv) for a in argv]
    code, out, err, numpy_loaded = cold_run(*argv)
    assert (code, err) == (0, "")
    assert out
    assert not numpy_loaded


@pytest.mark.parametrize("fmt", ["md", "csv"])
@pytest.mark.parametrize("method", ["bootstrap", "dirichlet"])
def test_md_or_csv_report_draws_no_interval(bullets_csv, fmt, method):
    # md and csv show point LRs only, so --interval changes nothing they print
    out, err = io.StringIO(), io.StringIO()
    assert run(["report", "--table", bullets_csv, "--format", fmt], stdout=out, stderr=err) == 0
    argv = ("report", "--table", bullets_csv, "--format", fmt, "--interval", method)
    assert cold_run(*argv) == (0, out.getvalue(), "", False)


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--profile", "{profile}"),
        ("interval", "--table", "{table}", "--statement", "ID",
         "--method", "bootstrap", "--seed", "42"),
        ("interval", "--table", "{table}", "--statement", "ID",
         "--method", "dirichlet", "--seed", "3", "--draws", "1000"),
    ],
    ids=["simulate", "bootstrap", "dirichlet"],
)
def test_drawing_command_prints_the_same_bytes_cold(tmp_path, bullets_csv, argv):
    profile = tmp_path / "profile.cfg"
    profile.write_text(
        "[profile]\ncategories = ID, Inconclusive, Elimination\n"
        "p_given_h1 = 0.75, 0.2, 0.05\np_given_h2 = 0.007, 0.5, 0.493\n"
        "n_h1 = 50\nn_h2 = 80\nseed = 42\n",
        encoding="utf-8",
    )
    argv = [a.format(table=bullets_csv, profile=profile) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, stdout=out, stderr=err) == 0
    assert cold_run(*argv) == (0, out.getvalue(), err.getvalue(), True)
