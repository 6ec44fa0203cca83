"""Startup cost: each command loads only the modules it runs.

The suite itself has every module loaded, so each check runs a fresh
interpreter and compares what it loaded with what ``python -c pass`` loads.
"""

import importlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import catlr
import catlr.fixtures
from catlr.cli import run
from catlr.ingest import emit_aggregated

SRC = Path(catlr.__file__).resolve().parents[1]
SUMMARY_CSV = Path(catlr.__file__).resolve().parent / "data" / "summary_published.csv"

# runs catlr.cli.run(sys.argv[1:]) and reports the result and the loaded
# modules; json is imported only after the modules are listed
_RUN = """
import io, sys
import catlr.cli
out, err = io.StringIO(), io.StringIO()
code = catlr.cli.run(sys.argv[1:], stdout=out, stderr=err)
loaded = sorted(sys.modules)
import json
json.dump([code, out.getvalue(), err.getvalue(), loaded], sys.stdout)
"""

_LOADED = "import sys; print(*sorted(sys.modules))"


def cold(script, *argv, options=()):
    """stdout of ``script`` run with ``argv`` in a fresh interpreter, started with the
    interpreter ``options``, that imports this catlr."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, *options, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


@cache
def bare_modules():
    """The modules a fresh interpreter loads before running any code."""
    return frozenset(cold(_LOADED).split())


def cold_run(*argv):
    """(exit code, stdout, stderr, modules loaded beyond a bare interpreter's)
    of ``catlr.cli.run(argv)`` in a fresh interpreter."""
    code, out, err, loaded = json.loads(cold(_RUN, *argv))
    return code, out, err, frozenset(loaded) - bare_modules()


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


@pytest.fixture
def profile_cfg(tmp_path):
    path = tmp_path / "profile.cfg"
    path.write_text(
        "[profile]\ncategories = ID, Inconclusive, Elimination\n"
        "p_given_h1 = 0.75, 0.2, 0.05\np_given_h2 = 0.007, 0.5, 0.493\n"
        "n_h1 = 50\nn_h2 = 80\nseed = 42\n",
        encoding="utf-8",
    )
    return str(path)


def test_import_loads_no_numpy():
    script = "import sys, catlr, catlr.cli; print('numpy' in sys.modules)"
    assert cold(script) == "False\n"


LIGHT = {"catlr", "catlr.cli", "catlr.model"}
TABLE = LIGHT | {"catlr.engine", "catlr.ingest"}
REPORT = TABLE | {"catlr.report"}
# each interval loads only its own solver
BOOTSTRAP = {"catlr.ingest", "catlr.binomratio", "catlr.uncertainty"}
COMPUTE = {"catlr.ingest", "catlr.betaratio", "catlr.uncertainty"}

# argparse and what it loads: catlr.cli parses its arguments from its own
# table.  Where a site hook loads shutil before any code runs, the shutil
# part of the check cannot fail.
PARSER_MODULES = {"argparse", "gettext", "locale", "shutil"}

# catlr names a study after its file with os.path, and its reader drops a
# leading byte-order mark from text decoded as plain UTF-8.  Where a site
# hook loads pathlib before any code runs, the pathlib part cannot fail.
FILE_MODULES = {"pathlib", "encodings.utf_8_sig"}

# (argv, the catlr modules it loads, whether it loads json)
COMMANDS = [
    (("lr", "--table", "{table}"), TABLE, False),
    (("lr", "--table", "{table}", "--format", "md"), REPORT, False),
    (("lr", "--table", "{table}", "--format", "csv"), REPORT, False),
    (("lr", "--table", "{table}", "--format", "json"), REPORT, True),
    (("report", "--table", "{table}"), REPORT, False),
    (("report", "--table", "{table}", "--format", "csv", "--interval", "bootstrap"),
     REPORT, False),
    (("report", "--table", "{table}", "--format", "json"), REPORT, True),
    (("report", "--table", "{table}", "--format", "json", "--interval", "dirichlet"),
     REPORT | COMPUTE, True),
    (("report", "--table", "{table}", "--format", "json", "--interval", "bootstrap"),
     REPORT | BOOTSTRAP, True),
    (("report", "--summary", str(SUMMARY_CSV)), REPORT, False),
    (("posterior", "--prior", "0.1", "--lr", "1000"), LIGHT | {"catlr.interpret"}, False),
    (("adjust", "--lr", "109", "--fraction", "0.01"), LIGHT | {"catlr.interpret"}, False),
    (("interval", "--table", "{table}", "--statement", "ID", "--method", "bootstrap"),
     LIGHT | BOOTSTRAP, False),
    (("interval", "--table", "{table}", "--statement", "ID", "--method", "dirichlet"),
     LIGHT | COMPUTE, False),
    (("tally", "--in", "{records}"), LIGHT | {"catlr.ingest", "catlr.records"}, False),
    (("simulate", "--profile", "{profile}"), LIGHT | {"catlr.ingest", "catlr.simulate"}, False),
    (("--help",), LIGHT, False),
]


@pytest.mark.parametrize(
    "argv, catlr_modules, json_loaded",
    COMMANDS,
    ids=[" ".join(a for a in argv if "{" not in a and "/" not in a) for argv, *_ in COMMANDS],
)
def test_command_loads_only_the_modules_it_runs(
    bullets_csv, records_csv, profile_cfg, argv, catlr_modules, json_loaded
):
    # simulate alone loads catlr.simulate, posterior and adjust alone
    # catlr.interpret, only interval commands catlr.uncertainty, only the
    # Dirichlet interval catlr.betaratio, and only the bootstrap
    # catlr.binomratio; no command loads numpy
    argv = [a.format(table=bullets_csv, records=records_csv, profile=profile_cfg) for a in argv]
    code, out, err, loaded = cold_run(*argv)
    assert (code, err) == (0, "")
    assert out
    assert {m for m in loaded if m.partition(".")[0] == "catlr"} == catlr_modules
    assert "numpy" not in loaded
    assert ("json" in loaded) == json_loaded
    assert "dataclasses" not in loaded
    assert not loaded & PARSER_MODULES
    assert not loaded & FILE_MODULES


@pytest.mark.parametrize("statement, printed", [("ID", "inf\tinf\n"), ("Elimination", "0\t0\n")])
def test_bootstrap_interval_of_a_settled_statement_loads_no_solver(tmp_path, statement, printed):
    # a count of 0 in one row settles the bootstrap law at inf or at 0
    table = tmp_path / "settled.csv"
    table.write_text("statement,same_source_count,different_source_count\n"
                     "ID,100,0\nInconclusive,6,10\nElimination,0,40\n", encoding="utf-8")
    code, out, err, loaded = cold_run("interval", "--table", str(table), "--statement", statement,
                                      "--method", "bootstrap")
    assert (code, out, err) == (0, printed, "")
    assert {m for m in loaded if m.partition(".")[0] == "catlr"} == LIGHT | BOOTSTRAP - {"catlr.binomratio"}


# annotations are strings, so no command needs typing, nor contextlib, which
# typing loads.  A site hook may load typing before any code runs, so the
# interpreter starts without site (-S).
SITE_FREE = [
    ("lr", "--table", "{table}", "--format", "md"),
    ("report", "--table", "{table}", "--format", "json", "--interval", "dirichlet"),
    ("report", "--table", "{table}", "--format", "json", "--interval", "bootstrap"),
    ("interval", "--table", "{table}", "--statement", "ID", "--method", "bootstrap"),
    ("interval", "--table", "{table}", "--statement", "ID", "--method", "dirichlet"),
]


@pytest.mark.parametrize(
    "argv", SITE_FREE, ids=[" ".join(a for a in argv if "{" not in a) for argv in SITE_FREE]
)
def test_command_without_site_loads_no_typing(bullets_csv, argv):
    argv = [a.format(table=bullets_csv) for a in argv]
    code, out, err, loaded = json.loads(cold(_RUN, *argv, options=("-S",)))
    assert (code, err) == (0, "")
    assert out
    assert "site" not in loaded
    assert not {"typing", "contextlib"} & set(loaded)


# evaluates the call sys.argv[1] and reports its value's repr and the
# loaded modules; json is imported only after the modules are listed
_BUNDLED = """
import sys
import catlr, catlr.fixtures
value = eval(sys.argv[1])
loaded = sorted(sys.modules)
import json
json.dump([repr(value), loaded], sys.stdout)
"""

BUNDLED_READS = [
    *(f"catlr.bundled_scale({name!r})" for name in catlr.BUNDLED_SCALES),
    "catlr.fixtures.bullets_csv()",
    "catlr.fixtures.bullets_table()",
    "catlr.fixtures.published_summary()",
    *(f"catlr.fixtures.appendix_table({study!r})" for study in catlr.fixtures.APPENDIX_STUDIES),
]


@pytest.mark.parametrize("call", BUNDLED_READS)
def test_bundled_file_is_read_without_importlib_resources(call):
    # a bundled file is read as a user's file is: from its path, by the
    # input-file rule, with no resource-loader import
    value, loaded = json.loads(cold(_BUNDLED, call, options=("-S",)))
    assert value == repr(eval(call, {"catlr": catlr}))
    assert not {"importlib.resources", "pathlib", "zipfile"} & set(loaded)


# runs a tally of the file at sys.argv[1] as on two CPUs, counting forks; the
# forked children exit without printing
_FORKED_TALLY = """
import io, os, sys
import catlr.cli
os.sched_getaffinity = lambda pid: {0, 1}
forks = 0
fork = os.fork

def counting_fork():
    global forks
    forks += 1
    return fork()

os.fork = counting_fork
code = catlr.cli.run(["tally", "--in", sys.argv[1]], stdout=io.StringIO(), stderr=io.StringIO())
print(code, forks, "signal" in sys.modules)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks only with os.fork")
def test_a_forked_tally_loads_no_signal_module(tmp_path):
    # signal serves only to stop children left running after a failure
    path = tmp_path / "records.csv"
    rows = "".join(f"it{n},ex{n % 37},s{n % 5},ID,same\n" for n in range(90_000))
    path.write_text("item_id,examiner_id,session,statement,ground_truth\n" + rows, encoding="utf-8")
    assert path.stat().st_size >= 2 << 20
    code, forks, signal_loaded = cold(_FORKED_TALLY, str(path)).split()
    assert (code, forks) == ("0", "1")
    # where a site hook loads signal before any code runs, this part cannot fail
    assert signal_loaded == str("signal" in bare_modules())


def test_usage_error_loads_no_parser_module():
    code, out, err, loaded = cold_run("lr", "--table", "t.csv", "--format", "xml")
    assert (code, out) == (1, "")
    assert err.startswith("usage error: argument --format: invalid choice: 'xml'")
    assert {m for m in loaded if m.partition(".")[0] == "catlr"} == LIGHT
    assert not loaded & PARSER_MODULES


def test_import_catlr_loads_no_submodule():
    script = "import sys, catlr; print(*sorted(m for m in sys.modules if m.startswith('catlr')))"
    assert cold(script) == "catlr\n"


def test_every_public_name_resolves_and_is_listed():
    listed = dir(catlr)
    for name in catlr.__all__:
        getattr(catlr, name)
        assert name in listed


def test_every_module_qualified_name_in_the_readme_resolves():
    # `uncertainty.x`, `catlr.records._cut` or `catlr.fixtures.bullets_table()`:
    # a name the README still cites after its code is gone fails here
    modules = "|".join(m.name for m in pkgutil.iter_modules(catlr.__path__))
    readme = (SRC.parent / "README.md").read_text("utf-8")
    cited = re.findall(rf"`(?:catlr\.)?({modules})\.(\w+)(?:\([^`]*\))?`", readme)
    assert len(set(cited)) >= 10
    for module, name in set(cited):
        assert hasattr(importlib.import_module(f"catlr.{module}"), name), f"{module}.{name}"


def test_records_writer_resolves_to_simulate_alone():
    # the writer sits beside RecordBatch, whose id rule it writes; records keeps no copy
    import catlr.records
    import catlr.simulate

    assert catlr.emit_records is catlr.simulate.emit_records
    assert not hasattr(catlr.records, "emit_records")


def test_submodules_are_package_attributes_after_a_bare_import():
    # in a fresh interpreter, so that no earlier import has bound them
    script = (
        "import catlr, types\n"
        "names = ('betaratio', 'binomratio', 'engine', 'ingest', 'interpret', 'model', 'report',"
        " 'simulate', 'uncertainty')\n"
        "assert all(isinstance(getattr(catlr, n), types.ModuleType) for n in names)\n"
        "assert set(names) <= set(dir(catlr))\n"
        "print(catlr.report.render_lr_table.__module__)"
    )
    assert cold(script) == "catlr.report\n"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from catlr import *", namespace)
    assert set(catlr.__all__) <= set(namespace)


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'tabulate'"):
        catlr.tabulate
    assert not hasattr(catlr, "_private")


@pytest.mark.parametrize("fmt", ["md", "csv"])
@pytest.mark.parametrize("method", ["bootstrap", "dirichlet"])
def test_md_or_csv_report_draws_no_interval(bullets_csv, fmt, method):
    # md and csv show point LRs only, so --interval changes nothing they print
    out, err = io.StringIO(), io.StringIO()
    assert run(["report", "--table", bullets_csv, "--format", fmt], stdout=out, stderr=err) == 0
    argv = ("report", "--table", bullets_csv, "--format", fmt, "--interval", method)
    code, cold_out, err, loaded = cold_run(*argv)
    assert (code, cold_out, err) == (0, out.getvalue(), "")
    assert "numpy" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--profile", "{profile}"),
        ("interval", "--table", "{table}", "--statement", "ID", "--method", "bootstrap", "--seed", "42"),
        ("interval", "--table", "{table}", "--statement", "ID", "--method", "dirichlet"),
        ("report", "--table", "{table}", "--format", "json", "--interval", "dirichlet"),
    ],
    ids=["simulate", "bootstrap", "dirichlet", "dirichlet-report"],
)
def test_interval_or_simulate_prints_the_same_bytes_cold(bullets_csv, profile_cfg, argv):
    # a fresh interpreter, with no numpy loaded
    argv = [a.format(table=bullets_csv, profile=profile_cfg) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, stdout=out, stderr=err) == 0
    code, cold_out, cold_err, loaded = cold_run(*argv)
    assert (code, cold_out, cold_err) == (0, out.getvalue(), err.getvalue())
    assert "numpy" not in loaded
