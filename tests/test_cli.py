import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catlr import cli, fixtures
from catlr.cli import run
from catlr.engine import NO_SMOOTHING, SmoothingPolicy
from catlr.ingest import emit_aggregated, parse_aggregated
from catlr.model import FORMATS, INTERVAL_METHOD_NAMES, MAX_ROW_TOTAL, ConfusionTable, DataError
from catlr.records import parse_records, tally
from catlr.report import build_report, canonical_json, render_lr_table
from catlr.simulate import emit_records, load_profile, simulate_study

PROFILE_CFG = """
[profile]
categories = ID, Inconclusive, Elimination
p_given_h1 = 0.75, 0.2, 0.05
p_given_h2 = 0.007, 0.5, 0.493
n_h1 = 50
n_h2 = 80
seed = 42
"""


def _subprocess_env(**overrides):
    """The environment of a ``python -m catlr.cli`` subprocess that imports this catlr."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **overrides}


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


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
        "e2,i2,same,Elim\n"
        "e3,i3,different,ID\n"
        "e4,i4,different,Elim\n",
        encoding="utf-8",
    )
    return str(path)


class TestExitCodes:
    def test_no_arguments_is_usage_error(self):
        code, _, err = invoke()
        assert code == 1
        assert "usage error" in err

    def test_unknown_flag_is_usage_error(self, bullets_csv):
        code, _, err = invoke("lr", "--table", bullets_csv, "--bogus")
        assert code == 1
        assert "bogus" in err

    def test_missing_file_is_data_error(self):
        code, _, err = invoke("lr", "--table", "/does/not/exist.csv")
        assert code == 2
        assert "data error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("report", "--format", "md"),
            ("report", "--format", "json"),
            ("interval", "--statement", "ID", "--method", "bootstrap"),
        ],
    )
    def test_missing_table_is_data_error(self, argv):
        code, out, err = invoke(*argv, "--table", "/does/not/exist.csv")
        assert (code, out) == (2, "")
        assert err.startswith("data error")

    @pytest.mark.parametrize("fmt", [(), ("--format", "md")])
    def test_records_file_as_table_is_data_error(self, records_csv, fmt):
        code, out, err = invoke("lr", "--table", records_csv, *fmt)
        assert (code, out) == (2, "")
        assert "header has the raw-records columns; tally such a file first with 'catlr tally'" in err

    def test_unknown_header_names_expected_schemas(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("colA,colB\n1,2\n", encoding="utf-8")
        code, _, err = invoke("lr", "--table", str(bad))
        assert code == 2
        assert "statement,same_source_count,different_source_count" in err

    def test_malformed_table_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("statement,same_source_count,different_source_count\na,-1,2\n")
        code, _, err = invoke("lr", "--table", str(bad))
        assert code == 2
        assert "negative" in err

    def test_help_exits_zero(self):
        code, out, _ = invoke("--help")
        assert code == 0
        assert "tally" in out

    def test_invalid_smoothing_is_usage_error(self, bullets_csv):
        code, _, err = invoke("lr", "--table", bullets_csv, "--smoothing", "magic")
        assert code == 1
        assert "smoothing" in err

    @pytest.mark.parametrize("value", ["alpha=abc", "alpha=0", "alpha=nan"])
    def test_smoothing_alpha_that_is_not_a_positive_number_is_usage_error(
        self, bullets_csv, value
    ):
        code, out, err = invoke("lr", "--table", bullets_csv, "--smoothing", value)
        assert (code, out) == (1, "")
        assert err == (
            f"usage error: argument --smoothing: invalid smoothing {value!r}: "
            "expected 'none' or 'alpha=<positive number>'\n"
        )


COMMAND_NAMES = ("tally", "lr", "report", "posterior", "adjust", "interval", "simulate")


class TestParser:
    # each usage error below is pinned as argparse printed it, byte for byte
    @pytest.mark.parametrize(
        "argv, message",
        [
            ((), "the following arguments are required: command"),
            (("bogus",), "argument command: invalid choice: 'bogus' (choose from "
             "'tally', 'lr', 'report', 'posterior', 'adjust', 'interval', 'simulate')"),
            (("lr",), "the following arguments are required: --table"),
            (("interval", "--table", "t.csv"), "the following arguments are required: --statement, --method"),
            (("lr", "--table", "t.csv", "--format", "xml"),
             "argument --format: invalid choice: 'xml' (choose from 'md', 'csv', 'json')"),
            (("report", "--table", "t.csv", "--level", "high"),
             "argument --level: invalid float value: 'high'"),
            (("interval", "--table", "t.csv", "--statement", "ID", "--method", "bootstrap", "--seed", "x"),
             "argument --seed: invalid int value: 'x'"),
            (("tally", "--in"), "argument --in: expected one argument"),
            (("lr", "--table", "--format", "md"), "argument --table: expected one argument"),
            (("lr", "--table", "-x.csv"), "argument --table: expected one argument"),
            (("lr", "--table", "t.csv", "--draws", "5"), "unrecognized arguments: --draws 5"),
            (("lr", "--table", "t.csv", "--", "x"), "unrecognized arguments: -- x"),
            (("lr", "--draws", "5"), "the following arguments are required: --table"),
            (("report", "--s", "x"), "ambiguous option: --s could match --summary, --smoothing, --seed"),
            (("report", "--s=x"), "ambiguous option: --s=x could match --summary, --smoothing, --seed"),
        ],
    )
    def test_usage_error(self, argv, message):
        assert invoke(*argv) == (1, "", f"usage error: {message}\n")

    @pytest.mark.parametrize(
        "argv, fmt",
        [
            (("lr", "--table={table}"), ()),
            (("lr", "--tab", "{table}"), ()),
            (("lr", "--table", "missing.csv", "--table", "{table}"), ()),
            (("lr", "--t={table}", "--f", "md", "--fo=csv"), ("--format", "csv")),
        ],
        ids=["equals", "prefix", "last-wins", "prefix-equals-repeated"],
    )
    def test_accepted_option_forms(self, bullets_csv, argv, fmt):
        argv = [a.format(table=bullets_csv) for a in argv]
        assert invoke(*argv) == invoke("lr", "--table", bullets_csv, *fmt)

    def test_deprecated_seed_and_workers_are_accepted_and_ignored(self, bullets_csv):
        base = ("interval", "--table", bullets_csv, "--statement", "ID", "--method", "bootstrap",
                "--level", "0.9")
        code, out, err = invoke(*base, "--seed", "3", "--workers", "2")
        assert (code, err) == (0, "")
        assert (code, out, err) == invoke(*base)

    @pytest.mark.parametrize("value", ["-2", "-.5"])
    def test_negative_number_is_a_value(self, value):
        code, out, err = invoke("posterior", "--prior", "0.1", "--lr", value)
        assert (code, out) == (2, "")
        assert err == f"data error: likelihood ratio must be >= 0 or infinite, got {float(value)!r}\n"

    @pytest.mark.parametrize("argv", [("--help",), ("-h",), ("bogus",)])
    def test_main_help_and_invalid_choice_list_every_command(self, argv):
        code, out, err = invoke(*argv)
        listing = out if code == 0 else err
        assert all(name in listing for name in COMMAND_NAMES)
        if code == 0:
            assert (out.startswith("usage: catlr"), err) == (True, "")

    @pytest.mark.parametrize("name", COMMAND_NAMES)
    @pytest.mark.parametrize("flag", ["--help", "-h", "--he"])
    def test_command_help_lists_its_options(self, name, flag):
        # help is acted on where it stands: what comes before or after it is not checked
        code, out, err = invoke(name, "--lr", "2", flag, "--bogus")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: catlr {name} ")
        _, _, options = cli._COMMANDS[name]
        assert all(f"  {option.flag} " in out for option in options)

    def test_no_flag_is_a_prefix_of_another(self):
        # so that an exact flag is always its own unique prefix
        for _, _, options in cli._COMMANDS.values():
            flags = [option.flag for option in options] + ["--help"]
            assert not [(a, b) for a in flags for b in flags if a != b and b.startswith(a)]


class TestNonUtf8Input:
    BAD = b"\xff\xfe"

    @pytest.mark.parametrize(
        "argv, content",
        [
            (("lr", "--table"), b"statement,same_source_count,different_source_count\n"),
            (
                ("interval", "--statement", "ID", "--method", "bootstrap", "--table"),
                b"statement,same_source_count,different_source_count\nID,1,2\n",
            ),
            (("report", "--summary"), b"name,lr\n"),
            (
                ("tally", "--in"),
                b"examiner_id,item_id,ground_truth,statement\n"
                + b"".join(b"e%d,i%d,same,ID\n" % (n, n) for n in range(1000)),
            ),
            (("simulate", "--profile"), b"[profile]\ncategories = a\n"),
        ],
        ids=["lr", "interval", "report", "tally", "simulate"],
    )
    def test_is_data_error_naming_the_file(self, tmp_path, argv, content):
        path = tmp_path / "input.txt"
        path.write_bytes(content + self.BAD + b",1,2\n")
        code, out, err = invoke(*argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"data error: {path}: not valid UTF-8 (")
        assert "Traceback" not in err


class TestContentErrorNamesTheFile:
    @pytest.mark.parametrize(
        "argv, content, message",
        [
            (
                ("lr", "--table"),
                "statement,same_source_count,different_source_count\nID,x,2\n",
                "line 2: count 'x' is not an integer",
            ),
            (
                ("interval", "--statement", "ID", "--method", "dirichlet", "--table"),
                "statement,same_source_count,different_source_count\n",
                "aggregated table has a header but no category rows",
            ),
            (("report", "--summary"), "study,LR\na,1,2\n", "line 2: expected 2 cells, got 3"),
            (
                ("tally", "--in"),
                "examiner_id,item_id,ground_truth,statement\ne1,i1,same,ID\ne2,i2,maybe,ID\n",
                "line 3: unknown ground-truth token 'maybe'",
            ),
            (
                ("tally", "--in"),
                "examiner_id,item_id,ground_truth,statement\n",
                "cannot tally zero records without a declared vocabulary",
            ),
            (
                ("simulate", "--profile"),
                PROFILE_CFG.replace("0.75, 0.2, 0.05", "0.75, 0.2, 0.15"),
                "p_given_h1 must sum to 1, got 1.1",
            ),
        ],
        ids=["lr", "interval", "summary", "tally", "tally-header-only", "simulate"],
    )
    def test_message_starts_with_the_path(self, tmp_path, argv, content, message):
        path = tmp_path / "input.txt"
        path.write_text(content, encoding="utf-8")
        code, out, err = invoke(*argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"data error: {path}: {message}")

    ZERO_ROW = "statement,same_source_count,different_source_count\nID,5,0\nElim,3,0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("lr",),
            ("lr", "--format", "json"),
            ("report", "--format", "md"),
            ("report", "--format", "json", "--interval", "dirichlet"),
            ("report", "--format", "json", "--interval", "bootstrap"),
            ("interval", "--statement", "ID", "--method", "dirichlet"),
            ("interval", "--statement", "ID", "--method", "bootstrap"),
        ],
        ids=["lr", "lr-json", "report-md", "report-dirichlet", "report-bootstrap",
             "interval-dirichlet", "interval-bootstrap"],
    )
    def test_error_found_after_the_read_names_the_file(self, tmp_path, argv):
        # the table parses, but its different-source row has no observations
        path = tmp_path / "zero_row.csv"
        path.write_text(self.ZERO_ROW, encoding="utf-8")
        code, out, err = invoke(*argv, "--table", str(path))
        assert (code, out) == (2, "")
        assert err == f"data error: {path}: no observations under hypothesis 'different'\n"

    TABLE_COMMANDS = pytest.mark.parametrize(
        "argv",
        [
            ("lr",),
            ("lr", "--format", "json"),
            ("lr", "--smoothing", "alpha=0.5"),
            ("report", "--format", "csv"),
            ("report", "--format", "json", "--interval", "dirichlet"),
            ("report", "--format", "json", "--interval", "bootstrap"),
            ("interval", "--statement", "ID", "--method", "dirichlet"),
            ("interval", "--statement", "ID", "--method", "bootstrap"),
        ],
    )

    @TABLE_COMMANDS
    @pytest.mark.parametrize("total", [10**400, MAX_ROW_TOTAL + 1], ids=["1e400", "max+1"])
    def test_row_total_past_the_limit_names_the_file(self, tmp_path, argv, total):
        path = tmp_path / "huge.csv"
        path.write_text(f"statement,same_source_count,different_source_count\nID,{total - 1},1\n"
                        "Elim,1,1\n", encoding="utf-8")
        code, out, err = invoke(*argv, "--table", str(path))
        assert (code, out) == (2, "")
        assert err == f"data error: {path}: same_source counts sum past 2**1023 = {2.0**1023!r}\n"

    @TABLE_COMMANDS
    @pytest.mark.parametrize("total", [10**300, MAX_ROW_TOTAL], ids=["1e300", "max"])
    def test_row_totals_up_to_the_limit_render(self, tmp_path, argv, total):
        # a count near the row total beside small ones, and a row split in halves
        path = tmp_path / "large.csv"
        path.write_text(f"statement,same_source_count,different_source_count\nID,{total - 7},3\n"
                        f"Inconclusive,4,{total // 2}\nElim,3,{total - total // 2 - 3}\n",
                        encoding="utf-8")
        code, out, err = invoke(*argv, "--table", str(path))
        assert (code, err) == (0, ""), argv
        if "json" in argv:
            assert out == canonical_json(json.loads(out))

    def test_unknown_statement_names_the_file_it_is_not_in(self, bullets_csv):
        code, out, err = invoke(
            "interval", "--table", bullets_csv, "--statement", "zz", "--method", "dirichlet"
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"data error: {bullets_csv}: unknown statement 'zz'; categories are ")

    DIRICHLET = ("interval", "--statement", "ID", "--method", "dirichlet")
    BOOTSTRAP = ("interval", "--statement", "ID", "--method", "bootstrap")
    JSON_REPORT = ("report", "--format", "json", "--interval")
    LEVEL = "level must be in (0, 1), got "
    SEED = "seed must be a non-negative integer, got -1"
    ROUNDS_TO_ONE = (
        "level must be at most 0.9999999999999998, got 0.9999999999999999: "
        "its upper quantile 1 - (1 - level) / 2 rounds to 1"
    )

    @pytest.mark.parametrize(
        "argv, message",
        [
            ((*DIRICHLET, "--level", "1.5"), LEVEL + "1.5"),
            ((*DIRICHLET, "--alpha", "0"), "alpha must be a positive finite number, got 0.0"),
            ((*DIRICHLET, "--alpha", "1e101"), "alpha must be from 1e-100 to 1e+100, got 1e+101"),
            ((*DIRICHLET, "--seed", "-1"), SEED),
            # the seed is checked first, then the level, then alpha
            ((*DIRICHLET, "--alpha", "0", "--level", "0", "--seed", "-1"), SEED),
            ((*DIRICHLET, "--alpha", "0", "--level", "0"), LEVEL + "0.0"),
            ((*DIRICHLET, "--level", "0.9999999999999999"), ROUNDS_TO_ONE),
            ((*BOOTSTRAP, "--seed", "-1"), SEED),
            ((*BOOTSTRAP, "--level", "0"), LEVEL + "0.0"),
            ((*BOOTSTRAP, "--seed", "-1", "--level", "0"), SEED),
            ((*BOOTSTRAP, "--level", "0.9999999999999999"), ROUNDS_TO_ONE),
            ((*JSON_REPORT, "bootstrap", "--level", "1.5"), LEVEL + "1.5"),
            ((*JSON_REPORT, "bootstrap", "--seed", "-1"), SEED),
            ((*JSON_REPORT, "bootstrap", "--level", "0.9999999999999999"), ROUNDS_TO_ONE),
            ((*JSON_REPORT, "dirichlet", "--level", "1.5"), LEVEL + "1.5"),
            ((*JSON_REPORT, "dirichlet", "--seed", "-1"), SEED),
            ((*JSON_REPORT, "dirichlet", "--level", "0.9999999999999999"), ROUNDS_TO_ONE),
        ],
        ids=[
            "dirichlet-level", "dirichlet-alpha-0", "dirichlet-alpha-1e101", "dirichlet-seed",
            "dirichlet-seed-first", "dirichlet-level-before-alpha", "dirichlet-level-rounding-to-one",
            "bootstrap-seed", "bootstrap-level", "bootstrap-seed-first", "bootstrap-level-rounding-to-one",
            "report-bootstrap-level", "report-bootstrap-seed", "report-bootstrap-level-rounding-to-one",
            "report-dirichlet-level", "report-dirichlet-seed", "report-dirichlet-level-rounding-to-one",
        ],
    )
    def test_option_error_is_found_before_the_read_and_names_no_file(self, tmp_path, argv, message):
        path = tmp_path / "zero_row.csv"
        path.write_text(self.ZERO_ROW, encoding="utf-8")
        code, out, err = invoke(*argv, "--table", str(path))
        assert (code, out, err) == (2, "", f"data error: {message}\n")


class TestByteOrderMark:
    TABLE = "# a study\nstatement,same_source_count,different_source_count\nID,30,2\nElim,4,50\n"
    RECORDS = "ground_truth,statement,examiner_id,item_id\nsame,ID,e1,i1\ndifferent,Elim,e2,i2\n"

    @pytest.mark.parametrize(
        "argv, content",
        [
            (("lr", "--table"), TABLE),
            (("lr", "--format", "json", "--table"), TABLE),
            (("report", "--table"), TABLE),
            (("report", "--format", "json", "--interval", "dirichlet", "--table"), TABLE),
            (("interval", "--statement", "ID", "--method", "bootstrap", "--table"), TABLE),
            (("report", "--summary"), "study,LR (identification)\nbullets,109\n"),
            (("tally", "--in"), RECORDS),
            (("simulate", "--profile"), PROFILE_CFG.lstrip()),
        ],
        ids=["lr", "lr-json", "report", "report-json", "interval", "summary", "tally", "simulate"],
    )
    def test_is_skipped(self, tmp_path, argv, content):
        outputs = []
        for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            (tmp_path / name).mkdir()
            path = tmp_path / name / "input.csv"
            path.write_bytes(bom + content.encode("utf-8"))
            outputs.append(invoke(*argv, str(path)))
        code, out, err = outputs[1]
        assert (code, err) == (0, "")
        assert "\ufeff" not in out
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "argv, content, message",
        [
            (("lr", "--table"), TABLE, "header \ufeff# a study matches no known schema"),
            (("tally", "--in"), RECORDS, "line 1: header must contain column 'ground_truth'"),
            (("simulate", "--profile"), PROFILE_CFG.lstrip(), "malformed profile config: "),
        ],
        ids=["lr", "tally", "simulate"],
    )
    def test_a_second_is_part_of_the_first_line(self, tmp_path, argv, content, message):
        # the file is decoded as plain UTF-8 and its reader drops one mark,
        # as for the file's text: the second mark makes a data error naming the file
        path = tmp_path / "input.csv"
        path.write_bytes(b"\xef\xbb\xbf" * 2 + content.encode("utf-8"))
        code, out, err = invoke(*argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"data error: {path}: {message}")


class TestTallyCommand:
    def test_writes_aggregated_table(self, records_csv, tmp_path):
        out_path = tmp_path / "table.csv"
        code, out, _ = invoke("tally", "--in", records_csv, "--out", str(out_path))
        assert code == 0
        assert out == ""
        table = parse_aggregated(out_path.read_text(encoding="utf-8"))
        assert table.categories == ("ID", "Elim")
        assert table.same_source == (1, 1)
        assert table.different_source == (1, 1)

    def test_stdout_when_no_out(self, records_csv):
        code, out, _ = invoke("tally", "--in", records_csv)
        assert code == 0
        assert out.startswith("statement,same_source_count,different_source_count")

    def test_hash_leading_statement_reads_back(self, tmp_path):
        # written unquoted, the "#1 pick" row would read back as a comment
        records = tmp_path / "records.csv"
        records.write_text(
            'examiner_id,item_id,ground_truth,statement\n'
            'e1,i1,same,"#1 pick"\ne2,i2,same,Elim\ne3,i3,different,Elim\n',
            encoding="utf-8",
        )
        table = tmp_path / "table.csv"
        assert invoke("tally", "--in", str(records), "--out", str(table))[0] == 0
        assert table.read_text(encoding="utf-8").splitlines()[1] == '"#1 pick","1","0"'
        assert invoke("lr", "--table", str(table)) == (0, "#1 pick\tinf\nElim\t0.5\n", "")


class TestLrCommand:
    def test_markdown_contains_display_values(self, bullets_csv):
        code, out, _ = invoke("lr", "--table", bullets_csv, "--format", "md")
        assert code == 0
        assert "| LR | 109 | 1 | 1 / 3 | 1 / 10 | 1 / 12 | 1 |" in out

    def test_plain_output_four_significant_digits(self, bullets_csv):
        code, out, _ = invoke("lr", "--table", bullets_csv)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ID\t108.8"
        assert lines[4] == "Elimination\t0.08631"

    def test_json_format(self, bullets_csv):
        code, out, _ = invoke("lr", "--table", bullets_csv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["statements"][0]["lr_display"] == "109"

    def test_smoothing_flag(self, bullets_csv):
        code, out, _ = invoke(
            "lr", "--table", bullets_csv, "--smoothing", "alpha=0.5"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("ID\t")


class TestTinyLr:
    # smoothing with alpha=1e-320 gives a zero same-source cell an LR
    # whose reciprocal is past the largest float
    @pytest.fixture
    def zero_cell_csv(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text(
            "statement,same_source_count,different_source_count\nID,0,5\nElim,7,2\n",
            encoding="utf-8",
        )
        return str(path)

    @pytest.mark.parametrize("command", ["lr", "report"])
    def test_renders_the_rounded_reciprocal_in_every_format(self, zero_cell_csv, command, exact_display):
        alpha = Fraction(1e-320)
        # both rows total 7 + 2 alpha: the LR of ID is alpha / (5 + alpha), and
        # that of Elim (7 + alpha) / (2 + alpha), just below 3.5, reads "3"
        exact = alpha / (5 + alpha)
        elim = exact_display((7 + alpha) / (2 + alpha))
        assert elim == "3"
        argv = (command, "--table", zero_cell_csv, "--smoothing", "alpha=1e-320")
        code, out, err = invoke(*argv, "--format", "json")
        assert (code, err) == (0, "")
        row = json.loads(out)[0]["statements"][0]
        assert row["lr"] == float(exact) and 1.0 / row["lr"] == math.inf
        display = exact_display(exact)
        assert row["lr_display"] == display
        code, out, err = invoke(*argv, "--format", "md")
        assert (code, err) == (0, "")
        assert f"| LR | {display} | {elim} |" in out
        code, out, err = invoke(*argv, "--format", "csv")
        assert (code, err) == (0, "")
        assert f"LR,{display},{elim}\n" in out

    def test_ratio_past_the_largest_float_is_a_data_error(self, tmp_path):
        path = tmp_path / "over.csv"
        path.write_text(
            "statement,same_source_count,different_source_count\nID,5,0\nElim,5,5\n",
            encoding="utf-8",
        )
        for fmt in ([], ["--format", "md"], ["--format", "json"]):
            code, out, err = invoke("lr", "--table", str(path), "--smoothing", "alpha=1e-320", *fmt)
            assert (code, out) == (2, "")
            assert err == (
                f"data error: {path}: the likelihood ratio of 'ID' at smoothing "
                "add-alpha(9.99989e-321) is past the largest float\n"
            )

    def test_positive_ratio_below_the_smallest_float_is_a_data_error(self, tmp_path):
        path = tmp_path / "under.csv"
        path.write_text(
            f"statement,same_source_count,different_source_count\na,0,2\nb,{10**248},{10**138}\n",
            encoding="utf-8",
        )
        for command, fmt in (("lr", []), ("lr", ["--format", "json"]), ("report", ["--format", "md"])):
            code, out, err = invoke(command, "--table", str(path), "--smoothing", "alpha=1e-320", *fmt)
            assert (code, out) == (2, "")
            assert err == (
                f"data error: {path}: the likelihood ratio of 'a' at smoothing "
                "add-alpha(9.99989e-321) is below the smallest float\n"
            )


class TestPosteriorCommand:
    def test_anchor_value(self):
        code, out, _ = invoke("posterior", "--prior", "0.10", "--lr", "1000")
        assert code == 0
        assert out == "0.9911\n"

    def test_degenerate_prior_is_data_error(self):
        code, _, err = invoke("posterior", "--prior", "1", "--lr", "5")
        assert code == 2
        assert "strictly between" in err


class TestAdjustCommand:
    def test_hundredfold(self):
        code, out, _ = invoke("adjust", "--lr", "109", "--fraction", "0.01")
        assert code == 0
        assert out == "1.09\n"

    @pytest.mark.parametrize("lr, expected", [("inf", "inf\n"), ("1e300", "1e-20\n")])
    def test_subnormal_fraction(self, lr, expected):
        assert invoke("adjust", "--lr", lr, "--fraction", "1e-320") == (0, expected, "")

    def test_bad_fraction_is_data_error(self):
        code, _, err = invoke("adjust", "--lr", "10", "--fraction", "0")
        assert code == 2
        assert "retained fraction" in err


class TestIntervalCommand:
    def test_bootstrap_is_byte_stable(self, bullets_csv):
        args = (
            "interval", "--table", bullets_csv, "--statement", "ID",
            "--method", "bootstrap", "--seed", "42",
        )
        first = invoke(*args)
        second = invoke(*args)
        assert first == second
        assert first[0] == 0
        lower, upper = map(float, first[1].split())
        assert lower < 108.84 < upper

    def test_worker_count_does_not_change_output(self, bullets_csv):
        base = (
            "interval", "--table", bullets_csv, "--statement", "ID",
            "--method", "bootstrap", "--seed", "7",
        )
        serial = invoke(*base, "--workers", "1")
        threaded = invoke(*base, "--workers", "4")
        assert serial == threaded

    def test_dirichlet_depends_on_no_seed(self, bullets_csv):
        # the interval is computed, not drawn: --seed is accepted and changes nothing
        args = ("interval", "--table", bullets_csv, "--statement", "ID", "--method", "dirichlet")
        runs = [invoke(*args, *seed) for seed in ((), ("--seed", "3"), ("--seed", "4"))]
        assert len(set(runs)) == 1
        code, out, err = runs[0]
        assert (code, err) == (0, "")
        lower, upper = map(float, out.split())
        assert lower < 108.84 < upper

    def test_draws_is_a_usage_error(self, bullets_csv):
        code, out, err = invoke(
            "interval", "--table", bullets_csv, "--statement", "ID",
            "--method", "dirichlet", "--draws", "1000",
        )
        assert (code, out) == (1, "")
        assert err.startswith("usage error: unrecognized arguments: --draws")

    def test_dirichlet_negative_seed_is_data_error(self, bullets_csv):
        code, out, err = invoke(
            "interval", "--table", bullets_csv, "--statement", "ID",
            "--method", "dirichlet", "--seed", "-1",
        )
        assert (code, out, err) == (2, "", "data error: seed must be a non-negative integer, got -1\n")

    @pytest.mark.parametrize("alpha", ["1e-9", "1e-100"])
    def test_endpoint_beyond_the_float_range_prints_zero_or_inf(self, tmp_path, alpha):
        # with a zero cell and a tiny prior the posterior of that cell puts
        # its mass below e**-1000: both endpoints leave the float range
        path = tmp_path / "table.csv"
        path.write_text(
            "statement,same_source_count,different_source_count\nID,0,40\nElim,30,0\n",
            encoding="utf-8",
        )
        for statement, expected in (("ID", "0\t0\n"), ("Elim", "inf\tinf\n")):
            code, out, err = invoke(
                "interval", "--table", str(path), "--statement", statement,
                "--method", "dirichlet", "--alpha", alpha,
            )
            assert (code, out, err) == (0, expected, "")

    def test_unknown_statement_is_data_error(self, bullets_csv):
        code, _, err = invoke(
            "interval", "--table", bullets_csv, "--statement", "zz",
            "--method", "bootstrap",
        )
        assert code == 2
        assert "unknown statement" in err

    def test_bootstrap_of_a_statement_absent_from_both_rows_is_data_error(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(
            "statement,same_source_count,different_source_count\nID,5,3\nNONE,0,0\n", encoding="utf-8"
        )
        code, out, err = invoke("interval", "--table", str(path), "--statement", "NONE", "--method", "bootstrap")
        assert (code, out) == (2, "")
        assert err == (
            f"data error: {path}: undefined likelihood ratio (0/0): "
            "the bootstrap law has no defined value; no interval exists\n"
        )

    def test_replicates_is_a_usage_error(self, bullets_csv):
        # the ideal bootstrap draws no replicates, so there is no count to set
        code, out, err = invoke(
            "interval", "--table", bullets_csv, "--statement", "ID",
            "--method", "bootstrap", "--replicates", "500",
        )
        assert (code, out) == (1, "")
        assert err.startswith("usage error: unrecognized arguments: --replicates")

    @pytest.mark.parametrize("fmt", ["md", "csv"])
    @pytest.mark.parametrize("method", ["bootstrap", "dirichlet"])
    def test_md_or_csv_report_at_the_level_whose_quantile_rounds_to_one(self, bullets_csv, fmt, method):
        # md and csv compute no interval, so they print their bytes at any level in (0, 1)
        base = ("report", "--table", bullets_csv, "--format", fmt)
        assert invoke(*base, "--interval", method, "--level", "0.9999999999999999") == invoke(*base)

    @pytest.mark.parametrize(
        "argv",
        [
            ("interval", "--statement", "ID", "--method", "bootstrap"),
            ("report", "--format", "json", "--interval", "bootstrap"),
        ],
        ids=["interval", "report"],
    )
    @pytest.mark.parametrize("total", [2**63 - 1, 2**63])
    def test_bootstrap_row_total_at_the_binomial_limit(self, tmp_path, argv, total):
        path = tmp_path / "table.csv"
        path.write_text(
            "statement,same_source_count,different_source_count\n"
            f"ID,{total - 10},1\nElim,10,5\n",
            encoding="utf-8",
        )
        # the ideal bootstrap draws nothing, so no trial count limits it
        code, out, err = invoke(*argv, "--table", str(path))
        assert (code, err) == (0, "")
        if argv[0] == "interval":
            assert out == "2\tinf\n"

    @pytest.mark.parametrize(
        "rows, argv, shapes",
        [
            (f"a,1,0\nb,1,{10**300}", ("interval", "--statement", "a", "--method", "dirichlet",
                                       "--alpha", "1e-14"), "1e-14, 1e+300"),
            # at the default alpha only a row total within 2**970 of the limit reaches it
            (f"a,0,1\nb,{2**1023},1", ("report", "--format", "json", "--interval", "dirichlet"),
             "0.5, 8.98846567431158e+307"),
        ],
        ids=["tiny-alpha", "row-total-2p1023"],
    )
    def test_dirichlet_odds_past_the_float_range_is_a_data_error(self, tmp_path, rows, argv, shapes):
        # a zero cell's Beta(a, b) whose odds b / a pass the float range has
        # no quadrature grid; a NaN in the grid's search would loop forever,
        # so a child process runs it: a hang fails by timeout, not the suite
        (tmp_path / "huge.csv").write_text(
            f"statement,same_source_count,different_source_count\n{rows}\n", encoding="utf-8"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "catlr.cli", *argv, "--table", "huge.csv"],
            cwd=tmp_path, env=_subprocess_env(), capture_output=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(
            f"data error: huge.csv: no quadrature grid for Beta({shapes}): ".encode()
        )


class TestIntervalCallsResolveByName:
    """A wrapper bound onto ``catlr.uncertainty`` after import, as a profiler
    or tracer binds one, sees every interval the commands compute."""

    @pytest.mark.parametrize("method", ["bootstrap", "dirichlet"])
    def test_interval_and_json_report_call_the_module_functions(
        self, monkeypatch, bullets_csv, bullets, method
    ):
        from catlr import uncertainty

        calls = []

        def recording(name, original):
            def record(table, statement, *args, **kwargs):
                calls.append((name, statement))
                return original(table, statement, *args, **kwargs)

            return record

        for name in ("bootstrap_interval", "dirichlet_interval"):
            monkeypatch.setattr(uncertainty, name, recording(name, getattr(uncertainty, name)))
        name = f"{method}_interval"
        code, out, err = invoke(
            "interval", "--table", bullets_csv, "--statement", "ID", "--method", method
        )
        assert (code, err) == (0, "")
        assert calls == [(name, "ID")]
        calls.clear()
        code, out, err = invoke(
            "report", "--table", bullets_csv, "--format", "json", "--interval", method
        )
        assert (code, err) == (0, "")
        assert calls == [(name, statement) for statement in bullets.categories]


class TestSimulateCommand:
    def test_byte_identical_for_fixed_seed(self, tmp_path):
        cfg = tmp_path / "profile.cfg"
        cfg.write_text(PROFILE_CFG, encoding="utf-8")
        first = invoke("simulate", "--profile", str(cfg))
        second = invoke("simulate", "--profile", str(cfg))
        assert first == second
        assert first[0] == 0

    def test_output_round_trips_through_tally(self, tmp_path):
        cfg = tmp_path / "profile.cfg"
        cfg.write_text(PROFILE_CFG, encoding="utf-8")
        out_path = tmp_path / "records.csv"
        code, _, _ = invoke("simulate", "--profile", str(cfg), "--out", str(out_path))
        assert code == 0
        records = parse_records(out_path.read_text(encoding="utf-8"))
        assert len(records) == 130
        table = tally(records)
        assert table.total() == 130

    def test_record_count_above_ceiling_is_data_error(self, tmp_path):
        cfg = tmp_path / "profile.cfg"
        cfg.write_text(PROFILE_CFG.replace("n_h1 = 50", f"n_h1 = {10**12}"), encoding="utf-8")
        code, out, err = invoke("simulate", "--profile", str(cfg))
        assert (code, out) == (2, "")
        message = f"n_h1 + n_h2 must be at most 10000000, got {10**12 + 80}"
        assert err == f"data error: {cfg}: {message}\n"

    def test_probabilities_not_summing_to_one_is_data_error(self, tmp_path):
        cfg = tmp_path / "profile.cfg"
        cfg.write_text(PROFILE_CFG.replace("0.75, 0.2, 0.05", "0.75, 0.2, 0.15"), encoding="utf-8")
        code, out, err = invoke("simulate", "--profile", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"data error: {cfg}: p_given_h1 must sum to 1, got 1.1\n"

    def test_output_with_quoted_label_is_pinned(self, tmp_path):
        cfg = tmp_path / "profile.cfg"
        cfg.write_text(
            "[profile]\n"
            'categories = ID, say "no", Elimination\n'
            "p_given_h1 = 0.6, 0.3, 0.1\n"
            "p_given_h2 = 0.05, 0.35, 0.6\n"
            "n_h1 = 400\nn_h2 = 600\nseed = 7\n",
            encoding="utf-8",
        )
        code, out, _ = invoke("simulate", "--profile", str(cfg))
        assert code == 0
        assert out.splitlines()[2] == 'ex02,item000002,same,"say ""no"""'
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "56dd2386184978e45b8380a5bedc95d4bf9123881e07ffd25f409eb66f3e3f7e"
        )

    def test_output_at_benchmark_scale_is_pinned(self, tmp_path):
        # 1 000 001 records: the item ids grow to seven digits at the end, and
        # the labels hold a quote, a "%" ("%%" in the profile) and a "{0}"
        cfg = tmp_path / "profile.cfg"
        cfg.write_text(
            "[profile]\n"
            'categories = ID, say "no", 50%% sure, {0}, Elimination\n'
            "p_given_h1 = 0.5, 0.2, 0.1, 0.15, 0.05\n"
            "p_given_h2 = 0.02, 0.1, 0.2, 0.18, 0.5\n"
            "n_h1 = 400000\nn_h2 = 600001\nseed = 2024\n",
            encoding="utf-8",
        )
        code, out, _ = invoke("simulate", "--profile", str(cfg))
        assert code == 0
        assert out.endswith("ex01,item1000001,different,Elimination\n")
        assert out.splitlines()[12] == "ex02,item000012,same,50% sure"
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "d01a06403f8433554f7048735204560cd7c5cd4a99b43e3a1816459c585307f3"
        )

    def test_lone_percent_in_profile_is_data_error(self, tmp_path):
        cfg = tmp_path / "profile.cfg"
        cfg.write_text(PROFILE_CFG.replace("Elimination", "50% sure"), encoding="utf-8")
        code, out, err = invoke("simulate", "--profile", str(cfg))
        assert (code, out) == (2, "")
        message = "malformed profile value: '%' must be followed by"
        assert err.startswith(f"data error: {cfg}: {message}")

    def test_label_that_cannot_read_back_is_data_error(self, tmp_path):
        # an indented line continues the categories value, so a label spans two lines
        cfg = tmp_path / "profile.cfg"
        cfg.write_text(PROFILE_CFG.replace("Elimination\n", "Elim\n  ination\n"), encoding="utf-8")
        code, out, err = invoke("simulate", "--profile", str(cfg))
        assert (code, out) == (2, "")
        # the profile rejects the label as it is read, so the error names the file
        assert err.startswith(f"data error: {cfg}: category label 'Elim\\nination' would not read back")

    def test_empty_label_is_data_error_naming_the_labels(self, tmp_path):
        cfg = tmp_path / "profile.cfg"
        cfg.write_text(PROFILE_CFG.replace("Inconclusive", ""), encoding="utf-8")
        code, out, err = invoke("simulate", "--profile", str(cfg))
        assert (code, out) == (2, "")
        message = "categories must be non-empty labels: ('ID', '', 'Elimination')"
        assert err == f"data error: {cfg}: {message}\n"

    def test_writes_file_equal_to_stdout(self, tmp_path):
        cfg = tmp_path / "profile.cfg"
        cfg.write_text(PROFILE_CFG, encoding="utf-8")
        out_path = tmp_path / "records.csv"
        assert invoke("simulate", "--profile", str(cfg), "--out", str(out_path))[:2] == (0, "")
        assert out_path.read_text(encoding="utf-8") == invoke("simulate", "--profile", str(cfg))[1]

    # 70 001 rows cross the 64 000-row block of the batch writer and end
    # mid-chunk; the labels hold non-ASCII text, a "%" ("%%" in the
    # profile), a "{0}" and quotes
    BINARY_PROFILE = (
        "[profile]\n"
        'categories = Identificación, 50%% sure, {0}, "quoted", Elimination\n'
        "p_given_h1 = 0.4, 0.2, 0.15, 0.15, 0.1\n"
        "p_given_h2 = 0.05, 0.15, 0.2, 0.1, 0.5\n"
        "n_h1 = 40000\nn_h2 = 30001\nseed = 15\n"
    )

    def test_out_file_is_the_utf8_text_of_the_rows(self, tmp_path):
        cfg = tmp_path / "profile.cfg"
        cfg.write_text(self.BINARY_PROFILE, encoding="utf-8")
        out_path = tmp_path / "records.csv"
        assert invoke("simulate", "--profile", str(cfg), "--out", str(out_path)) == (0, "", "")
        batch = simulate_study(load_profile(self.BINARY_PROFILE))
        assert batch.categories == ("Identificación", "50% sure", "{0}", '"quoted"', "Elimination")
        # list(batch) is the row views, written by the row-by-row reference path
        data = out_path.read_bytes()
        assert data == emit_records(list(batch)).encode("utf-8")
        assert data.count(b"\n") == 1 + 70_001 and b"\r" not in data

    def test_command_writes_the_same_bytes_to_stdout_and_out(self, tmp_path):
        cfg = tmp_path / "profile.cfg"
        cfg.write_text(self.BINARY_PROFILE, encoding="utf-8")
        out_path = tmp_path / "records.csv"
        # stdout asks for Latin-1, which cannot encode the labels: the
        # command writes UTF-8 whatever stdout's encoding is
        env = _subprocess_env(PYTHONIOENCODING="latin-1")
        argv = [sys.executable, "-m", "catlr.cli", "simulate", "--profile", str(cfg)]
        to_stdout = subprocess.run(argv, env=env, capture_output=True, check=True)
        to_file = subprocess.run(
            argv + ["--out", str(out_path)], env=env, capture_output=True, check=True
        )
        assert (to_file.stdout, to_file.stderr, to_stdout.stderr) == (b"", b"", b"")
        assert to_stdout.stdout == out_path.read_bytes()
        assert to_stdout.stdout.startswith(
            b"examiner_id,item_id,ground_truth,statement\nex01,item000001,same,"
        )

    def test_malformed_profile_is_data_error(self, tmp_path):
        cfg = tmp_path / "profile.cfg"
        cfg.write_text("[profile]\ncategories = a\n", encoding="utf-8")
        code, _, err = invoke("simulate", "--profile", str(cfg))
        assert code == 2
        assert "missing key" in err


class TestOutputPolicy:
    """Every command writes UTF-8 with "\\n" line ends, whatever stdout's encoding."""

    INFINITE = "statement,same_source_count,different_source_count\nID,100,0\nElim,3,40\n"

    def test_ascii_stdout_prints_the_utf8_of_an_infinite_lr(self, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text(self.INFINITE, encoding="utf-8")
        argv = ["lr", "--table", str(table), "--format", "md"]
        proc = subprocess.run(
            [sys.executable, "-m", "catlr.cli", *argv],
            env=_subprocess_env(PYTHONIOENCODING="ascii"),
            capture_output=True,
        )
        code, text, _ = invoke(*argv)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == text.encode("utf-8")
        assert "∞" in text and "\r" not in text

    def test_text_stream_with_a_buffer_gets_utf8_after_what_it_held(self, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text(self.INFINITE, encoding="utf-8")
        raw = io.BytesIO()
        stdout = io.TextIOWrapper(raw, encoding="ascii", newline="\r\n")
        stdout.write("before\n")
        code = run(["lr", "--table", str(table), "--format", "md"], stdout=stdout)
        _, text, _ = invoke("lr", "--table", str(table), "--format", "md")
        assert code == 0
        assert raw.getvalue() == b"before\r\n" + text.encode("utf-8")

    def test_a_reader_that_closes_the_pipe_early_ends_the_run_silently(self, tmp_path):
        # 100 050 records (~3 MB) overfill the pipe, so the writer meets the
        # closed end, as under `catlr simulate ... | head -c 100`
        profile = tmp_path / "profile.cfg"
        profile.write_text(PROFILE_CFG.replace("n_h1 = 50", "n_h1 = 100000"), encoding="utf-8")
        argv = [sys.executable, "-m", "catlr.cli", "simulate", "--profile", str(profile)]
        with subprocess.Popen(
            argv, env=_subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait()
        assert head.startswith(b"examiner_id,item_id,ground_truth,statement\n")
        assert (code, err) == (141, b"")

    @staticmethod
    def _with_closed(fd, *argv):
        # the shell closes fd 1 or 2 before Python starts, so Python's sys.stdout
        # or sys.stderr is None; the interpreter runs directly, as a launcher
        # script in between may itself fail with the fd closed
        script = ["sh", "-c", f'exec "$@" {fd}>&-', "sh", sys.executable, "-m", "catlr.cli", *argv]
        return subprocess.run(script, env=_subprocess_env(), capture_output=True)

    @pytest.mark.skipif(os.name != "posix", reason="closes stdout with a POSIX shell")
    def test_a_closed_stdout_is_a_data_error(self, bullets_csv):
        done = self._with_closed(1, "lr", "--table", bullets_csv)
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr == b"data error: stdout is closed\n"

    @pytest.mark.skipif(os.name != "posix", reason="closes stdout with a POSIX shell")
    def test_a_closed_stdout_leaves_an_out_file_to_be_written(self, bullets_csv, tmp_path):
        out = tmp_path / "report.json"
        done = self._with_closed(1, "report", "--table", bullets_csv, "--format", "json", "--out", str(out))
        assert (done.returncode, done.stderr) == (0, b"")
        code, text, _ = invoke("report", "--table", bullets_csv, "--format", "json")
        assert (code, out.read_bytes()) == (0, text.encode("utf-8"))

    @pytest.mark.skipif(os.name != "posix", reason="closes stderr with a POSIX shell")
    def test_a_closed_stderr_keeps_error_messages_off_stdout(self, bullets_csv, tmp_path):
        # print(file=None) writes to sys.stdout: each message goes to stderr or nowhere
        data = self._with_closed(2, "lr", "--table", str(tmp_path / "missing.csv"))
        usage = self._with_closed(2, "lr")
        done = self._with_closed(2, "lr", "--table", bullets_csv)
        assert [(data.returncode, data.stdout), (usage.returncode, usage.stdout)] == [(2, b""), (1, b"")]
        _, text, _ = invoke("lr", "--table", bullets_csv)
        assert (done.returncode, done.stdout, done.stderr) == (0, text.encode("utf-8"), b"")

    def test_study_named_by_a_non_utf8_file_name_prints_its_bytes(self, tmp_path):
        name = os.fsdecode(b"study\xff.csv")
        try:
            (tmp_path / name).write_text(self.INFINITE, encoding="utf-8")
        except (OSError, UnicodeEncodeError):
            pytest.skip("the file system does not take a non-UTF-8 file name")
        out = tmp_path / "report.json"
        code, _, err = invoke(
            "report", "--table", str(tmp_path / name), "--format", "json", "--out", str(out)
        )
        assert (code, err) == (0, "")
        assert b'"study": "study\xff"' in out.read_bytes()


# registers an atexit handler, then runs catlr.cli.main() on sys.argv[1:]; the
# handler prints whether main froze the garbage collector's objects
_MAIN = """
import atexit, gc
import catlr.cli
atexit.register(lambda: print("atexit:", "frozen" if gc.get_freeze_count() else "not frozen"))
catlr.cli.main()
"""


class TestMain:
    """main() freezes the garbage collector once the command is done, so that
    shutdown skips collecting what the process built; run() does not."""

    def test_run_leaves_the_collector_as_it_found_it(self, bullets_csv):
        frozen = gc.get_freeze_count()
        assert invoke("lr", "--table", bullets_csv, "--format", "md")[0] == 0
        assert invoke("lr", "--table", "/does/not/exist.csv")[0] == 2
        assert gc.isenabled()
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("lr", "--table", "{table}", "--format", "md"), 0),
            (("lr", "--table", "{table}", "--format", "xml"), 1),
            (("lr", "--table", "/does/not/exist.csv"), 2),
        ],
        ids=["success", "usage-error", "data-error"],
    )
    def test_main_exits_with_the_code_of_run_after_the_atexit_hooks(self, bullets_csv, argv, code):
        argv = [a.format(table=bullets_csv) for a in argv]
        done = subprocess.run([sys.executable, "-c", _MAIN, *argv], env=_subprocess_env(), capture_output=True)
        expected_code, out, err = invoke(*argv)
        assert done.returncode == expected_code == code
        assert done.stdout == out.encode("utf-8") + b"atexit: frozen\n"
        assert done.stderr == err.encode("utf-8")


@st.composite
def small_tables(draw):
    """Tables of 1-6 categories with counts 0-50: zero cells, 0/0 and infinite LRs occur.
    A count may also reach a sixth of ``MAX_ROW_TOTAL``, so that a row total nears it."""
    labels = draw(
        st.lists(
            st.sampled_from(("ID", "Inconclusive, A", "Élimination", 'say "no"', "a|b", "∞", "#1")),
            min_size=1, max_size=6, unique=True,
        )
    )
    count = st.integers(0, 50) | st.integers(0, MAX_ROW_TOTAL // 6)
    counts = st.lists(count, min_size=len(labels), max_size=len(labels))
    return ConfusionTable(labels, draw(counts), draw(counts))


def _every_call(path, statement):
    """Each command, format, smoothing and interval over the table at ``path``."""
    for smoothing in ((), ("--smoothing", "alpha=0.5")):
        yield ("lr", "--table", path, *smoothing)
        for fmt in ("md", "csv", "json"):
            yield ("lr", "--table", path, "--format", fmt, *smoothing)
    for fmt in ("md", "csv", "json"):
        for interval in ((), ("--interval", "bootstrap"), ("--interval", "dirichlet")):
            yield ("report", "--table", path, "--format", fmt, *interval)
    for method in ("bootstrap", "dirichlet"):
        yield ("interval", "--table", path, "--statement", statement, "--method", method)


class TestEveryTableThroughEveryCommand:
    @settings(max_examples=40, deadline=None)
    @given(table=small_tables(), data=st.data())
    def test_renders_or_exits_2_with_a_data_error(self, tmp_path_factory, table, data):
        path = tmp_path_factory.mktemp("table") / "t.csv"
        path.write_text(emit_aggregated(table), encoding="utf-8")
        statement = data.draw(st.sampled_from(table.categories))
        for argv in _every_call(str(path), statement):
            code, out, err = invoke(*argv)
            assert code in (0, 2), (argv, err)
            if code == 2:
                assert (out, err.startswith("data error: ")) == ("", True), argv
            elif "json" in argv:
                assert out == canonical_json(json.loads(out)), argv


class TestRenderLrTableIsBuildReport:
    @settings(max_examples=40, deadline=None)
    @given(table=small_tables(), study=st.sampled_from(("t", "study 1", "Étude")),
           level=st.sampled_from((0.95, 0.5)))
    def test_same_bytes_or_error_in_every_option(self, tmp_path_factory, table, study, level):
        table = ConfusionTable(table.categories, table.same_source, table.different_source, study)
        path = tmp_path_factory.mktemp("report") / f"{study}.csv"
        path.write_text(emit_aggregated(table), encoding="utf-8")
        smoothings = (NO_SMOOTHING, SmoothingPolicy.add_alpha(0.5))
        options = [(fmt, smoothing, None) for fmt in FORMATS for smoothing in smoothings]
        options += [(fmt, NO_SMOOTHING, m) for fmt in FORMATS for m in INTERVAL_METHOD_NAMES]
        for option in options:
            try:
                expected = render_lr_table(table, *option, level)
            except DataError as exc:
                with pytest.raises(DataError) as raised:
                    build_report(path, *option, level)
                assert str(raised.value) == f"{path}: {exc}", option
            else:
                assert build_report(path, *option, level) == expected, option


class TestReportCommand:
    def test_summary_fixture_rows_verbatim(self, tmp_path):
        headers, rows = fixtures.published_summary()
        fixture = tmp_path / "summary.csv"
        lines = [",".join(headers)] + [",".join(r) for r in rows]
        fixture.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = invoke("report", "--summary", str(fixture), "--format", "md")
        assert code == 0
        assert "| firearm from bullet | 109 | 1 / 12 |" in out
        assert "| person from latent fingerprints | 376 | 1 / 11 |" in out

    def test_table_report_to_file(self, bullets_csv, tmp_path):
        out_path = tmp_path / "report.md"
        code, out, _ = invoke(
            "report", "--table", bullets_csv, "--format", "md", "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert "| LR | 109 |" in out_path.read_text(encoding="utf-8")

    def test_json_report_with_intervals_deterministic(self, bullets_csv):
        args = (
            "report", "--table", bullets_csv, "--format", "json",
            "--interval", "bootstrap", "--seed", "5",
        )
        first = invoke(*args)
        assert first == invoke(*args)
        payload = json.loads(first[1])
        assert "interval" in payload[0]["statements"][0]

    def test_needs_table_or_summary(self):
        code, _, err = invoke("report", "--format", "md")
        assert code == 2
        assert "report needs" in err

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    @pytest.mark.parametrize(
        "option, message",
        [
            (("--level", "5"), "level must be in (0, 1), got 5.0"),
            (("--seed", "-1"), "seed must be a non-negative integer, got -1"),
            (
                ("--interval", "bootstrap", "--smoothing", "alpha=1"),
                "bootstrap intervals are computed without smoothing; "
                "drop smoothing add-alpha(1) or the interval",
            ),
            (("--table", "table.csv"), "report takes --table or --summary, not both"),
        ],
        ids=["level", "seed", "interval-smoothing", "table"],
    )
    def test_summary_checks_the_table_options_before_the_read(
        self, tmp_path, fmt, option, message
    ):
        fixture = tmp_path / "summary.csv"
        fixture.write_text("study,LR (identification)\nbullets,109\n", encoding="utf-8")
        (tmp_path / "table.csv").write_text(
            "statement,same_source_count,different_source_count\nID,30,2\n", encoding="utf-8"
        )
        for summary in (fixture, tmp_path / "missing.csv"):
            code, out, err = invoke(
                "report", "--summary", str(summary), "--format", fmt,
                *(str(tmp_path / a) if a == "table.csv" else a for a in option),
            )
            assert (code, out, err) == (2, "", f"data error: {message}\n")

    @pytest.mark.parametrize("method", ["bootstrap", "dirichlet"])
    def test_interval_with_smoothing_is_data_error(self, tmp_path, method):
        # the replicates ignore smoothing, so the interval could exclude its point
        path = tmp_path / "table.csv"
        path.write_text(
            "statement,same_source_count,different_source_count\nID,30,1\nX,10,99\n",
            encoding="utf-8",
        )
        code, out, err = invoke(
            "report", "--table", str(path), "--smoothing", "alpha=5", "--interval", method
        )
        assert (code, out) == (2, "")
        assert err == (
            f"data error: {method} intervals are computed without smoothing; "
            "drop smoothing add-alpha(5) or the interval\n"
        )
        assert invoke(
            "report", "--table", str(path), "--smoothing", "none", "--interval", method
        )[0] == 0

    @pytest.mark.parametrize(
        "option, message",
        [
            (("--level", "2"), "level must be in (0, 1), got 2.0"),
            (("--seed", "-1"), "seed must be a non-negative integer, got -1"),
            (
                ("--smoothing", "alpha=1"),
                "bootstrap intervals are computed without smoothing; "
                "drop smoothing add-alpha(1) or the interval",
            ),
        ],
        ids=["level", "seed", "smoothing"],
    )
    def test_md_interval_options_are_checked_though_no_interval_is_drawn(
        self, bullets_csv, option, message
    ):
        code, out, err = invoke(
            "report", "--table", bullets_csv, "--format", "md", "--interval", "bootstrap", *option
        )
        assert (code, out, err) == (2, "", f"data error: {message}\n")

    @pytest.mark.parametrize("fmt", ["md", "csv", "json"])
    @pytest.mark.parametrize(
        "option, message",
        [
            (("--level", "2"), "level must be in (0, 1), got 2.0"),
            (("--seed", "-1"), "seed must be a non-negative integer, got -1"),
        ],
        ids=["level", "seed"],
    )
    def test_level_and_seed_are_checked_without_an_interval(
        self, bullets_csv, fmt, option, message
    ):
        code, out, err = invoke("report", "--table", bullets_csv, "--format", fmt, *option)
        assert (code, out, err) == (2, "", f"data error: {message}\n")
