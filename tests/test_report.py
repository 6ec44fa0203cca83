import json
import math
import random
from fractions import Fraction

import pytest

from catlr import fixtures
from catlr.engine import SmoothingPolicy, presentation_round
from catlr.ingest import emit_aggregated
from catlr.model import ConfusionTable, DataError
from catlr.report import (
    build_report,
    canonical_json,
    read_display_fixture,
    render_lr_table,
    render_summary_table,
)
from catlr.uncertainty import bootstrap_interval


class TestRenderLrTable:
    def test_markdown_matches_golden(self, bullets, golden):
        assert render_lr_table(bullets, "md") == golden("bullets_lr.md")

    def test_markdown_display_row(self, bullets):
        lines = render_lr_table(bullets, "md").splitlines()
        assert lines[-1] == "| LR | 109 | 1 | 1 / 3 | 1 / 10 | 1 / 12 | 1 |"

    def test_csv_matches_golden(self, bullets, golden):
        assert render_lr_table(bullets, "csv") == golden("bullets_lr.csv")

    def test_identical_rows_render_all_ones(self):
        t = ConfusionTable(("a", "b", "c"), (5, 5, 5), (5, 5, 5))
        assert render_lr_table(t, "csv").splitlines()[1] == "LR,1,1,1"

    def test_cells_match_fraction_oracle(self):
        rng = random.Random(33)
        for _ in range(50):
            t = ConfusionTable(
                ("p", "q", "r", "s"),
                tuple(rng.randint(1, 400) for _ in range(4)),
                tuple(rng.randint(1, 400) for _ in range(4)),
            )
            cells = render_lr_table(t, "csv").splitlines()[1].split(",")[1:]
            n1, n2 = sum(t.same_source), sum(t.different_source)
            for k, cell in enumerate(cells):
                exact = Fraction(t.same_source[k], n1) / Fraction(
                    t.different_source[k], n2
                )
                assert cell == presentation_round(float(exact))

    def test_deterministic(self, bullets):
        assert render_lr_table(bullets, "md") == render_lr_table(bullets, "md")

    def test_trailing_newline(self, bullets):
        for fmt in ("md", "csv", "json"):
            assert render_lr_table(bullets, fmt).endswith("\n")

    def test_csv_quotes_label_with_comma(self):
        t = ConfusionTable(("Incl, weak", "other"), (5, 5), (2, 8))
        header = render_lr_table(t, "csv").splitlines()[0]
        assert '"Incl, weak"' in header

    def test_markdown_escapes_pipe(self):
        t = ConfusionTable(("a|b", "c"), (5, 5), (2, 8))
        assert "a\\|b" in render_lr_table(t, "md")

    def test_unknown_format(self, bullets):
        with pytest.raises(DataError, match="unknown output format"):
            render_lr_table(bullets, "xml")

    def test_markdown_alias(self, bullets):
        assert render_lr_table(bullets, "markdown") == render_lr_table(bullets, "md")


class TestJsonOutput:
    def test_row_schema(self, bullets):
        rows = json.loads(render_lr_table(bullets, "json"))
        assert [r["statement"] for r in rows] == list(bullets.categories)
        first = rows[0]
        assert set(first) == {"statement", "lr", "lr_display", "p_h1", "p_h2"}
        assert first["lr"] == pytest.approx(108.84, abs=0.005)
        assert first["lr_display"] == "109"
        assert first["p_h1"] == 1076 / 1429
        assert first["p_h2"] == 20 / 2891

    def test_round_trip_bytes(self, bullets):
        text = render_lr_table(bullets, "json")
        assert canonical_json(json.loads(text)) == text

    def test_infinite_lr_is_null_with_infinity_display(self):
        t = ConfusionTable(("a", "b"), (5, 5), (0, 10))
        rows = json.loads(render_lr_table(t, "json"))
        assert rows[0]["lr"] is None
        assert rows[0]["lr_display"] == "∞"

    def test_undefined_lr_is_null_with_undefined_display_in_every_format(self):
        t = ConfusionTable(("a", "none", "b"), (5, 0, 5), (0, 0, 10))
        rows = json.loads(render_lr_table(t, "json"))
        assert (rows[1]["lr"], rows[1]["lr_display"]) == (None, "undefined")
        assert render_lr_table(t, "csv").splitlines()[1] == "LR,∞,undefined,1 / 2"
        assert render_lr_table(t, "md").splitlines()[2] == "| LR | ∞ | undefined | 1 / 2 |"

    def test_zero_count_bound_display(self):
        t = ConfusionTable(("a", "b"), (5, 5), (0, 10))
        text = render_lr_table(t, "json", lower_bounds={"a": 12.3})
        assert json.loads(text)[0]["lr_display"] == "> 12"

    def test_intervals_included(self, bullets):
        interval = bootstrap_interval(bullets, "ID")
        rows = json.loads(
            render_lr_table(bullets, "json", intervals={"ID": interval})
        )
        payload = rows[0]["interval"]
        assert payload["level"] == 0.95
        assert payload["lower"] == interval.lower
        assert payload["upper"] == interval.upper
        assert "bootstrap-percentile" in payload["method"]
        assert "interval" not in rows[1]


class TestRenderSummaryTable:
    def test_bullet_row_computed_from_fixture(self, bullets):
        ests = {
            s: presentation_round(
                Fraction(bullets.same_source[i], 1429)
                / Fraction(bullets.different_source[i], 2891)
            )
            for i, s in enumerate(bullets.categories)
        }
        text = render_summary_table(
            [("firearm from bullet", ests["ID"], ests["Elimination"])], "md"
        )
        assert "| firearm from bullet | 109 | 1 / 12 |" in text

    def test_published_fingerprint_row(self):
        _, rows = fixtures.published_summary()
        fingerprint = [r for r in rows if r[0] == "person from latent fingerprints"]
        text = render_summary_table(fingerprint, "md")
        assert "| person from latent fingerprints | 376 | 1 / 11 |" in text

    def test_empty_entries_render_header_only(self):
        text = render_summary_table([], "md")
        assert text.splitlines()[0] == "|  | LR (identification) | LR (exclusion) |"
        assert len(text.splitlines()) == 2

    def test_single_lr_column_layout(self):
        text = render_summary_table([("identification", "113")], "md")
        assert text.splitlines()[0] == "|  | LR |"
        assert "| identification | 113 |" in text

    def test_custom_headers(self):
        text = render_summary_table(
            [("x", "1")], "csv", headers=("statement", "LR")
        )
        assert text.splitlines()[0] == "statement,LR"

    def test_one_cell_entries_rejected(self):
        with pytest.raises(DataError, match="^each entry needs a name and at least one display"):
            render_summary_table([("a",), ("b",)])

    def test_headers_wider_than_the_entries_rejected(self):
        with pytest.raises(DataError, match="^3 headers for entries of width 2$"):
            render_summary_table([("a", "1")], headers=("", "LR", "extra"))

    def test_inconsistent_widths_rejected(self):
        with pytest.raises(DataError, match="inconsistent"):
            render_summary_table([("a", "1"), ("b", "1", "2")])

    def test_json_variant(self):
        text = render_summary_table([("s", "109", "1 / 12")], "json")
        assert json.loads(text) == [{"name": "s", "lr_displays": ["109", "1 / 12"]}]
        assert canonical_json(json.loads(text)) == text

    def test_caller_order_preserved(self):
        entries = [("z", "1", "2"), ("a", "3", "4")]
        lines = render_summary_table(entries, "csv").splitlines()
        assert lines[1].startswith("z") and lines[2].startswith("a")


class TestDisplayFixtures:
    def test_bundled_summary_shape(self):
        headers, rows = fixtures.published_summary()
        assert headers == ("study", "LR (identification)", "LR (exclusion)")
        assert len(rows) == 6
        assert ("firearm from bullet", "109", "1 / 12") in rows

    @pytest.mark.parametrize("study", fixtures.APPENDIX_STUDIES)
    def test_bundled_appendix_tables_parse(self, study):
        headers, rows = fixtures.appendix_table(study)
        assert headers == ("statement", "LR")
        assert rows

    def test_unknown_appendix_study(self):
        with pytest.raises(DataError):
            fixtures.appendix_table("palmistry")

    def test_ragged_fixture_rejected(self):
        with pytest.raises(DataError, match="line 3"):
            read_display_fixture("a,b\n1,2\n3\n")

    def test_empty_fixture_rejected(self):
        with pytest.raises(DataError, match="no header"):
            read_display_fixture("# nothing\n")

    def test_header_only_fixture_rejected(self):
        with pytest.raises(DataError, match="^display fixture has a header but no rows$"):
            read_display_fixture("study,LR\n# no rows\n")


class TestBuildReport:
    def test_missing_dataset_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            build_report(str(tmp_path / "nope.csv"))

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"output_format": "html"}, "unknown output format"),
            ({"interval_method": "jackknife"}, "interval method"),
            (
                {"interval_method": "bootstrap", "smoothing": SmoothingPolicy.add_alpha(5)},
                "computed without smoothing",
            ),
            (
                {"interval_method": "dirichlet", "smoothing": SmoothingPolicy.add_alpha(5)},
                "computed without smoothing",
            ),
            ({"interval_method": "bootstrap", "level": 2.0}, "level must be in"),
            ({"level": 2.0}, "level must be in"),
            ({"output_format": "json", "level": 0.0}, "level must be in"),
            (
                {"output_format": "json", "interval_method": "bootstrap", "level": 1 - 2**-53},
                "level must be at most 0.9999999999999998",
            ),
            (
                {"output_format": "json", "interval_method": "dirichlet", "level": 1 - 2**-53},
                "level must be at most 0.9999999999999998",
            ),
        ],
        ids=["format", "method", "smoothing-bootstrap", "smoothing-dirichlet", "level",
             "level-no-interval", "level-json-no-interval", "json-bootstrap-level-rounding-to-one",
             "json-dirichlet-level-rounding-to-one"],
    )
    def test_options_checked_before_the_file_is_read(self, options, message):
        # the file does not exist, so any other order fails with FileNotFoundError
        with pytest.raises(DataError, match=message):
            build_report("unread.csv", **options)

    def test_build_markdown(self, tmp_path, bullets, golden):
        path = tmp_path / "bullets.csv"
        path.write_text(emit_aggregated(bullets), encoding="utf-8")
        assert build_report(str(path)) == golden("bullets_lr.md")
        assert build_report(path, "csv") == golden("bullets_lr.csv")

    def test_build_json_with_intervals(self, tmp_path, bullets):
        path = tmp_path / "bullets.csv"
        path.write_text(emit_aggregated(bullets), encoding="utf-8")
        options = {"output_format": "json", "interval_method": "bootstrap"}
        text = build_report(str(path), **options)
        payload = json.loads(text)
        assert payload[0]["study"] == "bullets"
        statements = payload[0]["statements"]
        assert all("interval" in row for row in statements)
        id_row = statements[0]
        assert id_row["interval"]["lower"] < 108.84 < id_row["interval"]["upper"]
        assert build_report(str(path), **options) == text  # deterministic

    def test_bootstrap_of_an_undefined_row_is_null_and_other_rows_keep_theirs(self, tmp_path):
        path = tmp_path / "undefined.csv"
        table = ConfusionTable(("ID", "NONE", "Elim"), (90, 0, 10), (10, 0, 90))
        path.write_text(emit_aggregated(table), encoding="utf-8")
        bootstrap, dirichlet = (
            json.loads(build_report(path, "json", interval_method=method))[0]["statements"]
            for method in ("bootstrap", "dirichlet")
        )
        assert bootstrap[1]["interval"] is None
        assert bootstrap[0]["interval"]["lower"] < 9 < bootstrap[0]["interval"]["upper"]
        assert bootstrap[2]["interval"]["method"].startswith("bootstrap")
        # a Dirichlet draw is smoothed by its prior: the 0/0 row has an interval
        assert dirichlet[1]["interval"]["method"].startswith("dirichlet")


def test_infinite_interval_endpoint_serializes_as_null():
    t = ConfusionTable(("a", "b"), (5, 5), (1, 9))
    interval = bootstrap_interval(t, "a")
    assert interval.upper == math.inf
    rows = json.loads(render_lr_table(t, "json", intervals={"a": interval}))
    assert rows[0]["interval"]["upper"] is None
    assert rows[0]["interval"]["lower"] == interval.lower
