import io
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catlr.interpret import (
    VerbalScale,
    bundled_scale,
    hardness_adjust,
    load_scale,
    posterior_probability,
    verbal_label,
)
from catlr.model import DataError


class TestPosteriorProbability:
    def test_weak_prior_strong_lr(self):
        p = posterior_probability(0.10, 1000)
        assert p == pytest.approx(0.9911, abs=1e-4)
        assert round(p, 2) == 0.99

    def test_lr_one_is_identity(self):
        for prior in (0.01, 0.1, 0.5, 0.9, 0.99):
            assert posterior_probability(prior, 1.0) == pytest.approx(prior, abs=1e-15)

    def test_even_prior_triples(self):
        assert posterior_probability(0.5, 3.0) == pytest.approx(0.75, abs=1e-15)

    def test_infinite_lr(self):
        assert posterior_probability(0.1, math.inf) == 1.0

    def test_zero_lr(self):
        assert posterior_probability(0.9, 0.0) == 0.0

    @pytest.mark.parametrize("prior", [0.0, 1.0, -0.2, 1.7])
    def test_degenerate_prior_rejected(self, prior):
        with pytest.raises(DataError, match="strictly between 0 and 1"):
            posterior_probability(prior, 10)

    def test_undefined_lr_rejected(self):
        with pytest.raises(DataError, match="undefined"):
            posterior_probability(0.5, None)

    @given(
        prior=st.floats(0.01, 0.99),
        lr=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=300)
    def test_odds_form_consistency(self, prior, lr):
        prior_odds = prior / (1.0 - prior)
        # keep the posterior away from 1: recovering odds from a posterior of
        # 1 - 1e-5 cancels ~11 digits, which would test float64, not Bayes
        assume(prior_odds * lr < 500)
        posterior = posterior_probability(prior, lr)
        posterior_odds = posterior / (1.0 - posterior)
        assert posterior_odds == pytest.approx(prior_odds * lr, rel=1e-12)

    def test_strictly_increasing_in_lr(self):
        values = [posterior_probability(0.3, lr) for lr in (0.1, 0.5, 1, 2, 10, 100)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_strictly_increasing_in_prior(self):
        values = [posterior_probability(p, 7.0) for p in (0.05, 0.2, 0.5, 0.8, 0.95)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)


class TestHardnessAdjust:
    def test_hundredfold_reduction(self):
        assert hardness_adjust(109, 0.01) == 109 / 100
        assert hardness_adjust(109, 0.01) == pytest.approx(1.09)

    def test_fingerprint_identification_value(self):
        assert hardness_adjust(376, 0.01) == 376 / 100

    def test_full_fraction_is_identity(self):
        for lr in (0.3, 1.0, 42.5, 1e6):
            assert hardness_adjust(lr, 1.0) == lr

    def test_composition(self):
        lr = 523.0
        chained = hardness_adjust(hardness_adjust(lr, 0.2), 0.05)
        assert chained == pytest.approx(hardness_adjust(lr, 0.2 * 0.05), rel=1e-12)

    def test_infinite_lr_stays_infinite(self):
        assert hardness_adjust(math.inf, 0.01) == math.inf

    @pytest.mark.parametrize("q", [5e-324, 1e-320, 2.2250738585072014e-308, 1.0])
    def test_infinite_lr_stays_infinite_for_any_fraction(self, q):
        assert hardness_adjust(math.inf, q) == math.inf

    def test_subnormal_fraction_scales_a_finite_lr(self):
        # 1 / q overflows, so dividing by it would give 0
        assert hardness_adjust(1e300, 1e-320) == 1e300 * 1e-320
        # 1e-320 is subnormal, held to ~5 significant digits: the product is
        # 9.99988867e-21, and approx's default abs=1e-12 would accept even 0
        assert hardness_adjust(1e300, 1e-320) == pytest.approx(1e-20, rel=2e-5, abs=0)

    @pytest.mark.parametrize("q", [0.0, -0.5, 1.5])
    def test_fraction_validated(self, q):
        with pytest.raises(DataError, match="retained fraction"):
            hardness_adjust(10, q)

    def test_undefined_lr_rejected(self):
        with pytest.raises(DataError):
            hardness_adjust(None, 0.5)


class TestVerbalScales:
    def test_forensic_scale_calls_1000_moderately_strong(self):
        assert verbal_label(1000, bundled_scale("forensic")) == "moderately strong"

    def test_scientist_scale_calls_1000_decisive(self):
        assert verbal_label(1000, bundled_scale("jeffreys")) == "decisive"

    def test_lr_one_lands_in_central_band(self):
        assert verbal_label(1, bundled_scale("forensic")) == "neutral"
        assert verbal_label(1, bundled_scale("jeffreys")) == "barely worth mentioning"

    def test_reciprocal_mirrors_direction(self):
        scale = bundled_scale("forensic")
        assert (
            verbal_label(1 / 1000, scale)
            == "moderately strong support for different source"
        )

    def test_infinity_maps_to_top_band(self):
        assert verbal_label(math.inf, bundled_scale("forensic")) == "extremely strong"
        assert verbal_label(math.inf, bundled_scale("jeffreys")) == "decisive"

    def test_band_edges_are_lower_inclusive(self):
        scale = bundled_scale("forensic")
        assert verbal_label(3.0, scale) == "weak"
        assert verbal_label(2.999999, scale) == "neutral"
        assert verbal_label(300.0, scale) == "moderately strong"

    def test_constant_within_band(self):
        scale = bundled_scale("jeffreys")
        assert {verbal_label(v, scale) for v in (10, 15, 22.5, 29.9)} == {"strong"}

    def test_zero_falls_in_first_band(self):
        scale = bundled_scale("forensic")
        assert verbal_label(0.0, scale) == scale.bands[0][1]

    def test_undefined_lr_rejected(self):
        with pytest.raises(DataError):
            verbal_label(None, bundled_scale("forensic"))

    def test_unknown_bundled_name(self):
        with pytest.raises(DataError, match="unknown scale"):
            bundled_scale("astrology")


class TestVerbalScaleValidation:
    def test_first_band_must_start_at_zero(self):
        with pytest.raises(DataError, match="start at 0"):
            VerbalScale("s", ((1.0, "a"),))

    def test_edges_strictly_increasing(self):
        with pytest.raises(DataError, match="strictly increasing"):
            VerbalScale("s", ((0.0, "a"), (2.0, "b"), (2.0, "c")))

    def test_labels_non_empty(self):
        with pytest.raises(DataError, match="non-empty"):
            VerbalScale("s", ((0.0, "a"), (1.0, " ")))

    def test_edges_finite(self):
        with pytest.raises(DataError, match="^band edges must be finite$"):
            VerbalScale("s", ((0.0, "a"), (math.inf, "b")))

    def test_needs_at_least_one_band(self):
        with pytest.raises(DataError):
            VerbalScale("s", ())


class TestLoadScale:
    def test_round_trip_with_header_and_comments(self):
        text = "# comment\nlower_lr,label\n0,against\n1,neutral-ish\n10,for\n"
        scale = load_scale(text, name="tiny")
        assert scale.name == "tiny"
        assert scale.bands == ((0.0, "against"), (1.0, "neutral-ish"), (10.0, "for"))
        assert verbal_label(5, scale) == "neutral-ish"

    def test_header_optional(self):
        scale = load_scale("0,low\n2,high\n")
        assert verbal_label(3, scale) == "high"

    def test_non_numeric_edge_names_line(self):
        with pytest.raises(DataError, match="line 2"):
            load_scale("0,low\nx,high\n")

    def test_descending_edges_rejected(self):
        with pytest.raises(DataError, match="strictly increasing"):
            load_scale("0,a\n5,b\n2,c\n")

    def test_separator_characters_stay_in_a_label(self):
        scale = load_scale("lower_lr,label\n0,weak\x0cish\n10,strong\n")
        assert scale.bands == ((0.0, "weak\x0cish"), (10.0, "strong"))

    def test_a_quoted_label_may_hold_a_comma(self):
        scale = load_scale('lower_lr,label\n0,"weak, but"\n10,strong\n')
        assert scale.bands == ((0.0, "weak, but"), (10.0, "strong"))

    @pytest.mark.parametrize(
        "row, fields", [("0,weak, but", 3), ("0", 1)], ids=["unquoted-comma", "no-label"]
    )
    def test_a_row_has_exactly_two_fields(self, row, fields):
        with pytest.raises(DataError) as raised:
            load_scale(f"# c\n{row}\n10,strong\n")
        assert str(raised.value) == f"line 2: expected 2 fields, got {fields}"

    def test_line_numbers_are_physical(self):
        with pytest.raises(DataError) as raised:
            load_scale("0,a\x0bb\r\n# c\x1c d\r\n\x85\rx,high\n")
        assert str(raised.value) == "line 4: lower edge 'x' is not a number"

    @settings(max_examples=200, deadline=None)
    @given(
        labels=st.lists(
            st.text(alphabet="ab #,\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", max_size=5),
            max_size=6,
        ),
        end=st.sampled_from(("\n", "\r\n", "\r")),
    )
    def test_a_string_reads_as_an_open_file_does(self, labels, end):
        text = "".join(f"{n},{label}{end}" for n, label in enumerate(labels))
        assert _outcome(load_scale, text) == _outcome(
            load_scale, io.StringIO(text, newline=None)
        )


def _outcome(read, source):
    """What ``read(source)`` returns, or the type and message of what it raises."""
    try:
        return read(source)
    except DataError as exc:
        return type(exc), str(exc)
