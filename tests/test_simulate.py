import io
import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from catlr.engine import full_table_lrs
from catlr.model import ConfusionTable, DataError, GroundTruth
from catlr.records import parse_records, tally
from catlr.simulate import (
    RNG_ALGORITHM,
    PanelProfile,
    RecordBatch,
    _draw,
    emit_records,
    load_profile,
    simulate_study,
    true_lr,
)

SAME = GroundTruth.SAME_SOURCE
DIFF = GroundTruth.DIFFERENT_SOURCE

PROFILE_CFG = """
[profile]
categories = ID, Inconclusive, Elimination
p_given_h1 = 0.75, 0.2, 0.05
p_given_h2 = 0.007, 0.5, 0.493
n_h1 = 40
n_h2 = 60
seed = 42
"""


class TestPanelProfile:
    def test_vectors_must_sum_to_one(self):
        with pytest.raises(DataError, match="sum to 1"):
            PanelProfile(("a", "b"), (0.6, 0.5), (0.5, 0.5), 10, 10)

    def test_categories_must_be_unique(self):
        with pytest.raises(DataError, match=r"^duplicate category label in \('a', 'a'\)$"):
            PanelProfile(("a", "a"), (0.5, 0.5), (0.5, 0.5), 10, 10)

    def test_lengths_must_match(self):
        with pytest.raises(DataError):
            PanelProfile(("a", "b"), (1.0,), (0.5, 0.5), 10, 10)

    def test_sizes_positive(self):
        with pytest.raises(DataError):
            PanelProfile(("a",), (1.0,), (1.0,), 0, 10)

    def test_probabilities_in_range(self):
        with pytest.raises(DataError):
            PanelProfile(("a", "b"), (1.5, -0.5), (0.5, 0.5), 10, 10)

    def test_from_table_uses_empirical_frequencies(self, bullets):
        profile = PanelProfile.from_table(bullets, 100, 200, seed=3)
        assert profile.categories == bullets.categories
        assert profile.p_given_h1[0] == 1076 / 1429
        assert profile.p_given_h2[0] == 20 / 2891
        assert (profile.n_h1, profile.n_h2) == (100, 200)


    @given(rows=st.lists(st.tuples(st.text(max_size=6), st.integers(0, 5), st.integers(0, 5)),
                         min_size=1, max_size=5))
    @example(rows=[("a\nb", 1, 1)])
    @example(rows=[(" a", 1, 0), ("b", 0, 1)])
    @settings(max_examples=60, deadline=None)
    def test_from_table_simulates_every_accepted_table(self, rows):
        try:
            table = ConfusionTable(*zip(*rows))
        except DataError:
            assume(False)
        assume(table.row_total(SAME) and table.row_total(DIFF))
        batch = simulate_study(PanelProfile.from_table(table, 30, 20, seed=1))
        assert parse_records(emit_records(batch)) == list(batch)


class TestSimulateStudy:
    def test_point_mass_profile_yields_single_statement(self):
        profile = PanelProfile(
            ("a", "b", "c"), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0), 50, 50, seed=1
        )
        records = simulate_study(profile)
        assert len(records) == 100
        assert {r.statement for r in records} == {"b"}

    def test_fixed_seed_reproduces_records_exactly(self):
        profile = PanelProfile(("a", "b"), (0.3, 0.7), (0.8, 0.2), 200, 300, seed=9)
        assert simulate_study(profile) == simulate_study(profile)

    def test_different_seed_changes_records(self):
        base = PanelProfile(("a", "b"), (0.3, 0.7), (0.8, 0.2), 200, 300, seed=9)
        other = PanelProfile(("a", "b"), (0.3, 0.7), (0.8, 0.2), 200, 300, seed=10)
        assert simulate_study(base) != simulate_study(other)

    def test_truth_split_matches_sizes(self):
        profile = PanelProfile(("a", "b"), (0.5, 0.5), (0.5, 0.5), 40, 60, seed=2)
        records = simulate_study(profile)
        assert sum(r.truth is SAME for r in records) == 40
        assert sum(r.truth is DIFF for r in records) == 60

    def test_examiners_assigned_round_robin(self):
        profile = PanelProfile(("a",), (1.0,), (1.0,), 15, 5, seed=0)
        records = simulate_study(profile)
        assert records[0].examiner_id == "ex01"
        assert records[9].examiner_id == "ex10"
        assert records[10].examiner_id == "ex01"

    def test_codes_are_the_two_draws_same_source_first(self):
        profile = PanelProfile(("a", "b", "c"), (0.2, 0.3, 0.5), (0.6, 0.3, 0.1), 50, 70, seed=11)
        g = random.Random(11)
        same, _ = reference_codes(g, 50, profile.p_given_h1)
        different, _ = reference_codes(g, 70, profile.p_given_h2)
        batch = simulate_study(profile)
        assert isinstance(batch, RecordBatch)
        assert batch.categories == profile.categories
        assert batch.statement_codes.tolist() == same + different
        assert batch.truth_codes.tolist() == [0] * 50 + [1] * 70

    def test_item_ids_unique(self):
        profile = PanelProfile(("a", "b"), (0.5, 0.5), (0.5, 0.5), 100, 100, seed=5)
        records = simulate_study(profile)
        assert len({r.item_id for r in records}) == len(records)


def reference_codes(g, n, p):
    """The codes of ``n`` records under ``p`` as the seeded contract draws
    them from ``g``, by bisecting every record's 53-bit U on thresholds
    computed in rationals, and the number of records that took 1, 2 and 3
    stages of bits.  U's bits that a record does not take are 0 here."""
    weights = [Fraction(x) for x in p]
    cdf = [sum(weights[: j + 1]) / sum(weights) for j in range(len(p) - 1)]
    thresholds = [math.floor(2**53 * f + Fraction(1, 2)) for f in cdf]

    def code(u):
        return bisect_right(thresholds, u)

    def is_open(u, free_bits):  # U's category is not yet fixed by its drawn bits
        return code(u) != code(u + 2**free_bits - 1)

    us = [b << 45 for b in g.getrandbits(8 * n).to_bytes(n, "little")]
    second = [i for i in range(n) if is_open(us[i], 45)]
    for i, b in zip(second, g.getrandbits(8 * len(second)).to_bytes(len(second), "little")):
        us[i] |= b << 37
    third = [i for i in second if is_open(us[i], 37)]
    for i in third:
        us[i] |= g.getrandbits(37)
    return [code(u) for u in us], (n - len(second), len(second) - len(third), len(third))


def _weights(k, seed):
    rng = random.Random(seed)
    weights = [rng.random() + 0.01 for _ in range(k)]
    return [w / math.fsum(weights) for w in weights]


class TestSampler:
    """``_draw`` against the contract in ``catlr.simulate``'s docstring."""

    PROFILES = {
        # 0.3 * 2**53 falls inside a byte's range: those records take more bits
        "straddling": (0.3, 0.7),
        # 0.5 * 2**53 is a byte's edge: no record takes more than one byte
        "byte edge": (0.5, 0.25, 0.25),
        "zero category": (0.4, 0.0, 0.6),
        "K=1": (1.0,),
        # a threshold 2**13 above a byte's edge, inside one cell of U's top 16 bits
        "tiny": (0.5, 2.0**-40, 0.5 - 2.0**-40),
        "K=6": (0.6, 0.15, 0.1, 0.05, 0.06, 0.04),
        "K=254": _weights(254, 1),
        "K=255": _weights(255, 2),
        "K=300": _weights(300, 3),
    }

    @pytest.mark.parametrize("name", PROFILES)
    def test_codes_equal_the_bisection_of_every_records_u(self, name):
        p = self.PROFILES[name]
        for seed, n in ((0, 1), (1, 7), (2, 20_000)):
            expected, _ = reference_codes(random.Random(seed), n, p)
            codes = _draw(random.Random(seed), n, p)
            assert type(codes).__name__ == ("bytes" if len(p) <= 256 else "array")
            assert list(codes) == expected

    def test_every_stage_of_bits_is_taken(self):
        _, (one, two, three) = reference_codes(random.Random(2), 20_000, self.PROFILES["K=254"])
        assert one and two and three
        _, stages = reference_codes(random.Random(2), 20_000, self.PROFILES["byte edge"])
        assert stages == (20_000, 0, 0)

    def test_a_category_of_probability_zero_is_never_drawn(self):
        assert 1 not in _draw(random.Random(4), 100_000, self.PROFILES["zero category"])

    def test_draws_follow_the_stream_after_them(self):
        # the stages take exactly the bits the contract names, so the next draw matches
        for name in ("straddling", "K=254", "K=300"):
            g, h = random.Random(5), random.Random(5)
            _draw(g, 5000, self.PROFILES[name])
            reference_codes(h, 5000, self.PROFILES[name])
            assert g.getrandbits(64) == h.getrandbits(64)

    @pytest.mark.parametrize("name", ["K=6", "tiny", "K=300"])
    def test_frequencies_of_a_million_draws(self, name):
        # within 6 standard deviations plus one, as bench/checks.py::check_simulated
        p, n = self.PROFILES[name], 10**6
        codes = _draw(random.Random(6), n, p)
        counts = [0] * len(p)
        for code in codes:
            counts[code] += 1
        for x, q in zip(counts, p):
            assert abs(x - n * q) <= 6.0 * math.sqrt(n * q * (1.0 - q)) + 1.0

    def test_algorithm_is_named(self):
        assert RNG_ALGORITHM == "mt19937-u53-v3"


class TestTrueLr:
    def test_equal_vectors_give_one(self):
        profile = PanelProfile(("a", "b"), (0.4, 0.6), (0.4, 0.6), 10, 10)
        assert true_lr(profile, "a") == 1.0
        assert true_lr(profile, "b") == 1.0

    def test_worked_two_category_value(self):
        profile = PanelProfile(("hit", "miss"), (0.75, 0.25), (0.007, 0.993), 10, 10)
        assert true_lr(profile, "hit") == 0.75 / 0.007
        assert true_lr(profile, "hit") == pytest.approx(107.1, abs=0.05)

    def test_point_mass_versus_uniform(self):
        profile = PanelProfile(("a", "b"), (1.0, 0.0), (0.5, 0.5), 10, 10)
        assert true_lr(profile, "a") == 2.0

    def test_zero_denominator_is_infinite(self):
        profile = PanelProfile(("a", "b"), (0.5, 0.5), (0.0, 1.0), 10, 10)
        assert true_lr(profile, "a") == math.inf

    def test_zero_both_is_undefined(self):
        profile = PanelProfile(("a", "b"), (0.0, 1.0), (0.0, 1.0), 10, 10)
        assert true_lr(profile, "a") is None

    def test_unknown_statement(self):
        profile = PanelProfile(("a",), (1.0,), (1.0,), 10, 10)
        with pytest.raises(DataError, match="unknown statement"):
            true_lr(profile, "zz")


class TestEstimatorConsistency:
    def test_errors_shrink_with_sample_size(self, bullets):
        truth = {e.statement: e.lr for e in full_table_lrs(bullets)}

        def id_relative_error(n):
            profile = PanelProfile.from_table(bullets, n, n, seed=4)
            table = tally(simulate_study(profile), vocabulary=bullets.categories)
            est = {e.statement: e.lr for e in full_table_lrs(table)}
            return abs(est["ID"] / truth["ID"] - 1.0)

        assert id_relative_error(10**3) <= 0.35
        assert id_relative_error(10**5) <= 0.10

    def test_calibration_identity_holds_on_simulated_tally(self):
        profile = PanelProfile(
            ("a", "b", "c"),
            (0.5, 0.3, 0.2),
            (0.2, 0.3, 0.5),
            2000,
            2000,
            seed=8,
        )
        table = tally(simulate_study(profile), vocabulary=profile.categories)
        assert min(table.same_source) > 0 and min(table.different_source) > 0
        ests = full_table_lrs(table)
        assert abs(math.fsum(e.p_given_h2 * e.lr for e in ests) - 1.0) < 1e-12
        assert abs(math.fsum(e.p_given_h1 / e.lr for e in ests) - 1.0) < 1e-12


class TestLoadProfile:
    def test_parses_config(self):
        profile = load_profile(PROFILE_CFG)
        assert profile.categories == ("ID", "Inconclusive", "Elimination")
        assert profile.p_given_h1 == (0.75, 0.2, 0.05)
        assert profile.p_given_h2 == (0.007, 0.5, 0.493)
        assert (profile.n_h1, profile.n_h2, profile.seed) == (40, 60, 42)

    def test_seed_defaults_to_zero(self):
        cfg = PROFILE_CFG.replace("seed = 42\n", "")
        assert load_profile(cfg).seed == 0

    def test_missing_section(self):
        with pytest.raises(DataError, match="\\[profile\\] section"):
            load_profile("[other]\nx = 1\n")

    def test_missing_key(self):
        with pytest.raises(DataError, match="p_given_h2"):
            load_profile(
                "[profile]\ncategories = a\np_given_h1 = 1.0\nn_h1 = 5\nn_h2 = 5\n"
            )

    def test_malformed_number(self):
        bad = PROFILE_CFG.replace("0.75", "three quarters")
        with pytest.raises(DataError, match="malformed"):
            load_profile(bad)

    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["no BOM", "BOM"])
    @pytest.mark.parametrize(
        "form", [str, io.StringIO, str.splitlines], ids=["string", "file", "bare lines"]
    )
    def test_every_source_form_reads_alike(self, form, bom):
        # an open file's lines end in "\n", a list's need not; a leading BOM is skipped
        text = PROFILE_CFG.lstrip()
        assert load_profile(form(bom + text)) == load_profile(PROFILE_CFG)
        bad = text.replace("\np_given_h1", "\ngarbage\np_given_h1")
        assert bad.splitlines()[2] == "garbage"
        with pytest.raises(DataError, match=r"\[line  3\]: 'garbage"):
            load_profile(form(bom + bad))

    def test_vector_sum_checked(self):
        bad = PROFILE_CFG.replace("0.75, 0.2, 0.05", "0.75, 0.2, 0.25")
        with pytest.raises(DataError, match="^p_given_h1 must sum to 1"):
            load_profile(bad)
