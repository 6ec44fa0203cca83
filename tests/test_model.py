import copy
import math
import pickle
import random

import numpy as np
import pytest

from catlr.engine import SmoothingPolicy, likelihood_ratio, presentation_round
from catlr.interpret import VerbalScale, bundled_scale, hardness_adjust, posterior_probability
from catlr.model import (
    MAX_ROW_TOTAL,
    ConfusionTable,
    DataError,
    EvaluationRecord,
    GroundTruth,
    LrEstimate,
    check_labels,
    check_level,
    check_seed,
)
from catlr.simulate import PanelProfile, RecordBatch
from catlr.uncertainty import Interval

SAME = GroundTruth.SAME_SOURCE
DIFF = GroundTruth.DIFFERENT_SOURCE


class TestGroundTruth:
    def test_exactly_two_values(self):
        assert len(GroundTruth) == 2

    def test_tokens(self):
        assert SAME.value == "same"
        assert DIFF.value == "different"


class TestEvaluationRecord:
    def test_fields(self):
        r = EvaluationRecord("ex1", "item9", SAME, "ID")
        assert (r.examiner_id, r.item_id, r.truth, r.statement) == (
            "ex1",
            "item9",
            SAME,
            "ID",
        )

    def test_empty_statement_rejected(self):
        with pytest.raises(DataError):
            EvaluationRecord("ex1", "item9", SAME, "")

    def test_truth_must_be_ground_truth(self):
        with pytest.raises(DataError):
            EvaluationRecord("ex1", "item9", "same", "ID")

    def test_immutable(self):
        r = EvaluationRecord("ex1", "item9", SAME, "ID")
        with pytest.raises(AttributeError):
            r.statement = "Elimination"


class TestRecordBatch:
    def test_rows_are_record_views(self):
        batch = RecordBatch(("a", "b"), [0, 1, 1], [1, 0, 1])
        assert len(batch) == 3
        assert list(batch) == [
            EvaluationRecord("ex01", "item000001", SAME, "b"),
            EvaluationRecord("ex02", "item000002", DIFF, "a"),
            EvaluationRecord("ex03", "item000003", DIFF, "b"),
        ]
        assert batch[-1] == batch[2] == list(batch)[2]
        assert batch[1:] == list(batch)[1:]

    def test_examiners_round_robin(self):
        batch = RecordBatch(("a",), np.zeros(25, dtype=int), np.zeros(25, dtype=int))
        examiners = [r.examiner_id for r in batch]
        assert examiners == [f"ex{i % 10 + 1:02d}" for i in range(25)]
        assert examiners[0] == examiners[10] == examiners[20] == "ex01"
        assert batch[19].examiner_id == "ex10"

    def test_item_ids_grow_past_six_digits(self):
        n = 1_000_002
        batch = RecordBatch(("a",), np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=int))
        assert batch[999_998].item_id == "item999999"
        assert batch[1_000_000].item_id == "item1000001"

    @pytest.mark.parametrize("index", [3, -4])
    def test_index_out_of_range(self, index):
        with pytest.raises(IndexError):
            RecordBatch(("a",), [0, 0, 1], [0, 0, 0])[index]

    def test_arrays_are_read_only_copies(self):
        codes = np.array([0, 1])
        batch = RecordBatch(("a", "b"), [0, 0], codes)
        codes[0] = 1
        assert batch[0].statement == "a"
        with pytest.raises(TypeError):
            batch.statement_codes[0] = 1
        with pytest.raises(TypeError):
            batch.truth_codes[0] = 1

    @pytest.mark.parametrize(
        "categories, truth, codes, match",
        [
            (("a",), [2], [0], "truth codes"),
            (("a",), [-1], [0], "truth codes"),
            (("a", "b"), [0], [2], "index the 2 categories"),
            (("a",), [0, 1], [0], "equally long"),
            (("a",), [0.0], [0.0], "integers"),
            (("a", "a"), [0], [0], "duplicate"),
            ((), [], [], "non-empty"),
            (("a", "b\nc"), [0], [0], r"label 'b\\nc' would not read back"),
            (("a\r",), [0], [0], r"label 'a\\r' would not read back"),
            (("ID ",), [0], [0], "label 'ID ' would not read back"),
            ((" ID",), [0], [0], "label ' ID' would not read back"),
            (("\tID",), [0], [0], r"label '\\tID' would not read back"),
            (("x" * 131_073,), [0], [0], "131073 characters, more than the csv field limit 131072"),
            (("a", "b\ud800"), [0], [0], r"label 'b\\ud800' would not read back .* lone surrogate"),
        ],
    )
    def test_invalid_columns_rejected(self, categories, truth, codes, match):
        with pytest.raises(DataError, match=match):
            RecordBatch(categories, truth, codes)

    def test_equality_compares_rows(self):
        batch = RecordBatch(("a", "b"), [0, 1], [0, 1])
        assert batch == RecordBatch(("b", "a"), [0, 1], [1, 0])
        assert batch != RecordBatch(("a", "b"), [0, 0], [0, 1])
        assert batch != RecordBatch(("a", "b"), [0, 1, 1], [0, 1, 1])

    def test_equality_with_another_type_is_not_implemented(self):
        batch = RecordBatch(("a",), [0], [0])
        assert batch.__eq__(list(batch)) is NotImplemented
        assert batch != list(batch)

    def test_repr_names_the_size_and_categories(self):
        batch = RecordBatch(("a", "b"), [0, 1, 1], [1, 0, 1])
        assert repr(batch) == "RecordBatch(3 records, categories=['a', 'b'])"


class TestConfusionTable:
    def test_row_totals_bullets(self, bullets):
        assert bullets.row_total(SAME) == 1429
        assert bullets.row_total(DIFF) == 2891

    def test_empty_label_rejected(self):
        with pytest.raises(DataError, match=r"^categories must be non-empty labels: \('a', ''\)$"):
            ConfusionTable(("a", ""), (1, 2), (3, 4))

    def test_row_total_up_to_the_limit_accepted(self):
        t = ConfusionTable(("a", "b"), (MAX_ROW_TOTAL - 1, 1), (0, MAX_ROW_TOTAL))
        assert t.row_total(SAME) == t.row_total(DIFF) == MAX_ROW_TOTAL == 2**1023

    @pytest.mark.parametrize("row", [(MAX_ROW_TOTAL, 1), (10**400, 0)])
    def test_row_total_past_the_limit_rejected(self, row):
        with pytest.raises(DataError, match=r"^different_source counts sum past 2\*\*1023 = 8.98846567431158e\+307$"):
            ConfusionTable(("a", "b"), (1, 1), row)

    def test_all_zero_rows_total_zero(self):
        t = ConfusionTable(("a", "b"), (0, 0), (0, 0))
        assert t.row_total(SAME) == 0
        assert t.row_total(DIFF) == 0

    def test_row_total_invariant_under_category_permutation(self, bullets):
        rng = random.Random(5)
        order = list(range(len(bullets.categories)))
        for _ in range(10):
            rng.shuffle(order)
            shuffled = ConfusionTable(
                tuple(bullets.categories[i] for i in order),
                tuple(bullets.same_source[i] for i in order),
                tuple(bullets.different_source[i] for i in order),
            )
            assert shuffled.row_total(SAME) == bullets.row_total(SAME)
            assert shuffled.row_total(DIFF) == bullets.row_total(DIFF)

    def test_total_is_sum_of_rows(self, bullets):
        assert bullets.total() == 1429 + 2891

    def test_count_and_index(self, bullets):
        assert bullets.count(SAME, "ID") == 1076
        assert bullets.count(DIFF, "ID") == 20
        assert bullets.index_of("Other") == 5

    def test_unknown_statement_names_categories(self, bullets):
        with pytest.raises(DataError, match="Inconcl.-A"):
            bullets.count(SAME, "id")

    def test_frequencies_sum_to_one(self, bullets):
        for truth in (SAME, DIFF):
            assert math.fsum(bullets.frequencies(truth)) == pytest.approx(1.0, abs=1e-12)

    def test_frequencies_need_observations(self):
        t = ConfusionTable(("a",), (0,), (3,))
        with pytest.raises(DataError, match="no observations"):
            t.frequencies(SAME)

    def test_observed_total(self):
        t = ConfusionTable(("a", "b"), (0, 0), (3, 1))
        assert t.observed_total(DIFF) == 4
        with pytest.raises(DataError, match="^no observations under hypothesis 'same'$"):
            t.observed_total(SAME)

    def test_negative_count_rejected(self):
        with pytest.raises(DataError, match="negative"):
            ConfusionTable(("a",), (-3,), (1,))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            ConfusionTable(("a", "b"), (1,), (1, 2))

    def test_duplicate_label_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            ConfusionTable(("a", "a"), (1, 2), (3, 4))

    def test_empty_table_rejected(self):
        with pytest.raises(DataError):
            ConfusionTable((), (), ())

    def test_non_integer_counts_rejected(self):
        with pytest.raises(DataError):
            ConfusionTable(("a",), (1.5,), (1,))

    def test_category_order_preserved_not_sorted(self):
        t = ConfusionTable(("zeta", "alpha"), (1, 2), (3, 4))
        assert t.categories == ("zeta", "alpha")

    def test_study_name_excluded_from_equality(self, bullets):
        renamed = ConfusionTable(
            bullets.categories,
            bullets.same_source,
            bullets.different_source,
            study_name="other name",
        )
        assert renamed == bullets

    def test_immutable(self, bullets):
        with pytest.raises(AttributeError):
            bullets.categories = ("x",)


class TestLrEstimate:
    def test_ratio_when_denominator_positive(self):
        est = likelihood_ratio(ConfusionTable(("ID", "Elim"), (3, 1), (1, 3)), "ID")
        assert (est.lr, est.exact_lr) == (3.0, (12, 4))

    def test_infinite_when_only_denominator_zero(self):
        est = likelihood_ratio(ConfusionTable(("ID", "Elim"), (2, 3), (0, 5)), "ID")
        assert est.lr == math.inf
        assert not est.is_finite
        assert not est.is_undefined

    def test_undefined_when_both_zero(self):
        est = likelihood_ratio(ConfusionTable(("ID", "Elim"), (0, 5), (0, 5)), "ID")
        assert est.lr is None
        assert est.is_undefined
        # None never silently behaves like a number
        with pytest.raises(TypeError):
            est.lr * 2

    def test_lr_validated(self):
        for lr in (-0.5, math.nan):
            with pytest.raises(DataError, match="likelihood ratio must be >= 0 or infinite"):
                LrEstimate("ID", 0.5, 0.5, lr)

    def test_provenance_fields(self):
        est = likelihood_ratio(ConfusionTable(("ID", "Elim"), (1, 1), (1, 3)), "ID")
        assert (est.h1_count, est.h1_total, est.h2_count, est.h2_total) == (1, 2, 1, 4)

    def test_exact_ratio_defaults_to_the_exact_value_of_lr(self):
        assert LrEstimate("ID", 0.75, 0.25, 3.0).exact_lr == (3, 1)
        assert LrEstimate("ID", 0.4, 0.0, math.inf).exact_lr == (1, 0)
        assert LrEstimate("ID", 0.0, 0.0, None).exact_lr == (0, 0)
        assert LrEstimate("ID", 0.1, 0.2, 0.5, exact_lr=(1, 2)).exact_lr == (1, 2)


@pytest.mark.parametrize("lr", [math.nan, -1.0])
def test_display_and_interpretation_reject_an_invalid_lr_alike(lr):
    callers = (
        presentation_round,
        lambda lr: posterior_probability(0.5, lr),
        lambda lr: hardness_adjust(lr, 0.5),
        bundled_scale("forensic").label_for,
    )
    for call in callers:
        with pytest.raises(DataError) as raised:
            call(lr)
        assert str(raised.value) == f"likelihood ratio must be >= 0 or infinite, got {lr!r}"


# (type, keyword arguments, keyword arguments of an unequal value, repr)
# The reprs are those the earlier dataclass versions printed.
VALUE_TYPES = [
    (
        EvaluationRecord,
        {"examiner_id": "ex1", "item_id": "item9", "truth": SAME, "statement": "ID"},
        {"examiner_id": "ex1", "item_id": "item9", "truth": DIFF, "statement": "ID"},
        "EvaluationRecord(examiner_id='ex1', item_id='item9', "
        "truth=<GroundTruth.SAME_SOURCE: 'same'>, statement='ID')",
    ),
    (
        ConfusionTable,
        {"categories": ["ID", "Elim"], "same_source": [3, 1], "different_source": (0, 4),
         "study_name": "s"},
        {"categories": ["ID", "Elim"], "same_source": [3, 1], "different_source": (1, 4),
         "study_name": "s"},
        "ConfusionTable(categories=('ID', 'Elim'), same_source=(3, 1), "
        "different_source=(0, 4), study_name='s')",
    ),
    (
        LrEstimate,
        {"statement": "ID", "p_given_h1": 0.75, "p_given_h2": 0.0, "lr": math.inf,
         "smoothing": "none", "h1_count": 3, "h1_total": 4, "h2_count": 0, "h2_total": 4,
         "exact_lr": (12, 0)},
        {"statement": "ID", "p_given_h1": 0.75, "p_given_h2": 0.0, "lr": math.inf},
        "LrEstimate(statement='ID', p_given_h1=0.75, p_given_h2=0.0, lr=inf, "
        "smoothing='none', h1_count=3, h1_total=4, h2_count=0, h2_total=4, "
        "exact_lr=(12, 0))",
    ),
    (SmoothingPolicy, {"alpha": 0.5}, {}, "SmoothingPolicy(alpha=0.5)"),
    (
        Interval,
        {"lower": 0.5, "upper": math.inf, "level": 0.95, "method": "bootstrap"},
        {"lower": 0.5, "upper": math.inf, "level": 0.9, "method": "bootstrap"},
        "Interval(lower=0.5, upper=inf, level=0.95, method='bootstrap')",
    ),
    (
        VerbalScale,
        {"name": "s", "bands": [(0, "weak"), (10, "strong")]},
        {"name": "t", "bands": [(0, "weak"), (10, "strong")]},
        "VerbalScale(name='s', bands=((0.0, 'weak'), (10.0, 'strong')))",
    ),
    (
        PanelProfile,
        {"categories": ["a", "b"], "p_given_h1": (0.5, 0.5), "p_given_h2": [1, 0],
         "n_h1": 10, "n_h2": 20, "seed": 3},
        {"categories": ["a", "b"], "p_given_h1": (0.5, 0.5), "p_given_h2": [1, 0],
         "n_h1": 10, "n_h2": 20},
        "PanelProfile(categories=('a', 'b'), p_given_h1=(0.5, 0.5), "
        "p_given_h2=(1.0, 0.0), n_h1=10, n_h2=20, seed=3)",
    ),
]


@pytest.mark.parametrize(
    "cls, fields, other_fields, text", VALUE_TYPES, ids=[c[0].__name__ for c in VALUE_TYPES]
)
def test_value_type_contract(cls, fields, other_fields, text):
    value = cls(**fields)
    assert value == cls(*fields.values())
    assert hash(value) == hash(cls(*fields.values()))
    assert value != cls(**other_fields)
    assert value != tuple(fields.values())
    assert len({value, cls(**fields), cls(**other_fields)}) == 2
    assert repr(value) == text
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    name = next(iter(fields))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text


def test_study_name_ignored_by_table_equality_and_hash():
    a = ConfusionTable(("x", "y"), (1, 2), (3, 4), study_name="a")
    b = ConfusionTable(("x", "y"), (1, 2), (3, 4), study_name="b")
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_option_checks():
    assert check_level(0.5) == 0.5
    assert check_seed(7) == 7
    for level in (0.0, 1.0, 2.0, math.nan):
        with pytest.raises(DataError, match="level must be in"):
            check_level(level)
    for seed in (-1, True, 1.5):
        with pytest.raises(DataError, match="seed must be"):
            check_seed(seed)


# Label lists no CSV file catlr writes could read back, and what the one label check says
UNREADABLE_LABELS = [
    ((), r"^categories must be non-empty labels: \(\)$"),
    (("a", ""), r"^categories must be non-empty labels: \('a', ''\)$"),
    ((" a",), "label ' a' would not read back"),
    (("a\t",), r"label 'a\\t' would not read back"),
    (("a\nb",), r"label 'a\\nb' would not read back"),
    (("a\rb",), r"label 'a\\rb' would not read back"),
    (("a\ud800",), "lone surrogate"),
    (("x" * 131_073,), "more than the csv field limit 131072"),
    (("a", "a"), r"^duplicate category label in \('a', 'a'\)$"),
]
_BUILDERS = (
    lambda labels: ConfusionTable(labels, [0] * len(labels), [0] * len(labels)),
    lambda labels: PanelProfile(labels, [1.0] + [0.0] * (len(labels) - 1), [1.0], 1, 1),
    lambda labels: RecordBatch(labels, [], []),
)


@pytest.mark.parametrize("labels, match", UNREADABLE_LABELS)
def test_tables_profiles_and_batches_reject_a_label_alike(labels, match):
    with pytest.raises(DataError, match=match) as raised:
        check_labels(labels)
    for build in _BUILDERS:
        with pytest.raises(DataError) as built:
            build(labels)
        assert str(built.value) == str(raised.value)


def test_label_check_returns_the_labels_as_strings():
    assert check_labels(["ID", 7, "#1 pick", "a\x0cb"]) == ("ID", "7", "#1 pick", "a\x0cb")
