import random

import pytest
from hypothesis import given, strategies as st

import street_scene
from labeleval.bipartition import (
    ConfusionLedger,
    dedup_normalized,
    exact_intersection,
    example_scores,
    label_based_scores,
    mean_scores,
)
from labeleval.embeddings import Vocabulary, clean_label, clean_labels
from labeleval.errors import EmptyDatasetError, EmptyLedgerError, EmptyTruthError
from labeleval.labelset import PredictedObject, intern_bag, intern_truth


def objects_of(*labels):
    return tuple(PredictedObject(synonyms=(label,)) for label in labels)


class TestExactIntersection:
    def test_street_scene_strongest_api(self):
        match = exact_intersection(
            street_scene.TRUTH_LABELS,
            street_scene.prediction_record("microsoft_computer_vision").objects)
        assert match.matched == 3

    def test_identical_single_label(self):
        assert exact_intersection(["car"], objects_of("car")).matched == 1

    def test_disjoint(self):
        assert exact_intersection(["car"], objects_of("boat")).matched == 0

    def test_one_to_one_on_duplicate_truth(self):
        match = exact_intersection(["car", "car"], objects_of("car", "car"))
        assert match.matched == 1  # truth deduplicates before matching

    def test_object_matches_first_unmatched_truth(self):
        objects = (PredictedObject(synonyms=("a", "b")),
                   PredictedObject(synonyms=("a",)))
        match = exact_intersection(["a", "b"], objects)
        assert match.matched == 1
        assert match.truth_indices == (0,)

    def test_normalization_before_comparison(self):
        assert exact_intersection(["Parking Meter"],
                                  objects_of("parking  meter!")).matched == 1


class TestExampleScores:
    @pytest.mark.parametrize("api_id", sorted(street_scene.EXPECTED_EXACT))
    def test_street_scene_grid(self, api_id):
        scores = example_scores(street_scene.TRUTH_LABELS,
                                street_scene.prediction_record(api_id).objects)
        recall, precision = street_scene.EXPECTED_EXACT[api_id]
        assert scores.recall == pytest.approx(recall, abs=0.005)
        assert scores.precision == pytest.approx(precision, abs=0.005)

    def test_clarifai_f1_by_direct_substitution(self):
        # oracle: m=1, |Y|=25, |Z|=5 -> f1 = 2*1/(25+5)
        scores = example_scores(street_scene.TRUTH_LABELS,
                                street_scene.prediction_record("clarifai").objects)
        assert scores.f1 == pytest.approx(2.0 / 30.0, abs=1e-12)
        assert scores.accuracy == pytest.approx(1.0 / 29.0, abs=1e-12)

    def test_perfect_prediction(self):
        scores = example_scores(["a", "b"], objects_of("a", "b"))
        assert scores == mean_scores([scores])
        assert (scores.accuracy, scores.precision, scores.recall, scores.f1) \
            == (1.0, 1.0, 1.0, 1.0)

    def test_empty_truth_rejected(self):
        with pytest.raises(EmptyTruthError):
            example_scores([], objects_of("a"))

    def test_no_objects_gives_zero_precision(self):
        scores = example_scores(["a"], ())
        assert scores.precision == 0.0
        assert scores.recall == 0.0

    def test_score_ordering_property(self):
        rng = random.Random(11)
        vocabulary = [f"w{i}" for i in range(30)]
        for _ in range(300):
            truth = rng.sample(vocabulary, rng.randint(1, 10))
            predicted = objects_of(*rng.sample(vocabulary, rng.randint(0, 10)))
            scores = example_scores(truth, predicted)
            assert 0.0 <= scores.accuracy <= 1.0
            assert scores.accuracy <= scores.f1 <= max(scores.precision,
                                                       scores.recall) + 1e-12

    def test_object_order_invariance_with_unique_labels(self):
        rng = random.Random(13)
        vocabulary = [f"w{i}" for i in range(30)]
        for _ in range(200):
            truth = rng.sample(vocabulary, rng.randint(1, 10))
            predicted = list(objects_of(*rng.sample(vocabulary,
                                                    rng.randint(0, 10))))
            baseline = example_scores(truth, predicted)
            rng.shuffle(predicted)
            shuffled = example_scores(truth, predicted)
            assert shuffled.precision == baseline.precision
            assert shuffled.recall == baseline.recall


class TestDatasetMetrics:
    """A dataset's example-based scores: the mean of its images' scores."""

    def test_single_image(self):
        assert mean_scores([example_scores(["a"], objects_of("a"))]).precision == 1.0

    def test_mean_of_two(self):
        units = [(["a", "b", "c", "d", "e"], objects_of("a")),
                 (["a", "b", "c", "d", "e"], objects_of("a", "b", "c"))]
        scores = mean_scores([example_scores(*unit) for unit in units])
        assert scores.precision == pytest.approx(1.0)
        assert scores.recall == pytest.approx((0.2 + 0.6) / 2)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            mean_scores([])


class TestConfusionLedger:
    def test_true_positive(self):
        ledger = ConfusionLedger(["car"])
        ledger.accumulate(["car"], objects_of("car"))
        assert ledger.tp == [1]
        assert ledger.fn == [0]

    def test_out_of_space_prediction(self):
        ledger = ConfusionLedger(["car"])
        ledger.accumulate(["car"], objects_of("boat"))
        assert ledger.fn == [1]
        assert ledger.extra_fp == 1

    def test_in_space_false_positive(self):
        ledger = ConfusionLedger(["car"])
        ledger.accumulate([], objects_of("car"))
        assert ledger.fp == [1]

    def test_exactly_one_counter_per_label_per_image(self):
        rng = random.Random(5)
        vocabulary = [f"w{i}" for i in range(12)]
        ledger = ConfusionLedger(vocabulary)
        for _ in range(50):
            truth = rng.sample(vocabulary, rng.randint(0, 6))
            predicted = objects_of(*rng.sample(vocabulary, rng.randint(0, 6)))
            ledger.accumulate(truth, predicted)
        for j in range(len(ledger.label_space)):
            assert ledger.tp[j] + ledger.fp[j] + ledger.fn[j] + ledger.tn(j) \
                == ledger.images

    def test_fresh_ledger_counts_as_a_new_one(self, monkeypatch):
        rng = random.Random(9)
        space = ["Car!", "car", "w1", "w 2", "???", "w3"]
        words = space + ["boat", "W1"]
        images = [(rng.sample(words, rng.randint(0, 5)),
                   objects_of(*rng.sample(words, rng.randint(0, 5))))
                  for _ in range(40)]
        template = ConfusionLedger(space)
        template.accumulate(*images[0])  # a used template still gives empty ledgers
        monkeypatch.setattr("labeleval.bipartition.clean_label", None)
        fresh = template.fresh()
        monkeypatch.undo()
        built = ConfusionLedger(space)
        assert fresh.label_space == built.label_space == ("car", "w1", "w 2", "w3")
        for image in images:
            fresh.accumulate(*image)
            built.accumulate(*image)
        assert vars(fresh) == vars(built)
        assert label_based_scores(fresh) == label_based_scores(built)
        assert template.images == 1

    def test_tp_plus_fn_covers_truth(self):
        ledger = ConfusionLedger(["a", "b", "c"])
        ledger.accumulate(["a", "b"], objects_of("a", "x"))
        in_space_truth = 2
        assert sum(ledger.tp) + sum(ledger.fn) == in_space_truth


class TestLabelBasedScores:
    def test_pooled_two_label_example(self):
        # (tp, fp, fn) = (1, 1, 0) and (1, 0, 1): pooled 2/(2+1) both ways
        ledger = ConfusionLedger(["a", "b"])
        ledger.tp = [1, 1]
        ledger.fp = [1, 0]
        ledger.fn = [0, 1]
        ledger.images = 2
        scores = label_based_scores(ledger)
        assert scores.micro_precision == pytest.approx(2 / 3)
        assert scores.micro_recall == pytest.approx(2 / 3)
        assert scores.micro_f1 == pytest.approx(2 / 3)

    def test_perfect_single_label(self):
        ledger = ConfusionLedger(["a"])
        ledger.accumulate(["a"], objects_of("a"))
        scores = label_based_scores(ledger)
        assert scores == label_based_scores(ledger)
        for value in (scores.macro_precision, scores.macro_recall,
                      scores.macro_f1, scores.micro_precision,
                      scores.micro_recall, scores.micro_f1):
            assert value == 1.0

    def test_zero_over_zero_is_zero(self):
        ledger = ConfusionLedger(["a"])
        ledger.fn = [2]
        ledger.images = 2
        scores = label_based_scores(ledger)
        assert scores.macro_precision == 0.0
        assert scores.macro_recall == 0.0

    def test_micro_f1_harmonic_identity(self):
        rng = random.Random(23)
        for _ in range(500):
            q = rng.randint(1, 8)
            ledger = ConfusionLedger([f"w{i}" for i in range(q)])
            ledger.tp = [rng.randint(0, 20) for _ in range(q)]
            ledger.fp = [rng.randint(0, 20) for _ in range(q)]
            ledger.fn = [rng.randint(0, 20) for _ in range(q)]
            ledger.extra_fp = rng.randint(0, 10)
            ledger.images = 60
            scores = label_based_scores(ledger)
            p, r = scores.micro_precision, scores.micro_recall
            expected = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            assert abs(scores.micro_f1 - expected) <= 1e-12
            for value in vars(scores).values():
                assert 0.0 <= value <= 1.0

    def test_empty_ledger(self):
        with pytest.raises(EmptyLedgerError):
            label_based_scores(ConfusionLedger([]))


def test_dedup_normalized_keeps_first_occurrence():
    assert dedup_normalized(["Car", "car!", "tree", "CAR"]) == ["car", "tree"]


@st.composite
def raw_spellings(draw):
    """A raw spelling of a word: mixed case, punctuation and runs of spaces,
    so that different spellings clean to the same text; the empty word's
    spellings clean to nothing."""
    word = draw(st.sampled_from(["car", "lamp post", "parking meter", "zzqx", ""]))
    noise = st.sampled_from(["", "", "!", "-", "  ", "?*"])
    return "".join(draw(noise) + (char.upper() if draw(st.booleans()) else char)
                   for char in word) + draw(noise)


@given(labels=st.lists(st.one_of(raw_spellings(), st.text(max_size=6)), max_size=12))
def test_every_label_set_is_deduplicated_alike(fixture_store, labels):
    """Truth sides, ledger spaces and ``dedup_normalized`` keep one label set:
    the non-empty cleanings in first-occurrence order."""
    expected = dedup_normalized(labels)
    assert list(ConfusionLedger(labels).label_space) == expected
    assert list(intern_bag(labels, fixture_store).labels) == expected
    vocab = Vocabulary(fixture_store, clean_labels(labels))
    truth = intern_truth(labels, vocab)
    firsts = [next(raw for raw in labels if clean_label(raw) == cleaned)
              for cleaned in expected]
    assert list(truth.labels) == expected
    assert truth.rows == tuple(map(vocab.row, firsts))
