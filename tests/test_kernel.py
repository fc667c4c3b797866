"""The interned scoring kernel against its independent references.

The vectorised similarity grid and WMD costs are checked against loops over
the scalar ``cosine`` and ``euclidean``; the k-prefix rule against ``top_k``
at each k; the transport solver's duals against the LP optimality
conditions, on instances far beyond the exhaustive oracle's reach.
"""

from __future__ import annotations

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import street_scene
from labeleval import harness, wmd
from labeleval.bipartition import ConfusionLedger, dedup_normalized, exact_intersection
from labeleval.embeddings import (
    UNKNOWN_TOKEN,
    EmbeddingStore,
    Vocabulary,
    clean_label,
    clean_labels,
    cosine,
    euclidean,
    resolve_label,
)
from labeleval.errors import EmptyBagError, ZeroVectorError
from labeleval.harness import RunConfig, run_evaluation
from labeleval.labelset import (
    GroundTruthRecord,
    PredictedObject,
    PredictionRecord,
    intern_objects,
    intern_truth,
    label_bag,
    object_counts,
    top_k,
    write_ground_truth,
    write_predictions,
)
from labeleval.semantic import semantic_intersection, similarity_matrix
from labeleval.sentence import render_bow_text
from labeleval.wmd import build_nbow, cost_matrix, dataset_wmd, solve_transport, wmd_pair

WORDS = ["car", "street", "lamp_post", "Parking_Meter", "tree", "man", "zero"]
SPELLINGS = ["car", "Car!", "street", "lamp post", "Lamp-Post", "parking meter",
             "tree", "man", "zero", "zzqx", "???"]


def reference_grid(truth, objects, store):
    """Per-cell loop over the scalar cosine: the grid's reference."""
    truth_d = dedup_normalized(truth)
    resolved = [resolve_label(store, label) for label in truth_d]
    values = np.full((len(truth_d), len(objects)), -1.0)
    exact = np.zeros(values.shape, dtype=bool)
    for oj, obj in enumerate(objects):
        cleaned = [clean_label(s) for s in obj.synonyms]
        vectors = [store.get(r.token) for r in map(lambda s: resolve_label(store, s),
                                                     obj.synonyms) if r.is_resolved]
        for ti, label in enumerate(truth_d):
            if label in cleaned:
                values[ti, oj], exact[ti, oj] = 1.0, True
                continue
            if not resolved[ti].is_resolved:
                continue
            for vector in vectors:
                try:
                    similarity = cosine(store.get(resolved[ti].token), vector)
                except ZeroVectorError:
                    continue
                values[ti, oj] = max(values[ti, oj], similarity)
    return values, exact


def reference_costs(a, b, store):
    """Per-cell loop over the scalar euclidean: the cost matrix's reference."""
    def vector(token):
        return np.zeros(store.dim) if token == UNKNOWN_TOKEN else store.get(token)
    return np.array([[0.0 if x == y else euclidean(vector(x), vector(y))
                      for y in b.tokens] for x in a.tokens])


components = st.one_of(st.integers(-3, 3).map(float),
                       st.floats(-4.0, 4.0, allow_nan=False, width=32))


@st.composite
def scored_units(draw):
    dim = draw(st.integers(1, 6))
    entries = []
    for word in WORDS:
        if word == "zero":
            vector = [0.0] * dim  # a stored zero vector never matches
        else:
            vector = draw(st.lists(components, min_size=dim, max_size=dim))
        entries.append((word, np.array(vector, dtype=np.float32)))
    store = EmbeddingStore(entries, dim=dim)
    labels = st.sampled_from(SPELLINGS)
    truth = draw(st.lists(labels, min_size=1, max_size=6))
    objects = draw(st.lists(
        st.lists(labels, min_size=1, max_size=3).map(
            lambda synonyms: PredictedObject(synonyms=tuple(synonyms))),
        max_size=6))
    return store, truth, tuple(objects)


class TestDifferential:
    @settings(deadline=None)
    @given(scored_units())
    def test_grid_matches_scalar_cosine(self, unit):
        store, truth, objects = unit
        kernel = similarity_matrix(truth, objects, store)
        values, exact = reference_grid(truth, objects, store)
        assert np.array_equal(kernel.exact, exact)
        assert kernel.values.shape == values.shape
        if values.size:
            assert np.max(np.abs(kernel.values - values)) <= 1e-12
        reference = type(kernel)(kernel.truth_labels, values, exact,
                                 exact_intersection(truth, objects))
        assert semantic_intersection(kernel, 0.4).matched \
            == semantic_intersection(reference, 0.4).matched

    @settings(deadline=None)
    @given(scored_units())
    def test_costs_match_scalar_euclidean(self, unit):
        store, truth, objects = unit
        a = build_nbow(label_bag(truth, store))
        b = build_nbow(label_bag([s for o in objects for s in o.synonyms] + truth, store))
        costs = cost_matrix(a, b, store)
        assert np.max(np.abs(costs - reference_costs(a, b, store))) <= 1e-12
        for i, x in enumerate(a.tokens):
            for j, y in enumerate(b.tokens):
                if x == y:
                    assert costs[i, j] == 0.0

    def test_near_identical_vectors_keep_precision(self):
        # |a|^2 + |b|^2 - 2ab loses ~1e-9 here; summed differences do not
        rng = np.random.default_rng(3)
        base = rng.normal(0.0, 100.0, 50).astype(np.float32)
        near = (base + rng.normal(0.0, 1e-3, 50)).astype(np.float32)
        store = EmbeddingStore([("a", base), ("b", near)], dim=50)
        costs = cost_matrix(build_nbow(["a"]), build_nbow(["b"]), store)
        assert abs(costs[0, 0] - euclidean(store.get("a"), store.get("b"))) <= 1e-12


class TestVocabulary:
    def test_rows_resolution_and_origin(self, fixture_store):
        vocab = Vocabulary(fixture_store, clean_labels(
            ["Parking Meter", "parking  meter!", "zzqx", "car", "", "car"]))
        assert vocab.tokens[0] == UNKNOWN_TOKEN
        assert vocab.row("zzqx") == vocab.row("") == 0
        assert not vocab.vectors[0].any() and vocab.norms[0] == 0.0
        assert vocab.row("Parking Meter") == vocab.row("parking  meter!") != 0
        assert vocab.token("Parking Meter") == "Parking_Meter"
        assert vocab.cleaned("parking  meter!") == "parking meter"
        # only the rows the labels touch, raw float32, with float64 norms
        assert vocab.vectors.shape == (3, fixture_store.dim)
        assert vocab.vectors.dtype == np.float32
        for row in (1, 2):
            raw = fixture_store.get(vocab.tokens[row])
            assert np.array_equal(vocab.vectors[row], raw)
            wide = raw.astype(np.float64)
            assert vocab.norms[row] == math.sqrt(float(np.dot(wide, wide)))
        assert not vocab.vectors.flags.writeable


def ranked_record(rng, n_objects):
    objects = []
    for _ in range(n_objects):
        confidence = rng.choice([None, 0.5, 0.9, round(rng.random(), 2)])
        synonyms = tuple(rng.sample(SPELLINGS, rng.randint(1, 3)))
        objects.append(PredictedObject(synonyms=synonyms, confidence=confidence))
    return PredictionRecord(image_id="1", api_id="a", objects=tuple(objects))


class TestPrefixRule:
    def test_prefix_equals_top_k(self, fixture_store):
        rng = random.Random(7)
        for _ in range(100):
            record = ranked_record(rng, rng.randint(0, 8))
            truth = rng.sample(SPELLINGS, rng.randint(1, 5))
            vocab = Vocabulary(fixture_store, clean_labels(list(truth) + [
                s for o in record.objects for s in o.synonyms]))
            interned_truth = intern_truth(truth, vocab)
            k_max = 10
            ranked = intern_objects(top_k(record, k_max).objects, vocab)
            grid = similarity_matrix(interned_truth, ranked, fixture_store)
            for k in range(1, k_max + 1):
                direct = intern_objects(top_k(record, k).objects, vocab)
                assert ranked.prefix(k) == direct
                at_k = similarity_matrix(interned_truth, direct, fixture_store)
                cut = grid.prefix(k)
                assert np.array_equal(cut.values, at_k.values)
                assert np.array_equal(cut.exact, at_k.exact)
                assert cut.match == at_k.match
                for threshold in (0.4, 0.7, 1.5):
                    assert semantic_intersection(cut, threshold) \
                        == semantic_intersection(at_k, threshold)

    @settings(deadline=None)
    @given(scored_units())
    def test_exact_match_prefix_is_match_of_prefix(self, unit):
        """An object's exact match depends only on the objects before it."""
        store, truth, objects = unit
        vocab = Vocabulary(store, clean_labels(list(truth) + [
            s for o in objects for s in o.synonyms]))
        sides = intern_truth(truth, vocab), intern_objects(objects, vocab)
        match = exact_intersection(*sides)
        for k in range(len(objects) + 3):  # past the last object too
            assert match.prefix(k) == exact_intersection(sides[0], sides[1].prefix(k))

    @settings(deadline=None)
    @given(scored_units())
    def test_every_exact_cell_meets_the_exact_match(self, unit):
        """At every k, each exact cell shares its truth row or its object with
        the grid's exact match, so the semantic matcher need not skip it."""
        store, truth, objects = unit
        grid = similarity_matrix(truth, objects, store)
        for k in range(len(objects) + 2):
            cut = grid.prefix(k)
            matched_truth = set(cut.match.truth_indices)
            matched_objects = set(cut.match.object_indices)
            for ti, oj in zip(*np.nonzero(cut.exact)):
                assert ti in matched_truth or oj in matched_objects

    def test_interned_and_raw_paths_agree(self, fixture_store):
        rng = random.Random(8)
        for _ in range(100):
            record = ranked_record(rng, rng.randint(0, 6))
            # duplicates, labels that clean alike or to nothing, and unknowns
            truth = rng.choices(SPELLINGS, k=rng.randint(1, 6))
            vocab = Vocabulary(fixture_store, clean_labels(list(truth) + [
                s for o in record.objects for s in o.synonyms]))
            sides = intern_truth(truth, vocab), intern_objects(record.objects, vocab)
            match = exact_intersection(*sides)
            assert match == exact_intersection(truth, record.objects)
            if record.objects:
                # WMD over vocabulary rows is WMD over the store's tokens
                tokens = label_bag(truth, fixture_store), label_bag(record.objects,
                                                                    fixture_store)
                assert wmd_pair(sides[0].bag, sides[1].rows, vocab) \
                    == wmd_pair(*tokens, fixture_store)
            for side, raw in zip(sides, (truth, record.objects)):
                assert rendered(side) == rendered(raw)
            raw = similarity_matrix(truth, record.objects, fixture_store)
            interned = similarity_matrix(*sides)  # the sides carry their vocabulary
            assert np.array_equal(raw.values, interned.values)
            space = dedup_normalized(SPELLINGS)
            given_match = ConfusionLedger(space).accumulate(*sides, match)
            own_match = ConfusionLedger(space).accumulate(truth, record.objects)
            assert vars(given_match) == vars(own_match)


@st.composite
def kernel_images(draw):
    """One (api, image) for the kernel: a store, truth labels, a ranked
    record and its ks. Labels repeat, miss the store or clean to nothing;
    the record may have no objects, so every prefix is empty."""
    store, truth, objects = draw(scored_units())
    assume(any(map(clean_label, truth)))  # the run skips truth that cleans away
    confidences = st.sampled_from([None, 0.2, 0.5, 0.5, 0.9])
    record = PredictionRecord(image_id="1", api_id="a", objects=tuple(
        PredictedObject(synonyms=obj.synonyms, confidence=draw(confidences))
        for obj in objects))
    ks = draw(st.lists(st.integers(1, 7), min_size=1, max_size=4, unique=True))
    return store, truth, record, ks


class TestWmdKernel:
    @settings(deadline=None, max_examples=150)
    @given(kernel_images())
    def test_each_k_equals_wmd_pair(self, image):
        store, truth, record, ks = image
        vocab = Vocabulary(store, clean_labels(list(truth) + [
            s for o in record.objects for s in o.synonyms]))
        interned = intern_truth(truth, vocab)
        config = RunConfig(ground_truth_path="", prediction_paths=(),
                           embeddings_path="", top_ks=tuple(ks))
        cells = [harness._Cell(ledger=None) for _ in ks]
        # as run_evaluation keeps it: ranked and trimmed to the largest k
        harness._score_image(interned, build_nbow(interned.bag), top_k(record, max(ks)),
                             ks, cells, config)
        for k, cell in zip(ks, cells):
            side = intern_objects(top_k(record, k).objects, vocab)
            assert cell.objects == object_counts(side)
            if side.rows:
                assert cell.wmd == [wmd_pair(interned.bag, side.rows, vocab)]
            else:
                assert cell.wmd == [None]

    def test_wmd_off_solves_nothing(self, fixture_store, monkeypatch):
        monkeypatch.setattr(harness, "solve_transport", _simplex_must_not_run)
        truth = intern_truth(street_scene.TRUTH_LABELS, Vocabulary(
            fixture_store, clean_labels(street_scene.TRUTH_LABELS + ["city"])))
        record = PredictionRecord(image_id="1", api_id="a", objects=(
            PredictedObject(synonyms=("city",)),))
        config = RunConfig(ground_truth_path="", prediction_paths=(),
                           embeddings_path="", include_wmd=False)
        cells = [harness._Cell(ledger=None) for _ in (1, 3)]
        harness._score_image(truth, None, record, (1, 3), cells, config)
        assert [cell.wmd for cell in cells] == [[None], [None]]

    def test_one_cost_block_per_api_image(self, fixture_files, fixture_model_file,
                                          monkeypatch):
        """cost_matrix runs once per (api, image) with two non-empty sides, and
        dataset_wmd once per (api, k), counting every image of its API."""
        blocks, cells = [], []
        cost_matrix_of, dataset_wmd_of = harness.cost_matrix, harness.dataset_wmd
        monkeypatch.setattr(harness, "cost_matrix", lambda *args: blocks.append(args)
                            or cost_matrix_of(*args))
        monkeypatch.setattr(harness, "dataset_wmd",
                            lambda *args, **kwargs: cells.append(
                                dataset_wmd_of(*args, **kwargs)) or cells[-1])
        ks = (1, 3, 5)
        run_evaluation(RunConfig(
            ground_truth_path=str(fixture_files["truth"]),
            prediction_paths=tuple(str(p) for p in fixture_files["predictions"]),
            embeddings_path=str(fixture_model_file), top_ks=ks))
        apis = sorted(street_scene.PREDICTIONS)
        # one image per API, and every API predicts at least one object
        assert all(street_scene.PREDICTIONS[api] for api in apis)
        assert len(blocks) == len(apis)
        assert len(cells) == len(apis) * len(ks)
        assert all(cell.used + cell.skipped == 1 for cell in cells)


def rendered(bag):
    """The sentence text of a bag, or the class of the error rendering it."""
    try:
        return render_bow_text(bag)
    except EmptyBagError as exc:
        return type(exc)


def test_one_vector_gather_per_run(fixture_files, fixture_model_file, monkeypatch):
    """The run's Vocabulary gathers every vector; each metric family reads it."""
    gathered = []
    vectors = EmbeddingStore.vectors
    monkeypatch.setattr(EmbeddingStore, "vectors",
                        lambda store, tokens: gathered.append(len(tokens))
                        or vectors(store, tokens))
    run_evaluation(RunConfig(
        ground_truth_path=str(fixture_files["truth"]),
        prediction_paths=tuple(str(p) for p in fixture_files["predictions"]),
        embeddings_path=str(fixture_model_file)))
    assert len(gathered) == 1


def test_unit_sides_are_interned_together(fixture_store):
    truth, objects = ["car", "tree"], (PredictedObject(synonyms=("Car!",)),)
    vocab = Vocabulary(fixture_store, clean_labels(["car", "tree", "Car!"]))
    other = Vocabulary(fixture_store, clean_labels(["car", "tree", "Car!"]))
    with pytest.raises(TypeError):
        exact_intersection(intern_truth(truth, vocab), objects)
    with pytest.raises(TypeError):
        similarity_matrix(truth, objects)  # raw sides resolve through a store
    with pytest.raises(ValueError):
        similarity_matrix(intern_truth(truth, vocab), intern_objects(objects, other),
                          fixture_store)


def _simplex_must_not_run(*args, **kwargs):
    raise AssertionError("closed form expected, simplex entered")


class TestClosedForms:
    def test_single_node_side(self, monkeypatch):
        rng = random.Random(11)
        cases = []
        for _ in range(50):
            n = rng.randint(1, 9)
            demand = np.array([rng.random() + 0.01 for _ in range(n)])
            costs = np.array([[rng.uniform(0.0, 3.0) for _ in range(n)]])
            cases.append((demand / demand.sum(), costs))
        # the same optimum with the single node split in two runs the simplex
        expected = [solve_transport([0.5, 0.5], demand, np.vstack([costs, costs]))
                    for demand, costs in cases]
        monkeypatch.setattr(wmd, "_pivot_loop", _simplex_must_not_run)
        for (demand, costs), reference in zip(cases, expected):
            plan = solve_transport([1.0], demand, costs)
            assert plan.objective == pytest.approx(reference.objective, abs=1e-12)
            assert plan.objective == pytest.approx(float(demand @ costs[0]), abs=1e-15)
            column = solve_transport(demand, [1.0], costs.T)
            assert column.objective == pytest.approx(reference.objective, abs=1e-12)

    def test_single_token_bags(self, tiny_store, monkeypatch):
        monkeypatch.setattr(wmd, "_pivot_loop", _simplex_must_not_run)
        bag = ["east", "north", "north", UNKNOWN_TOKEN]
        costs = cost_matrix(build_nbow(["east"]), build_nbow(bag), tiny_store)[0]
        expected = float(build_nbow(bag).weights @ costs)
        assert wmd_pair(["east", "east"], bag, tiny_store) == pytest.approx(expected)
        assert wmd_pair(bag, ["east"], tiny_store) == pytest.approx(expected)
        result = dataset_wmd([wmd_pair(["east"], bag, tiny_store),
                              wmd_pair(bag, ["east"], tiny_store)])
        assert result.value == pytest.approx(expected) and result.used == 2

    def test_identical_bags_cost_exactly_zero(self, tiny_store):
        assert wmd_pair(["east", "north"], ["north", "east"], tiny_store) == 0.0
        assert wmd_pair(["east", "north"], ["east", "north", "east", "north"],
                        tiny_store) == 0.0
        assert wmd_pair([UNKNOWN_TOKEN], [UNKNOWN_TOKEN], tiny_store) == 0.0
        thirds = ["east", "north", "north", "east", "diagonal", "diagonal"]
        assert wmd_pair(thirds, thirds[::-1], tiny_store) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(bag=st.lists(st.integers(0, 9), min_size=1, max_size=30),
           order=st.randoms(use_true_random=False))
    def test_reordered_bags_cost_exactly_zero(self, bag, order):
        """No closed form: the simplex itself lands on exactly 0, for store
        tokens and for vocabulary rows (row 0, the origin, included)."""
        rng = random.Random(7)
        words = [f"w{i}" for i in range(9)]
        store = EmbeddingStore(
            [(word, np.array([rng.gauss(0, 1) for _ in range(5)], dtype=np.float32))
             for word in words], dim=5)
        vocab = Vocabulary(store, clean_labels(words + ["zzqx"]))
        tokens = [UNKNOWN_TOKEN if key == 9 else words[key] for key in bag]
        rows = [vocab.row(label) for label in
                ["zzqx" if key == 9 else words[key] for key in bag]]
        shuffled = list(range(len(bag)))
        order.shuffle(shuffled)
        assert wmd_pair(tokens, [tokens[i] for i in shuffled], store) == 0.0
        assert wmd_pair(rows, [rows[i] for i in shuffled], vocab) == 0.0


def certificate_instance(rng):
    m, n = rng.randint(1, 30), rng.randint(1, 30)
    if rng.random() < 0.3:
        # small integer weights: many ties, degenerate bases
        supply = np.array([rng.randint(1, 3) for _ in range(m)], dtype=float)
        demand = np.array([rng.randint(1, 3) for _ in range(n)], dtype=float)
    else:
        supply = np.array([rng.random() + 0.01 for _ in range(m)])
        demand = np.array([rng.random() + 0.01 for _ in range(n)])
    supply /= supply.sum()
    demand /= demand.sum()
    dim = rng.randint(1, 8)
    left = [[rng.gauss(0, 1) for _ in range(dim)] for _ in range(m)]
    right = [[rng.gauss(0, 1) for _ in range(dim)] for _ in range(n)]
    costs = np.array([[math.dist(x, y) for y in right] for x in left])
    return supply, demand, costs


class TestDualCertificate:
    def test_duals_certify_optimality(self):
        rng = random.Random(2011)
        for index in range(200):
            supply, demand, costs = certificate_instance(rng)
            cap = 0 if index % 20 == 0 else None  # some by Bland's rule alone
            plan = solve_transport(supply, demand, costs, max_pivots=cap)
            assert plan.u.shape == supply.shape and plan.v.shape == demand.shape
            reduced = costs - plan.u[:, None] - plan.v[None, :]
            assert reduced.min() >= -1e-9
            dual_objective = float(supply @ plan.u + demand @ plan.v)
            assert abs(dual_objective - plan.objective) <= 1e-9
            assert np.max(np.abs(plan.flow.sum(axis=1) - supply)) <= 1e-9
            assert np.max(np.abs(plan.flow.sum(axis=0) - demand)) <= 1e-9

    def test_relaxed_bound_never_exceeds_the_optimum(self):
        """RWMD (Kusner et al. 2015) is a lower bound on the transport cost."""
        rng = random.Random(2015)
        for index in range(200):
            supply, demand, costs = certificate_instance(rng)
            if index % 10 == 0:  # single-side instances take the closed form
                supply, costs = np.ones(1), costs[:1]
            elif index % 10 == 5:
                demand, costs = np.ones(1), costs[:, :1]
            relaxed = max(float(supply @ costs.min(axis=1)),
                          float(demand @ costs.min(axis=0)))
            objective = solve_transport(supply, demand, costs).objective
            assert relaxed <= objective + 1e-12
            if len(supply) == 1 or len(demand) == 1:
                # one side's relaxation is the only feasible flow
                assert relaxed == pytest.approx(objective, abs=1e-12)


def test_pool_threads_only_read_shared_state(tmp_path, fixture_model_file):
    """``workers`` 8 under a 1 µs thread switch interval reports exactly what
    ``workers`` 1 does: the setting is accepted and changes nothing."""
    rng = random.Random(5)
    words = street_scene.TRUTH_LABELS + street_scene.PLAIN_PREDICTED_TOKENS + ["zzqx"]
    truth = [GroundTruthRecord(image_id=f"{i}.jpg", labels=tuple(rng.sample(words, 6)))
             for i in range(40)]
    write_ground_truth(truth, tmp_path / "truth.jsonl")
    prediction_paths = []
    for api_id in ("a", "b", "c"):
        records = [ranked_record(rng, rng.randint(0, 8)) for _ in truth]
        records = [PredictionRecord(image_id=t.image_id, api_id=api_id, objects=r.objects)
                   for t, r in zip(truth, records)]
        prediction_paths.append(str(tmp_path / f"{api_id}.jsonl"))
        write_predictions(records, prediction_paths[-1])

    def report(workers):
        return run_evaluation(RunConfig(
            ground_truth_path=str(tmp_path / "truth.jsonl"),
            prediction_paths=tuple(prediction_paths),
            embeddings_path=str(fixture_model_file), workers=workers)).rows

    sequential = report(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = report(8)
    finally:
        sys.setswitchinterval(interval)
    assert pooled == sequential
