import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from labeleval import wmd
from labeleval.embeddings import UNKNOWN_TOKEN, EmbeddingStore
from labeleval.errors import (
    EmptyBagError,
    EmptyDatasetError,
    InfeasibleMarginalsError,
    NumericalFailureError,
    UnresolvedTokenError,
)
from labeleval.wmd import (
    build_nbow,
    cost_matrix,
    dataset_wmd,
    solve_transport,
    wmd_pair,
)
from oracle_transport import optimal_objective


def random_instance(rng, max_side=4, dim=5):
    m = rng.randint(1, max_side)
    n = rng.randint(1, max_side)
    supply = np.array([rng.random() + 0.05 for _ in range(m)])
    supply /= supply.sum()
    demand = np.array([rng.random() + 0.05 for _ in range(n)])
    demand /= demand.sum()
    points_a = [[rng.gauss(0, 1) for _ in range(dim)] for _ in range(m)]
    points_b = [[rng.gauss(0, 1) for _ in range(dim)] for _ in range(n)]
    costs = np.array([[math.dist(a, b) for b in points_b] for a in points_a])
    return supply, demand, costs


def random_word_store(rng, size=20, dim=6):
    entries = []
    for i in range(size):
        vector = np.array([rng.gauss(0, 1) for _ in range(dim)], dtype=np.float32)
        entries.append((f"w{i}", vector))
    return EmbeddingStore(entries, dim=dim)


def random_feasible_plan(rng, supply, demand):
    """Northwest-corner fill on shuffled row/column orders."""
    rows = list(range(len(supply)))
    cols = list(range(len(demand)))
    rng.shuffle(rows)
    rng.shuffle(cols)
    remaining_s = list(supply)
    remaining_d = list(demand)
    plan = np.zeros((len(supply), len(demand)))
    ri = ci = 0
    while ri < len(rows) and ci < len(cols):
        i, j = rows[ri], cols[ci]
        moved = min(remaining_s[i], remaining_d[j])
        plan[i, j] += moved
        remaining_s[i] -= moved
        remaining_d[j] -= moved
        if remaining_s[i] <= 1e-15 and ri < len(rows):
            ri += 1
        elif remaining_d[j] <= 1e-15:
            ci += 1
    return plan


class TestNBow:
    def test_counts_and_order(self):
        nbow = build_nbow(["a", "a", "b"])
        assert nbow.tokens == ("a", "b")
        assert np.allclose(nbow.weights, [2 / 3, 1 / 3])

    def test_single_token(self):
        assert build_nbow(["x"]).weights.tolist() == [1.0]

    def test_empty_bag(self):
        with pytest.raises(EmptyBagError):
            build_nbow([])

    def test_weights_sum_to_one(self):
        rng = random.Random(3)
        for _ in range(100):
            bag = [f"t{rng.randint(0, 5)}" for _ in range(rng.randint(1, 30))]
            nbow = build_nbow(bag)
            assert abs(float(nbow.weights.sum()) - 1.0) <= 1e-12
            assert np.all(nbow.weights > 0)


class TestCostMatrix:
    def test_shared_token_costs_nothing(self, tiny_store):
        costs = cost_matrix(build_nbow(["east"]), build_nbow(["east", "north"]),
                            tiny_store)
        assert costs[0, 0] == 0.0

    def test_unknown_to_unit_word(self, tiny_store):
        costs = cost_matrix(build_nbow([UNKNOWN_TOKEN]), build_nbow(["east"]),
                            tiny_store)
        assert costs[0, 0] == pytest.approx(1.0, abs=1e-7)

    def test_345_distance(self, tiny_store):
        # east=(1,0), diagonal=(3,4): sqrt(4 + 16)
        costs = cost_matrix(build_nbow(["east"]), build_nbow(["diagonal"]),
                            tiny_store)
        assert costs[0, 0] == pytest.approx(math.sqrt(20.0), abs=1e-6)

    def test_unknown_pairs_travel_free(self, tiny_store):
        costs = cost_matrix(build_nbow([UNKNOWN_TOKEN]),
                            build_nbow([UNKNOWN_TOKEN]), tiny_store)
        assert costs[0, 0] == 0.0

    def test_unresolved_token_raises(self, tiny_store):
        with pytest.raises(UnresolvedTokenError):
            cost_matrix(build_nbow(["nope"]), build_nbow(["east"]), tiny_store)


class TestSolveTransport:
    def test_single_cell(self):
        plan = solve_transport([1.0], [1.0], [[2.5]])
        assert plan.objective == pytest.approx(2.5)
        assert plan.flow[0, 0] == pytest.approx(1.0)

    def test_zero_cost_diagonal(self):
        plan = solve_transport([0.5, 0.5], [0.5, 0.5], [[0, 1], [1, 0]])
        assert plan.objective == pytest.approx(0.0, abs=1e-12)

    def test_unbalanced_marginals_rejected(self):
        with pytest.raises(InfeasibleMarginalsError):
            solve_transport([1.0], [0.5], [[1.0]])

    def test_against_enumeration_oracle(self):
        rng = random.Random(17)
        for _ in range(60):
            supply, demand, costs = random_instance(rng)
            plan = solve_transport(supply, demand, costs)
            expected = optimal_objective(supply, demand, costs)
            assert plan.objective == pytest.approx(expected, abs=1e-9)

    def test_marginals_satisfied(self):
        rng = random.Random(18)
        for _ in range(40):
            supply, demand, costs = random_instance(rng)
            plan = solve_transport(supply, demand, costs)
            assert np.max(np.abs(plan.flow.sum(axis=1) - supply)) <= 1e-9
            assert np.max(np.abs(plan.flow.sum(axis=0) - demand)) <= 1e-9
            assert plan.flow.min() >= 0.0
            recomputed = float((plan.flow * np.asarray(costs)).sum())
            assert plan.objective == pytest.approx(recomputed, abs=1e-9)

    def test_deterministic(self):
        rng = random.Random(19)
        supply, demand, costs = random_instance(rng)
        first = solve_transport(supply, demand, costs)
        second = solve_transport(supply, demand, costs)
        assert first.objective == second.objective
        assert np.array_equal(first.flow, second.flow)

    def test_degenerate_equal_marginals(self):
        # every prefix sum collides, forcing zero-flow basic cells
        supply = [0.25, 0.25, 0.25, 0.25]
        demand = [0.25, 0.25, 0.25, 0.25]
        costs = [[1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 1, 2], [4, 3, 2, 1]]
        plan = solve_transport(supply, demand, costs)
        expected = optimal_objective(supply, demand, costs)
        assert plan.objective == pytest.approx(expected, abs=1e-9)
        assert plan.objective == pytest.approx(1.0, abs=1e-9)

    def test_anti_cycling_fallback_agrees_with_oracle(self):
        # a pivot cap of 0 hands the whole solve to Bland's rule
        rng = random.Random(21)
        for _ in range(20):
            supply, demand, costs = random_instance(rng)
            plan = solve_transport(supply, demand, costs, max_pivots=0)
            expected = optimal_objective(supply, demand, costs)
            assert plan.objective == pytest.approx(expected, abs=1e-9)
            assert np.max(np.abs(plan.flow.sum(axis=1) - supply)) <= 1e-9
            assert np.max(np.abs(plan.flow.sum(axis=0) - demand)) <= 1e-9


class TestPivotLoop:
    @pytest.mark.parametrize("cap", [0, 1, 3])
    def test_bland_rule_takes_over_exactly_at_the_cap(self, monkeypatch, cap):
        supply, demand, costs = random_instance(random.Random(5), max_side=10)
        firsts = []
        entering = wmd._entering

        def recording(tree, first=False):
            firsts.append(first)
            return entering(tree, first)

        monkeypatch.setattr(wmd, "_entering", recording)
        plan = solve_transport(supply, demand, costs, max_pivots=cap)
        assert len(firsts) > cap + 1  # Bland's rule pivots at least once
        assert firsts == [False] * cap + [True] * (len(firsts) - cap)
        assert plan.objective == pytest.approx(
            solve_transport(supply, demand, costs).objective, abs=1e-12)

    def test_running_out_of_pivots_raises(self):
        supply, demand, costs = random_instance(random.Random(5), max_side=10)
        flow, basis = wmd._least_cost_start(supply.tolist(), demand.tolist(), costs)
        tree = wmd._BasisTree(basis, costs.tolist())
        assert wmd._entering(tree) is not None  # the start is not optimal
        with pytest.raises(NumericalFailureError, match="failed to converge"):
            wmd._pivot_loop(flow, tree, 0, 0)


@st.composite
def degenerate_instances(draw, max_side=5, max_cells=25):
    """Up to 5x5 by default, with tied and zero costs and repeated weights.

    The enumeration oracle checks m^(n-1) n^(m-1) bases (4,096 at 4x4,
    390,625 at 5x5), so oracle tests pass a smaller ``max_cells``.
    """
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, min(max_side, max_cells // m)))
    supply = np.array(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)), float)
    demand = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), float)
    costs = np.array([draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                    min_size=n, max_size=n)) for _ in range(m)])
    return supply / supply.sum(), demand / demand.sum(), costs


def assert_certified(plan, supply, demand, costs, tol):
    reduced = costs - plan.u[:, None] - plan.v[None, :]
    assert reduced.min() >= -tol
    assert abs(float(supply @ plan.u + demand @ plan.v) - plan.objective) <= tol
    assert np.max(np.abs(plan.flow.sum(axis=1) - supply)) <= 1e-9
    assert np.max(np.abs(plan.flow.sum(axis=0) - demand)) <= 1e-9
    assert plan.flow.min() >= 0.0


class TestDegenerateInstances:
    @settings(max_examples=60, deadline=None)
    @given(instance=degenerate_instances(max_cells=16))
    def test_objective_matches_oracle(self, instance):
        supply, demand, costs = instance
        plan = solve_transport(supply, demand, costs)
        assert plan.objective == pytest.approx(
            optimal_objective(supply, demand, costs), abs=1e-12)
        assert_certified(plan, supply, demand, costs, 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(instance=degenerate_instances(max_cells=16))
    def test_fallback_matches_oracle(self, instance):
        supply, demand, costs = instance
        plan = solve_transport(supply, demand, costs, max_pivots=0)
        assert plan.objective == pytest.approx(
            optimal_objective(supply, demand, costs), abs=1e-12)
        assert_certified(plan, supply, demand, costs, 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(instance=degenerate_instances())
    def test_start_is_a_feasible_spanning_tree(self, instance):
        supply, demand, costs = instance
        m, n = costs.shape
        flow, basis = wmd._least_cost_start(supply.tolist(), demand.tolist(), costs)
        assert len(basis) == len(set(basis)) == m + n - 1
        component = list(range(m + n))

        def find(node):
            while component[node] != node:
                node = component[node]
            return node

        for i, j in basis:  # m + n - 1 cells joining m + n nodes with no cycle
            a, b = find(i), find(m + j)
            assert a != b
            component[a] = b
        flow = np.array(flow)
        assert flow.min() >= 0.0
        assert all(flow[i, j] == 0.0 for i in range(m) for j in range(n)
                   if (i, j) not in basis)
        assert np.max(np.abs(flow.sum(axis=1) - supply)) <= 1e-9
        assert np.max(np.abs(flow.sum(axis=0) - demand)) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(instance=degenerate_instances(max_side=8, max_cells=64),
           cap=st.sampled_from([0, 1, 3]))
    def test_capped_solves_certified_up_to_eight_by_eight(self, instance, cap):
        """Past the cap, Bland's rule reaches the uncapped optimum."""
        supply, demand, costs = instance
        plan = solve_transport(supply, demand, costs, max_pivots=cap)
        assert_certified(plan, supply, demand, costs, 1e-12)
        assert abs(plan.objective
                   - solve_transport(supply, demand, costs).objective) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(instance=degenerate_instances())
    def test_certified_up_to_five_by_five(self, instance):
        supply, demand, costs = instance
        assert_certified(solve_transport(supply, demand, costs), supply, demand,
                         costs, 1e-12)


#: Every entry check's outcome class: a plain weight, zeros of both signs,
#: a negative, NaN and both infinities.
ENTRY_VALUES = (0.0, -0.0, 0.25, 1.0, -0.5, math.nan, math.inf, -math.inf)


#: The messages of the errors the entry checks raise.
ENTRY_MESSAGES = ("costs must be shaped (len(supply), len(demand))",
                  "costs must be finite and non-negative",
                  "negative weights are not transportable")


def elementwise_entry_error(supply, demand, costs):
    """The entry checks as elementwise predicates: the error they raise, or None.

    This is how ``solve_transport`` checked its input before each check
    became one reduction; the reductions must reject exactly these inputs.
    """
    s = np.asarray(supply, dtype=np.float64)
    d = np.asarray(demand, dtype=np.float64)
    c = np.asarray(costs, dtype=np.float64)
    if s.ndim != 1 or d.ndim != 1 or c.shape != (len(s), len(d)):
        return ValueError(ENTRY_MESSAGES[0])
    if not (np.all(np.isfinite(c)) and np.all(c >= 0)):
        return ValueError(ENTRY_MESSAGES[1])
    if np.any(s < 0) or np.any(d < 0):
        return InfeasibleMarginalsError(ENTRY_MESSAGES[2])
    return None


@st.composite
def entry_inputs(draw):
    """Small inputs of any shape, empty ones included, over ENTRY_VALUES."""
    values = st.sampled_from(ENTRY_VALUES)
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    supply = draw(st.lists(values, min_size=m, max_size=m))
    demand = draw(st.lists(values, min_size=n, max_size=n))
    rows = draw(st.sampled_from([m, m, m + 1]))
    cols = draw(st.sampled_from([n, n, n + 1]))
    costs = np.array(draw(st.lists(values, min_size=rows * cols,
                                   max_size=rows * cols))).reshape(rows, cols)
    if draw(st.integers(0, 9)) == 0:
        costs = costs.ravel()
    if draw(st.integers(0, 9)) == 0:
        supply = [supply]
    return supply, demand, costs


def entry_error(supply, demand, costs):
    """The error ``solve_transport`` raises at its entry checks, or None.

    An input the checks pass may still fail later, at the balance test:
    totals that differ, or a NaN or infinite total. Only the entry's own
    errors are returned.
    """
    try:
        solve_transport(supply, demand, costs)
    except Exception as exc:  # noqa: BLE001 - sorted by message below
        if type(exc) in (ValueError, InfeasibleMarginalsError) \
                and str(exc) in ENTRY_MESSAGES:
            return exc
    return None


class TestSolverEntry:
    @settings(max_examples=400, deadline=None)
    @given(entry_inputs())
    def test_rejects_what_the_elementwise_checks_rejected(self, inputs):
        expected = elementwise_entry_error(*inputs)
        got = entry_error(*inputs)
        assert type(got) is type(expected)
        assert str(got) == str(expected)

    @pytest.mark.parametrize("supply,demand,costs,error", [
        ([1.0], [1.0], [[math.nan]], ValueError),
        ([1.0], [1.0], [[math.inf]], ValueError),
        ([1.0], [1.0], [[-math.inf]], ValueError),
        ([0.5, 0.5], [1.0], [[1.0], [-1e-300]], ValueError),
        ([1.0, 0.0], [1.0], [[math.nan], [-1.0]], ValueError),
        ([1.0], [1.0], [[-0.0]], None),
        ([1.5, -0.5], [1.0], [[1.0], [1.0]], InfeasibleMarginalsError),
        ([math.nan, -0.5], [1.0], [[1.0], [1.0]], InfeasibleMarginalsError),
        ([-0.0, 1.0], [1.0], [[1.0], [1.0]], None),
        ([], [], np.zeros((0, 0)), None),
        ([], [0.0], np.zeros((0, 1)), None),
        ([0.0], [], np.zeros((1, 0)), None),
        ([1.0], [1.0], [1.0], ValueError),
        ([[1.0]], [1.0], [[1.0]], ValueError),
        (1.0, [1.0], [[1.0]], ValueError),
        ([1.0], [1.0], np.zeros((0, 0)), ValueError),
    ])
    def test_hand_made_inputs(self, supply, demand, costs, error):
        expected = elementwise_entry_error(supply, demand, costs)
        got = entry_error(supply, demand, costs)
        assert type(expected) is type(got) is (type(None) if error is None else error)
        assert str(got) == str(expected)

    def test_empty_instance_costs_nothing(self):
        plan = solve_transport([], [], np.zeros((0, 0)))
        assert plan.objective == 0.0 and plan.flow.shape == (0, 0)

    @pytest.mark.parametrize("m,n", [(0, 0), (0, 2), (0, 3), (2, 0), (3, 0)])
    def test_empty_side_gives_the_zero_plan(self, m, n):
        plan = solve_transport([0.0] * m, [0.0] * n, np.zeros((m, n)))
        assert plan.objective == 0.0 and plan.flow.shape == (m, n)
        assert plan.u.tolist() == [0.0] * m and plan.v.tolist() == [0.0] * n

    @pytest.mark.parametrize("supply,demand,costs", [
        ([math.nan], [1.0], [[1.0]]),
        ([math.inf], [math.inf], [[1.0]]),
        ([math.inf, 1.0], [1.0, math.inf], np.ones((2, 2))),
    ])
    def test_non_finite_totals_are_infeasible(self, supply, demand, costs):
        with pytest.raises(InfeasibleMarginalsError, match="^supply sums to "):
            solve_transport(supply, demand, costs)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        degenerate_instances(),
        st.integers(0, 2**32).map(lambda seed: random_instance(random.Random(seed), 6))))
    def test_objective_is_the_summed_flow_cost(self, instance):
        supply, demand, costs = instance
        plan = solve_transport(supply, demand, costs)
        assert plan.objective == max(0.0, float(np.sum(plan.flow * costs)))
        # leading columns of a wider block, as the per-image kernel passes them
        wide = np.hstack([costs, np.ones((len(supply), 2))])
        view = solve_transport(supply, demand, wide[:, :len(demand)])
        assert view.objective == plan.objective
        assert np.array_equal(view.flow, plan.flow)


class TestWmdPair:
    def test_identical_bags(self):
        rng = random.Random(41)
        store = random_word_store(rng)
        bag = ["w0", "w1", "w1", "w5"]
        assert wmd_pair(bag, bag, store) <= 1e-9

    def test_single_token_bags(self, tiny_store):
        value = wmd_pair(["east"], ["north"], tiny_store)
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-7)

    def test_three_token_cross_check(self):
        rng = random.Random(42)
        store = random_word_store(rng, size=3)
        truth_bag = ["w0", "w0", "w1"]
        predicted_bag = ["w1", "w2"]
        a = build_nbow(truth_bag)
        b = build_nbow(predicted_bag)
        costs = cost_matrix(a, b, store)
        expected = optimal_objective(a.weights, b.weights, costs)
        assert wmd_pair(truth_bag, predicted_bag, store) \
            == pytest.approx(expected, abs=1e-9)

    def test_symmetry_and_upper_bound(self):
        rng = random.Random(43)
        store = random_word_store(rng)
        vocabulary = [f"w{i}" for i in range(20)]
        for _ in range(30):
            left = [rng.choice(vocabulary) for _ in range(rng.randint(1, 6))]
            right = [rng.choice(vocabulary) for _ in range(rng.randint(1, 6))]
            forward = wmd_pair(left, right, store)
            backward = wmd_pair(right, left, store)
            assert abs(forward - backward) <= 1e-9
            a, b = build_nbow(left), build_nbow(right)
            costs = cost_matrix(a, b, store)
            for _ in range(20):
                plan = random_feasible_plan(rng, a.weights, b.weights)
                assert forward <= float((plan * costs).sum()) + 1e-9


class TestDatasetWmd:
    def test_single_pair(self, tiny_store):
        result = dataset_wmd([wmd_pair(["east"], ["north"], tiny_store)])
        assert result.value == pytest.approx(math.sqrt(2.0), abs=1e-7)
        assert result.used == 1

    def test_mean_and_skip(self, tiny_store):
        distances = [wmd_pair(["east"], ["east"], tiny_store), None, None,
                     wmd_pair(["east"], ["diagonal"], tiny_store)]
        result = dataset_wmd(distances)
        assert result.skipped == 2
        assert result.used == 2
        expected_mean = (0.0 + math.sqrt(20.0)) / 2
        assert result.value == pytest.approx(expected_mean, abs=1e-6)

    def test_given_distances_are_averaged_not_solved(self, monkeypatch):
        monkeypatch.setattr(wmd, "solve_transport", None)
        result = dataset_wmd(iter([0.5, None, None, 1.5]))
        assert (result.value, result.used, result.skipped) == (1.0, 2, 2)

    def test_all_skipped(self):
        with pytest.raises(EmptyDatasetError):
            dataset_wmd([None, None])
