import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivln.errors import Disconnected, SizeLimit
from ivln.tourgen import _improve_cycle, _nearest_neighbor_cycle, _with_dummy, held_karp_exact, solve_atsp

from conftest import (
    held_karp_reference, improve_cycle_reference, nearest_neighbor_reference, open_path_cost, relocation_deltas,
)


def brute_force_open_path(cost):
    """Exhaustive search over all permutations; the ground truth."""
    n = len(cost)
    best_order, best_cost = None, math.inf
    for perm in itertools.permutations(range(n)):
        total = open_path_cost(cost, list(perm))
        if total < best_cost - 1e-12:
            best_order, best_cost = list(perm), total
    return best_order, best_cost


def random_instance(seed, n, lo=0.1, hi=10.0):
    rng = random.Random(seed)
    return np.array(
        [[0.0 if i == j else rng.uniform(lo, hi) for j in range(n)] for i in range(n)]
    )


@given(st.integers(0, 10_000), st.integers(2, 7))
@settings(max_examples=60)
def test_held_karp_matches_brute_force(seed, n):
    cost = random_instance(seed, n)
    order, total = held_karp_exact(cost)
    assert sorted(order) == list(range(n))
    _, best = brute_force_open_path(cost)
    assert total == pytest.approx(best, abs=1e-9)
    assert open_path_cost(cost, order) == pytest.approx(total, abs=1e-9)


@st.composite
def cost_matrices(draw):
    """A random asymmetric matrix of 1-11 cities: uniform on 0.1-10,
    rounded to 0.1 on 0-2 so that equal path costs abound, or with about
    a third of its arcs infinite."""
    n = draw(st.integers(1, 11))
    kind = draw(st.sampled_from(["uniform", "rounded", "partly-inf"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cost = rng.uniform(0.1, 10.0, (n, n))
    if kind == "rounded":
        cost = np.round(cost / 5.0, 1)
    elif kind == "partly-inf":
        cost[rng.random((n, n)) < 0.35] = math.inf
    np.fill_diagonal(cost, 0.0)
    return cost


@given(cost_matrices())
@settings(max_examples=150)
def test_held_karp_is_bitwise_the_reference_dynamic_program(cost):
    try:
        want = held_karp_reference(cost)
    except Disconnected:
        with pytest.raises(Disconnected):
            held_karp_exact(cost)
        return
    order, total = held_karp_exact(cost)
    assert (order, total) == want
    assert type(total) is float


def cut_at_dummy(cycle, n):
    at = cycle.index(n)
    return cycle[at + 1 :] + cycle[:at]


@pytest.mark.parametrize("n", range(1, 14))
def test_solve_atsp_is_exact_up_to_12_cities_and_local_search_beyond(n):
    for seed in range(4):
        cost = random_instance(seed, n)
        if seed % 2:
            cost = np.round(cost / 5.0, 1)
        if n <= 12:
            assert solve_atsp(cost) == held_karp_exact(cost)[0]
        else:
            full = _with_dummy(cost)
            assert solve_atsp(cost) == cut_at_dummy(_improve_cycle(full, _nearest_neighbor_cycle(full, n)), n)


@given(st.integers(0, 10_000), st.integers(2, 7))
@settings(max_examples=40)
def test_heuristic_never_beats_optimum_and_is_valid(seed, n):
    cost = random_instance(seed, n)
    order = solve_atsp(cost)
    assert sorted(order) == list(range(n))
    _, best = brute_force_open_path(cost)
    assert open_path_cost(cost, order) >= best - 1e-9


def test_heuristic_finds_optimum_on_small_instances():
    hits = 0
    for seed in range(40):
        cost = random_instance(seed, 6)
        _, best = brute_force_open_path(cost)
        if open_path_cost(cost, solve_atsp(cost)) == pytest.approx(best, abs=1e-9):
            hits += 1
    assert hits >= 38  # near-exhaustive on 6 cities


def closed_cycle_cost(cost, cycle):
    return sum(cost[cycle[i - 1]][cycle[i]] for i in range(len(cycle)))


@given(st.integers(0, 10_000), st.integers(3, 30))
@settings(max_examples=40)
def test_local_search_ends_at_a_relocation_and_exchange_optimum(seed, n):
    # the relocation deltas are the reference: every relocation must be one
    # of the segment exchanges the search scans, so none may still improve
    full = _with_dummy(random_instance(seed, n))
    cycle = _improve_cycle(full, _nearest_neighbor_cycle(full, n))
    assert sorted(cycle) == list(range(n + 1))
    assert min(relocation_deltas(full, cycle)) >= -1e-9
    held = closed_cycle_cost(full, cycle)
    for i, j, k in itertools.combinations(range(n + 1), 3):
        exchanged = cycle[: i + 1] + cycle[j + 1 : k + 1] + cycle[i + 1 : j + 1] + cycle[k + 1 :]
        assert closed_cycle_cost(full, exchanged) - held >= -1e-9, (i, j, k)


@st.composite
def search_instances(draw):
    """A random asymmetric matrix of 13-60 cities, more than the exact
    order takes: uniform on 0.1-10, rounded to 0.1 on 0-2 so that equal
    costs and equal deltas occur, or with about 5% of its arcs infinite."""
    n = draw(st.integers(13, 60))
    kind = draw(st.sampled_from(["uniform", "rounded", "partly-inf"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cost = rng.uniform(0.1, 10.0, (n, n))
    if kind == "rounded":
        cost = np.round(cost / 5.0, 1)
    elif kind == "partly-inf":
        cost[rng.random((n, n)) < 0.05] = math.inf
    np.fill_diagonal(cost, 0.0)
    return cost


def assert_search_is_the_scalar_scan(cost):
    n = len(cost)
    full = _with_dummy(cost)
    start = _nearest_neighbor_cycle(full, n)
    assert start == nearest_neighbor_reference(full.tolist(), n)
    assert _improve_cycle(full, start) == improve_cycle_reference(full, start)


@given(search_instances())
@settings(max_examples=30)
def test_local_search_is_bitwise_the_scalar_scan(cost):
    assert_search_is_the_scalar_scan(cost)


def test_local_search_is_the_scalar_scan_at_101_cities():
    # 100 paths and the dummy, the longest tour of the paper's IR2R
    assert_search_is_the_scalar_scan(np.round(random_instance(5, 100) / 5.0, 1))


def test_solver_is_deterministic():
    cost = random_instance(99, 9)
    first = solve_atsp(cost)
    for _ in range(3):
        assert solve_atsp(cost) == first


@given(st.integers(0, 3_000), st.integers(3, 6), st.floats(0.5, 5.0))
@settings(max_examples=30)
def test_constant_shift_preserves_optimal_order(seed, n, shift):
    # every open path has n-1 legs, so adding a constant to all legs
    # moves every path cost by the same amount
    cost = random_instance(seed, n)
    shifted = cost + shift
    np.fill_diagonal(shifted, 0.0)
    _, base_best = brute_force_open_path(cost)
    _, shifted_best = brute_force_open_path(shifted)
    assert shifted_best == pytest.approx(base_best + (n - 1) * shift, abs=1e-9)


def test_asymmetry_matters():
    # going 0->1 is free, 1->0 is ruinous; the solver must pick the cheap
    # direction
    cost = np.array([[0.0, 0.1, 5.0], [9.0, 0.0, 0.1], [9.0, 9.0, 0.0]])
    order = solve_atsp(cost)
    assert order == [0, 1, 2]


def test_degenerate_sizes():
    assert solve_atsp(np.zeros((0, 0))) == []
    assert solve_atsp(np.zeros((1, 1))) == [0]
    assert held_karp_exact(np.zeros((1, 1))) == ([0], 0.0)
    two = np.array([[0.0, 3.0], [1.0, 0.0]])
    assert open_path_cost(two, held_karp_exact(two)[0]) == pytest.approx(1.0)


@pytest.mark.parametrize("solve, n", [
    # 13 cities take the local search, whose result is refused
    pytest.param(solve_atsp, 2, id="solve_atsp-2"),
    pytest.param(solve_atsp, 13, id="solve_atsp-13"),
    pytest.param(held_karp_exact, 2, id="exact"),
])
def test_all_orderings_infinite_raise_disconnected(solve, n):
    cost = np.full((n, n), math.inf)
    np.fill_diagonal(cost, 0.0)
    with pytest.raises(Disconnected):
        solve(cost)


def test_a_chain_of_finite_legs_is_the_order_of_both_solvers():
    # only 0 -> 1 -> 2 is finite, so most end cities have no finite path
    cost = np.array([[0.0, 1.0, math.inf], [math.inf, 0.0, 1.0], [math.inf, math.inf, 0.0]])
    best_order, best = brute_force_open_path(cost)
    assert (best_order, best) == ([0, 1, 2], 2.0)
    assert held_karp_exact(cost) == (best_order, best)
    assert solve_atsp(cost) == best_order


def test_exact_solver_size_limit():
    for n in (13, 16):
        with pytest.raises(SizeLimit):
            held_karp_exact(np.zeros((n, n)))


def test_open_path_cost():
    cost = np.array([[0.0, 2.0, 9.0], [9.0, 0.0, 4.0], [9.0, 9.0, 0.0]])
    assert open_path_cost(cost, [0, 1, 2]) == pytest.approx(6.0)
    assert open_path_cost(cost, [2]) == 0.0
