import random
from fractions import Fraction

import pytest

from tspbmc.dbm import ZERO, solve


def floyd_warshall_feasible(nodes, constraints) -> bool:
    """Reference: a DBM of (bound, strict) entries closed by Floyd-Warshall;
    the system is infeasible iff some diagonal entry is below (0, <=)."""
    inf = None
    d = {(a, b): ((Fraction(0), False) if a == b else inf) for a in nodes for b in nodes}

    def less(x, y):  # (w, strict) bounds: a strict bound is tighter at equal w
        return y is inf or (x is not inf and (x[0] < y[0] or (x[0] == y[0] and x[1] and not y[1])))

    for u, v, w, strict in constraints:
        if less((w, strict), d[u, v]):
            d[u, v] = (w, strict)
    for k in nodes:
        for i in nodes:
            for j in nodes:
                if d[i, k] is not inf and d[k, j] is not inf:
                    via = (d[i, k][0] + d[k, j][0], d[i, k][1] or d[k, j][1])
                    if less(via, d[i, j]):
                        d[i, j] = via
    return not any(less(d[n, n], (Fraction(0), False)) for n in nodes)


def random_system(rng):
    nodes = [ZERO] + list(range(rng.randint(1, 6)))
    constraints = []
    for _ in range(rng.randint(1, 14)):
        u, v = rng.choice(nodes), rng.choice(nodes)
        w = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        constraints.append((u, v, w, rng.random() < 0.35))
    return nodes, constraints


@pytest.mark.parametrize("seed", range(400))
def test_solve_matches_floyd_warshall(seed):
    nodes, constraints = random_system(random.Random(seed))
    feasible, payload = solve(constraints)
    assert feasible == floyd_warshall_feasible(nodes, constraints)
    if feasible:
        assert payload[ZERO] == 0
        for u, v, w, strict in constraints:
            diff = payload[v] - payload[u]
            assert diff < w if strict else diff <= w
    else:
        cycle = [constraints[i] for i in payload]
        assert cycle
        for (_u, v, _w, _s), (u_next, _v, _w2, _s2) in zip(cycle, cycle[1:] + cycle[:1]):
            assert v == u_next
        total = sum(c[2] for c in cycle)
        assert total < 0 or (total == 0 and any(c[3] for c in cycle))


def test_strict_chain_gets_exact_values():
    # x < y < z <= x + 1/1000: epsilon must fit the slack
    constraints = [("y", "x", 0, True), ("z", "y", 0, True),
                   ("x", "z", Fraction(1, 1000), False), (ZERO, "x", 5, False)]
    feasible, values = solve(constraints)
    assert feasible
    assert values["x"] < values["y"] < values["z"] <= values["x"] + Fraction(1, 1000)


def test_extra_fields_are_ignored_and_cycles_index_the_input():
    constraints = [(ZERO, "a", 3, False, "tag0"), ("a", ZERO, -4, False, "tag1"),
                   ("b", "a", 1, False, "tag2")]
    feasible, cycle = solve(constraints)
    assert not feasible and sorted(cycle) == [0, 1]
    assert solve([(ZERO, ZERO, 0, True)]) == (False, [0])
    assert solve([]) == (True, {ZERO: 0})
