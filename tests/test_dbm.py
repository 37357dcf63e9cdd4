import random
from fractions import Fraction

import pytest

from tspbmc.dbm import ZERO, solve


def floyd_warshall_feasible(nodes, constraints) -> bool:
    """Reference: a DBM of bounds closed by Floyd-Warshall; the system is
    infeasible iff some diagonal entry is below 0."""
    inf = None
    d = {(a, b): (Fraction(0) if a == b else inf) for a in nodes for b in nodes}

    def less(x, y):
        return y is inf or (x is not inf and x < y)

    for u, v, w in constraints:
        if less(w, d[u, v]):
            d[u, v] = w
    for k in nodes:
        for i in nodes:
            for j in nodes:
                if d[i, k] is not inf and d[k, j] is not inf:
                    via = d[i, k] + d[k, j]
                    if less(via, d[i, j]):
                        d[i, j] = via
    return not any(less(d[n, n], Fraction(0)) for n in nodes)


def random_system(rng):
    nodes = [ZERO] + list(range(rng.randint(1, 6)))
    constraints = []
    for _ in range(rng.randint(1, 14)):
        u, v = rng.choice(nodes), rng.choice(nodes)
        w = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        constraints.append((u, v, w))
    return nodes, constraints


@pytest.mark.parametrize("seed", range(400))
def test_solve_matches_floyd_warshall(seed):
    nodes, constraints = random_system(random.Random(seed))
    feasible, payload = solve(constraints)
    assert feasible == floyd_warshall_feasible(nodes, constraints)
    if feasible:
        assert payload[ZERO] == 0
        for u, v, w in constraints:
            assert payload[v] - payload[u] <= w
    else:
        cycle = [constraints[i] for i in payload]
        assert cycle
        for (_u, v, _w), (u_next, _v, _w2) in zip(cycle, cycle[1:] + cycle[:1]):
            assert v == u_next
        assert sum(c[2] for c in cycle) < 0


def test_extra_fields_are_ignored_and_cycles_index_the_input():
    constraints = [(ZERO, "a", 3, "tag0"), ("a", ZERO, -4, "tag1"), ("b", "a", 1, "tag2")]
    feasible, cycle = solve(constraints)
    assert not feasible and sorted(cycle) == [0, 1]
    assert solve([(ZERO, ZERO, -1)]) == (False, [0])
    assert solve([]) == (True, {ZERO: 0})


def fraction_bellman_ford(constraints):
    """Reference: the same Bellman-Ford as ``solve``, relaxing in the same
    order, over Fractions."""
    edges = [c[:3] for c in constraints]
    dist = dict.fromkeys([ZERO] + [x for c in edges for x in c[:2]], Fraction(0))
    pred = {}
    for _ in range(len(dist) + 1):
        changed = None
        for i, (u, v, w) in enumerate(edges):
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                pred[v] = i
                changed = v
        if changed is None:
            break
    else:
        seen = set()
        while changed not in seen:
            seen.add(changed)
            changed = edges[pred[changed]][0]
        cycle, node = [], changed
        while True:
            cycle.append(pred[node])
            node = edges[pred[node]][0]
            if node == changed:
                return False, cycle[::-1]
    return True, {x: d - dist[ZERO] for x, d in dist.items()}


WEIGHTS = {
    "small-denominators": lambda rng: Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
    "coprime-large": lambda rng: Fraction(rng.randint(-3000, 3000), rng.choice((991, 997))),
    "integers": lambda rng: rng.randint(-8, 8),
    "mixed": lambda rng: rng.choice((Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                                     Fraction(rng.randint(-3000, 3000), 991),
                                     rng.randint(-5, 5))),
}


@pytest.mark.parametrize("kind", sorted(WEIGHTS))
@pytest.mark.parametrize("seed", range(50))
def test_integer_relaxation_is_the_fraction_one(kind, seed):
    # the same feasibility, the same cycle in path order, the same values
    rng = random.Random(seed)
    nodes = [ZERO] + list(range(rng.randint(1, 7)))
    constraints = [(rng.choice(nodes), rng.choice(nodes), WEIGHTS[kind](rng))
                   for _ in range(rng.randint(1, 16))]
    got = solve(constraints)
    assert got == fraction_bellman_ford(constraints)
    if got[0]:
        assert all(type(v) is Fraction for v in got[1].values())
