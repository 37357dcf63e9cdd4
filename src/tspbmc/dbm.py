"""Difference-bound feasibility, the one timing core of the package.

A constraint ``(u, v, w)`` means ``x_v - x_u <= w`` over rational
variables named by any hashable nodes; ``ZERO`` is the reference node,
fixed at 0. A system is infeasible exactly when its constraint graph (an
edge u -> v of weight w per constraint) has a negative cycle (Bengtsson &
Yi, "Timed Automata: Semantics, Algorithms and Tools", LNCS 3098, 2004).
``smtlite``'s theory check, the oracle's timing and the timing rules
``witness.trace_of`` checks all use these constraints. The search runs
over integers: every weight is scaled by the lcm of the weights'
denominators, which keeps each comparison and each sum exact, and only
the returned values are rationals again. Imports only the standard
library, as the solver child loads it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

ZERO = object()  # reference node: its value is 0


def solve(constraints):
    """Decide a conjunction of difference constraints.

    Items may carry fields after the three of the constraint (a timing
    rule's kind); they are ignored here. Returns ``(True, values)`` with exact
    rational values (node -> Fraction, ``ZERO`` -> 0) that meet every
    constraint, or ``(False, cycle)`` with the indices, in path order, of
    constraints that form a cycle whose weights sum to < 0.

    One Bellman-Ford from a virtual source with an edge of weight 0 to
    every node, over the weights times ``scale``, the lcm of their
    denominators (weights are ints or Fractions).
    """
    scale = lcm(*{c[2].denominator for c in constraints})
    edges = [(u, v, w.numerator * (scale // w.denominator)) for u, v, w, *_ in constraints]
    dist = dict.fromkeys([ZERO] + [x for c in edges for x in c[:2]], 0)
    pred = {}
    for _ in range(len(dist) + 1):
        changed = None
        for i, (u, v, w) in enumerate(edges):
            cand = dist[u] + w
            if cand < dist[v]:
                dist[v] = cand
                pred[v] = i
                changed = v
        if changed is None:
            break
    else:
        # a node relaxed in the last round reaches a cycle of the
        # predecessor graph, and every such cycle is negative
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

    d0 = dist[ZERO]
    return True, {x: Fraction(d - d0, scale) for x, d in dist.items()}
