"""Difference-bound feasibility, the one timing core of the package.

A constraint ``(u, v, w, strict)`` means ``x_v - x_u <= w`` (``< w`` when
``strict``) over rational variables named by any hashable nodes; ``ZERO``
is the reference node, fixed at 0. A system is infeasible exactly when
its constraint graph (an edge u -> v of weight w per constraint) has a
negative cycle, counting a strict edge as weight w - epsilon (Bengtsson &
Yi, "Timed Automata: Semantics, Algorithms and Tools", LNCS 3098, 2004).
``smtlite``'s theory check, the oracle's timing and ``replay``'s timing
rules all use these constraints. Imports only the standard library, as
the solver child loads it.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = object()  # reference node: its value is 0


def solve(constraints):
    """Decide a conjunction of difference constraints.

    Items may carry fields after the four of the constraint (a tag, a
    literal); they are ignored here. Returns ``(True, values)`` with exact
    rational values (node -> Fraction, ``ZERO`` -> 0) that meet every
    constraint, strict ones included, or ``(False, cycle)`` with the
    indices, in path order, of constraints that form a cycle whose weights
    sum to < 0, or to 0 with a strict edge.

    One Bellman-Ford from a virtual source over lexicographic weights
    ``(w, -strict)``: a distance ``(r, k)`` stands for r + k*epsilon
    (Cotton & Maler, SAT 2006), and epsilon is then fixed in one pass over
    the edges.
    """
    edges = [(c[0], c[1], c[2], -1 if c[3] else 0) for c in constraints]
    dist = {ZERO: (Fraction(0), 0)}
    for u, v, _w, _s in edges:
        dist.setdefault(u, (Fraction(0), 0))
        dist.setdefault(v, (Fraction(0), 0))
    pred = {}
    for _ in range(len(dist) + 1):
        changed = None
        for i, (u, v, w, s) in enumerate(edges):
            r, k = dist[u]
            cand = (r + w, k + s)
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

    # (r_v, k_v) <= (r_u + w, k_u + s) on every edge; an edge whose
    # epsilon parts grow along it needs epsilon below its slack in r
    eps = Fraction(1)
    for u, v, w, s in edges:
        (ru, ku), (rv, kv) = dist[u], dist[v]
        if kv > ku:
            eps = min(eps, (ru + w - rv) / (2 * (kv - ku)))
    r0, k0 = dist[ZERO]
    return True, {x: r - r0 + (k - k0) * eps for x, (r, k) in dist.items()}
