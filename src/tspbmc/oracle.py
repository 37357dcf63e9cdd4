"""Explicit-state bounded reachability over the concrete TIIS semantics.

Independent ground truth for the SMT verdicts at desk scale, loading no
module of the SMT path: a breadth-first search over step interleavings
(so the first hit is at minimal depth). Each frontier node is a
``model.Run`` (session pcs, closed knowledge, last fired step): gating is
checked against its intruder knowledge, and ``Run.goal`` is the goal
test. The witness is built by ``witness.trace_of`` from the node's path,
as ``encoder.decode`` builds one from a sat model.

Timing is decided per explored prefix by ``dbm.solve`` over the fired
steps' times: each frontier node carries its prefix's constraints and
extends them by ``model.step_constraints`` of its run (minimum delays,
time non-decreasing along the interleaving, lifetime bounds). These are the
concrete rules ``trace_of`` checks, written apart from the encoder's
symbolic ones. An infeasible prefix can never become feasible by
extension (extensions only add constraints), so pruning is sound and BFS
depth minimality is preserved. When no goal secret is in the closure of
every message the intruder can receive, no interleaving is explored at
all. No fact only the SMT path reads (labels, gates, cone, floor) is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .dbm import solve
from .frontend import INTRUDER
from .model import Run, TiisModel, closure, constructible, intruder_deliveries, step_constraints
from .witness import Trace, trace_of


@dataclass(frozen=True)
class OracleResult:
    outcome: str  # attack-found | no-attack-up-to
    depth: int
    trace: Optional[Trace] = None


def explicit_reach(model: TiisModel, goal=None, depth: int = 1) -> OracleResult:
    """BFS over interleavings up to ``depth`` transitions.

    ``goal`` is ignored (the model carries the goal); ``perfbench/verify.py``
    still passes it. Returns the minimal-depth attack trace or exhaustion.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    last = model.steps_per_session()
    # the intruder learns only the messages delivered to it: a goal secret
    # outside the closure of all of them is unknown in every interleaving
    reachable = closure(model.initial_knowledge[INTRUDER] | set(intruder_deliveries(
        model.exec_steps, model.universe, model.eavesdrop)), model.rules)
    if not any(t in reachable for t in model.goal_secret_ids):
        return OracleResult("no-attack-up-to", depth)

    frontier = [(Run.start(model), (), ())]
    for d in range(1, depth + 1):
        nxt = []
        for run, seq, cons in frontier:
            for sid, i in enumerate(run.pc, start=1):
                if i > last:
                    continue
                st = model.step_at(sid, i)
                if st.gated and not constructible(run.known[INTRUDER], st.message,
                                                  model.universe):
                    continue
                new_cons = cons + tuple(step_constraints(run, st))
                feasible, times = solve(new_cons)
                if not feasible:
                    continue
                new_run = run.then(st)
                new_seq = seq + (st,)
                if new_run.goal() is not None:
                    fired = ((s, times[s.ref]) for s in new_seq)
                    return OracleResult("attack-found", d, trace_of(model, fired, d))
                nxt.append((new_run, new_seq, new_cons))
        frontier = nxt
        if not frontier:
            break
    return OracleResult("no-attack-up-to", depth)
