"""Explicit-state bounded reachability over the concrete TIIS semantics.

Independent ground truth for the SMT verdicts at desk scale: a
breadth-first search over step interleavings (so the first hit is at
minimal depth), with gating checked against the intruder's concretely
closed knowledge and timing checked exactly.

Timing is decided per explored prefix by ``dbm.solve`` over the fired
steps' times: each frontier node carries its prefix's constraints and
extends them by ``model.step_constraints`` (minimum delays, time
non-decreasing along the interleaving, lifetime bounds). These are the
concrete rules ``replay`` checks, written apart from the encoder's
symbolic ones. An infeasible prefix can never become feasible by
extension (extensions only add constraints), so pruning is sound and BFS
depth minimality is preserved. When no goal secret is in the closure of
every message the intruder can receive, no interleaving is explored at
all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .dbm import solve
from .frontend import INTRUDER
from .model import (
    TiisModel,
    closed_initial_knowledge,
    closure,
    constructible,
    deliver,
    step_constraints,
)
from .witness import Trace, TraceEvent


@dataclass(frozen=True)
class OracleResult:
    outcome: str  # attack-found | no-attack-up-to
    depth: int
    trace: Optional[Trace] = None


def explicit_reach(model: TiisModel, goal=None, depth: int = 1) -> OracleResult:
    """BFS over interleavings up to ``depth`` transitions.

    ``goal`` is accepted for interface symmetry; the model carries the
    goal already. Returns the minimal-depth attack trace or exhaustion.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    last = model.steps_per_session()
    init_intruder = frozenset(closure(model.initial_knowledge[INTRUDER], model.rules))
    # the intruder learns only the messages delivered to it: a goal secret
    # outside the closure of all of them is unknown in every interleaving
    roots = {model.universe.id_of(st.message) for st in model.exec_steps
             if st.receiver == INTRUDER or model.eavesdrop}
    reachable = closure(init_intruder | roots, model.rules)
    if not any(t in reachable for t in model.goal_secret_ids):
        return OracleResult("no-attack-up-to", depth)
    start_pc = tuple(1 for _ in range(model.sessions))

    frontier = [(start_pc, init_intruder, (), ())]
    for d in range(1, depth + 1):
        nxt = []
        for pc, iknow, seq, cons in frontier:
            for sid in range(1, model.sessions + 1):
                i = pc[sid - 1]
                if i > last:
                    continue
                st = model.step_at(sid, i)
                if st.gated and not constructible(iknow, st.message,
                                                  model.universe, model.rules):
                    continue
                new_seq = seq + (st,)
                new_cons = cons + tuple(step_constraints(model, new_seq))
                feasible, times = solve(new_cons)
                if not feasible:
                    continue
                new_pc = pc[:sid - 1] + (i + 1,) + pc[sid:]
                new_iknow = iknow
                if st.receiver == INTRUDER or model.eavesdrop:
                    new_iknow = frozenset(closure(
                        iknow | {model.universe.id_of(st.message)}, model.rules))
                done = all(new_pc[s - 1] == last + 1 for s in model.require_complete)
                secret = next((t for t in model.goal_secret_ids if t in new_iknow), None)
                if done and secret is not None:
                    return OracleResult(
                        "attack-found", d,
                        _make_trace(model, new_seq, times, secret, d))
                nxt.append((new_pc, new_iknow, new_seq, new_cons))
        frontier = nxt
        if not frontier:
            break
    return OracleResult("no-attack-up-to", depth)


def _make_trace(model: TiisModel, sequence, times, secret_id, depth) -> Trace:
    """Witness-schema trace for a successful oracle run, with knowledge
    deltas recomputed by unbounded closure (as replay expects)."""
    knowledge = closed_initial_knowledge(model)
    events = []
    for pos, st in enumerate(sequence, start=1):
        deltas = {a: tuple(model.universe.term_of(t) for t in gained)
                  for a, gained in deliver(model, knowledge, st).items()}
        events.append(TraceEvent(pos, st.sid, st.index, st.sender, st.receiver,
                                 st.message, times[st.ref], deltas))
    return Trace(model.protocol, model.scenario, model.sessions, depth,
                 tuple(events), model.universe.term_of(secret_id),
                 tuple(sorted(model.require_complete)))
