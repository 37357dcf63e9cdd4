"""Bounded-reachability encoding to SMT-LIB2 (QF_LRA).

The bound-n script asks whether the goal holds within at most n global
transitions. At most one transition fires per position j in 1..n: one
fires at position 1, and a position after an idle one is idle too, so a
run of m < n transitions leaves positions m+1..n idle. Idle positions
change no state, so the first position where the goal holds always
fires a step, and a bound-n model is a witness for every bound >= its
first goal position: the bounds are monotone. Boolean state tracks
which session steps have fired (``done``). Real variables carry per-step
fire times bound to a non-decreasing position clock, with minimum-delay
and lifetime difference constraints.

Intruder knowledge is not state: the model's minimal root supports
(labels) decide it from the roots received. ``recv(m, j)`` is the
disjunction of the ``done`` literals at j of the steps delivering root m
to the intruder (``false`` at j = 0). An intruder-sent step fires at j
only if a support of its message's label (which decides
``model.constructible``) is received by j-1; the goal EF(psi) is a
disjunction over positions of "required sessions complete and a support
of a goal secret's label received by j".

Symbol scheme (a stable contract consumed by the decoder)::

    fire_<j>_<sid>_<i>   Bool   step (sid,i) fires at position j
    done_<j>_<sid>_<i>   Bool   step (sid,i) has fired at or before j
    t_<sid>_<i>          Real   fire time of step (sid,i)
    tau_<j>              Real   time at position j
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .frontend import INTRUDER
from .model import TiisModel, receivers
from .sexpr import render_value


@dataclass(frozen=True)
class BmcProblem:
    model: TiisModel
    bound: int  # number of global transitions, >= 1

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError("bound must be >= 1")


@dataclass(frozen=True)
class SmtScript:
    text: str
    var_index: dict  # symbol name -> sort ("Bool" | "Real")
    goal_positions: tuple
    bound: int
    # symbols a sat model is asked for; None asks for every declared one
    model_symbols: Optional[tuple] = None


def fire_name(j: int, sid: int, i: int) -> str:
    return f"fire_{j}_{sid}_{i}"


def done_name(j: int, sid: int, i: int) -> str:
    return f"done_{j}_{sid}_{i}"


def t_name(sid: int, i: int) -> str:
    return f"t_{sid}_{i}"


def tau_name(j: int) -> str:
    return f"tau_{j}"


def _and(parts):
    parts = [p for p in dict.fromkeys(parts) if p != "true"]
    if "false" in parts:
        return "false"
    if not parts:
        return "true"
    if len(parts) == 1:
        return parts[0]
    return "(and " + " ".join(parts) + ")"


def _or(parts):
    parts = [p for p in dict.fromkeys(parts) if p != "false"]
    if "true" in parts:
        return "true"
    if not parts:
        return "false"
    if len(parts) == 1:
        return parts[0]
    return "(or " + " ".join(parts) + ")"


def intruder_deliveries(model: TiisModel) -> dict:
    """Root id -> the exec steps that deliver it to the intruder."""
    out = {}
    for st in sorted(model.exec_steps, key=lambda s: (s.sid, s.index)):
        if INTRUDER in receivers(st, model.eavesdrop):
            out.setdefault(model.universe.id_of(st.message), []).append(st)
    return out


def support_formula(label, deliveries: dict, j: int) -> str:
    """Some support in ``label`` has fully reached the intruder by j."""
    def recv(m):
        if j == 0:
            return "false"
        return _or([done_name(j, st.sid, st.index) for st in deliveries[m]])
    return _or([_and([recv(m) for m in support]) for support in label])


def goal_formula(model: TiisModel, j: int, deliveries: dict) -> str:
    """psi_j: required sessions complete at j and a secret known at j."""
    last = model.steps_per_session()
    parts = [done_name(j, sid, last) for sid in sorted(model.require_complete)]
    label = [s for tid in model.goal_secret_ids for s in model.labels[tid]]
    parts.append(support_formula(label, deliveries, j))
    return _and(parts)


def encode(problem: BmcProblem) -> SmtScript:
    model = problem.model
    n = problem.bound
    universe = model.universe
    steps = sorted(model.exec_steps, key=lambda s: (s.sid, s.index))

    var_index: dict = {}
    for j in range(n + 1):
        var_index[tau_name(j)] = "Real"
        for st in steps:
            var_index[done_name(j, st.sid, st.index)] = "Bool"
            if j >= 1:
                var_index[fire_name(j, st.sid, st.index)] = "Bool"
    for st in steps:
        var_index[t_name(st.sid, st.index)] = "Real"

    lines = ["(set-logic QF_LRA)"]
    lines.append("; declarations")
    for name in sorted(var_index):
        lines.append(f"(declare-const {name} {var_index[name]})")

    def assert_(f: str):
        lines.append(f"(assert {f})")

    # interleaving: at most one step fires per position, exactly one at
    # position 1, and a position idles only after an idle one, so a run
    # of m < n transitions ends in an idle suffix; session-local order
    lines.append("; interleaving")
    for st in steps:
        assert_(f"(not {done_name(0, st.sid, st.index)})")
    for j in range(1, n + 1):
        fires = [fire_name(j, st.sid, st.index) for st in steps]
        if j == 1:
            assert_(_or(fires))
        else:
            prev = [fire_name(j - 1, st.sid, st.index) for st in steps]
            assert_(f"(=> {_or(fires)} {_or(prev)})")
        for x in range(len(fires)):
            for y in range(x + 1, len(fires)):
                assert_(f"(or (not {fires[x]}) (not {fires[y]}))")
        for st in steps:
            f = fire_name(j, st.sid, st.index)
            d = done_name(j, st.sid, st.index)
            dprev = done_name(j - 1, st.sid, st.index)
            assert_(f"(= {d} (or {dprev} {f}))")
            guards = [f"(not {dprev})"]
            if st.index > 1:
                guards.insert(0, done_name(j - 1, st.sid, st.index - 1))
            assert_(f"(=> {f} {_and(guards)})")

    # time: non-decreasing position clock, fire-time binding, minimum delays
    lines.append("; time")
    assert_(f"(= {tau_name(0)} 0.0)")
    for j in range(1, n + 1):
        assert_(f"(>= {tau_name(j)} {tau_name(j - 1)})")
        for st in steps:
            assert_(
                f"(=> {fire_name(j, st.sid, st.index)} "
                f"(= {t_name(st.sid, st.index)} {tau_name(j)}))"
            )
    for st in steps:
        if st.index > 1:
            assert_(
                f"(>= {t_name(st.sid, st.index)} "
                f"(+ {t_name(st.sid, st.index - 1)} {render_value(st.min_delay)}))"
            )
        else:
            assert_(f"(>= {t_name(st.sid, st.index)} {render_value(st.min_delay)})")

    # lifetimes: a fired step that uses a bounded fresh term must fall
    # within the bound after the term's generation step
    lines.append("; lifetimes")
    for st in steps:
        for check in st.lifetime_checks:
            gen = model.generation[check.term]
            assert_(
                f"(=> {done_name(n, st.sid, st.index)} "
                f"(<= {t_name(st.sid, st.index)} "
                f"(+ {t_name(gen.sid, gen.index)} {render_value(check.bound)})))"
            )

    # gating: intruder-sent steps require constructibility at the prior position
    lines.append("; gating")
    deliveries = intruder_deliveries(model)
    for st in steps:
        if not st.gated:
            continue
        label = model.labels[universe.id_of(st.message)]
        for j in range(1, n + 1):
            cond = support_formula(label, deliveries, j - 1)
            assert_(f"(=> {fire_name(j, st.sid, st.index)} {cond})")

    # goal: EF(psi) as a disjunction over positions
    lines.append("; goal")
    goal_positions = tuple(range(1, n + 1))
    assert_(_or([goal_formula(model, j, deliveries) for j in goal_positions]))

    lines.append("(check-sat)")
    # witness.decode reads only the fires and the position times
    wanted = tuple(name for name in sorted(var_index) if name.startswith(("fire_", "tau_")))
    return SmtScript("\n".join(lines) + "\n", var_index, goal_positions, n, wanted)
