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

Only the goal's cone of influence is encoded (``model.cone``: every goal
run has a run of cone steps that reaches the goal as early), and only
from each step's earliest position e (``model.earliest``) on: a cone
step with e > n, and every symbol of a step before its e, is left out,
as is a lifetime check whose generation step is left out. The goal is a
disjunction over the positions from the goal floor L
(``model.goal_floor``) to n only, and is ``false`` when n < L.

Intruder knowledge is not state: the model's minimal root supports
(labels) decide it from the roots received. ``recv(m, j)`` is the
disjunction of the ``done`` literals at j of the steps delivering root m
to the intruder (``false`` where none can have fired). An intruder-sent
step fires at j only if a support of its message's label (which decides
``model.constructible``) is received by j-1; the goal EF(psi) is a
disjunction over positions of "required sessions complete and a support
of a goal secret's label received by j".

Symbol scheme (a stable contract consumed by the decoder), for each
encoded step (sid,i) with earliest position e and each e <= j <= n::

    fire_<j>_<sid>_<i>   Bool   step (sid,i) fires at position j
    done_<j>_<sid>_<i>   Bool   step (sid,i) has fired at or before j
    t_<sid>_<i>          Real   fire time of step (sid,i)
    tau_<j>              Real   time at position j, for 0 <= j <= n

A ``fire``/``done`` symbol that is not declared stands for ``false``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import TiisModel
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


def support_formula(label, recv) -> str:
    """Some support in ``label`` has fully reached the intruder, where
    ``recv(m)`` says that root m has."""
    return _or([_and([recv(m) for m in support]) for support in label])


def encode(problem: BmcProblem) -> SmtScript:
    model = problem.model
    n = problem.bound
    universe = model.universe
    first = {ref: j for ref, j in model.earliest.items() if j <= n}
    steps = [st for st in model.exec_steps if st.ref in first]  # (sid, index) order

    def done(j, st):
        """done_<j>, or false where the step cannot have fired by j."""
        return done_name(j, *st.ref) if first.get(st.ref, n + 1) <= j else "false"

    def received(j):
        """recv(m, j): some deliverer of root m has fired by j."""
        return lambda m: _or([done(j, d) for d in model.deliveries[m]])

    def firing(j):
        return [st for st in steps if first[st.ref] <= j]

    var_index: dict = {tau_name(j): "Real" for j in range(n + 1)}
    for st in steps:
        var_index[t_name(*st.ref)] = "Real"
        for j in range(first[st.ref], n + 1):
            var_index[fire_name(j, *st.ref)] = "Bool"
            var_index[done_name(j, *st.ref)] = "Bool"

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
    for j in range(1, n + 1):
        fires = [fire_name(j, *st.ref) for st in firing(j)]
        if j == 1:
            assert_(_or(fires))
        elif fires:
            prev = [fire_name(j - 1, *st.ref) for st in firing(j - 1)]
            assert_(f"(=> {_or(fires)} {_or(prev)})")
        for x in range(len(fires)):
            for y in range(x + 1, len(fires)):
                assert_(f"(or (not {fires[x]}) (not {fires[y]}))")
        for st in firing(j):
            f = fire_name(j, *st.ref)
            dprev = done(j - 1, st)
            assert_(f"(= {done_name(j, *st.ref)} {_or([dprev, f])})")
            guards = [] if dprev == "false" else [f"(not {dprev})"]
            if st.index > 1:
                guards.insert(0, done_name(j - 1, st.sid, st.index - 1))
            if guards:
                assert_(f"(=> {f} {_and(guards)})")

    # time: non-decreasing position clock, fire-time binding, minimum delays
    lines.append("; time")
    assert_(f"(= {tau_name(0)} 0.0)")
    for j in range(1, n + 1):
        assert_(f"(>= {tau_name(j)} {tau_name(j - 1)})")
        for st in firing(j):
            assert_(f"(=> {fire_name(j, *st.ref)} (= {t_name(*st.ref)} {tau_name(j)}))")
    for st in steps:
        if st.index > 1:
            assert_(
                f"(>= {t_name(*st.ref)} "
                f"(+ {t_name(st.sid, st.index - 1)} {render_value(st.min_delay)}))"
            )
        else:
            assert_(f"(>= {t_name(*st.ref)} {render_value(st.min_delay)})")

    # lifetimes: a fired step that uses a bounded fresh term must fall
    # within the bound after the term's generation step; a generation step
    # that cannot fire within the bound binds nothing
    lines.append("; lifetimes")
    for st in steps:
        for check in st.lifetime_checks:
            if check.gen in first:
                assert_(
                    f"(=> {done(n, st)} "
                    f"(<= {t_name(*st.ref)} "
                    f"(+ {t_name(*check.gen)} {render_value(check.bound)})))"
                )

    # gating: intruder-sent steps require constructibility at the prior position
    lines.append("; gating")
    for st in steps:
        if st.gated:
            label = model.labels[universe.id_of(st.message)]
            for j in range(first[st.ref], n + 1):
                cond = support_formula(label, received(j - 1))
                if cond != "true":
                    assert_(f"(=> {fire_name(j, *st.ref)} {cond})")

    # goal: EF(psi) as a disjunction over the positions from the floor L,
    # psi_j = required sessions complete at j and a goal secret known at j
    lines.append("; goal")
    last = model.steps_per_session()
    goal_label = [sup for tid in model.goal_secret_ids for sup in model.labels[tid]]
    goal_positions = tuple(range(model.goal_floor, n + 1))
    assert_(_or([
        _and([done(j, model.step_at(sid, last)) for sid in sorted(model.require_complete)]
             + [support_formula(goal_label, received(j))])
        for j in goal_positions]))

    lines.append("(check-sat)")
    # witness.decode reads only the fires and the position times
    wanted = tuple(name for name in sorted(var_index) if name.startswith(("fire_", "tau_")))
    return SmtScript("\n".join(lines) + "\n", var_index, goal_positions, n, wanted)
