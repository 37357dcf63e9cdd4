"""Bounded-reachability encoding to SMT-LIB2 (QF_LRA).

``encode(model, n)`` writes the bound-n script (n >= 1), which asks
whether some run of at most n transitions reaches the goal. A run is
encoded by the steps it fires and their causal order, not by the position
of each step (partial-order BMC, Heljanko, CONCUR 2001): every encoded
step s has a fire flag ``f_s``, a fire time ``t_s`` and an order value
``o_s``, and sorting the fired steps by (t, o, sid, index) gives the run
(``decode``).

Below the goal floor (n < ``model.goal_floor``, where no goal holds
within n transitions) the script is the floor script: ``(set-logic
QF_LRA)``, a comment naming n and the floor, ``(assert false)`` and
``(check-sat)``, with no symbol and no encoded step. Otherwise only the
goal's cone of influence is encoded (``model.cone``: every goal run has
a run of cone steps that reaches the goal as early). The assertions are:

- session order, unconditional: ``f_(sid,i) => f_(sid,i-1)``,
  ``t_(sid,i) >= t_(sid,i-1) + delay`` (the first step of a session
  ``t >= delay``) and ``o_(sid,i) >= o_(sid,i-1) + 1``. Unfired steps
  form session suffixes, and every constraint they take part in
  unconditionally is a lower bound on them, so late values meet it;
- lifetimes: ``f_s => t_s <= t_gen + b`` for each lifetime check of s
  whose generation step is encoded;
- gating: an intruder-sent step fires only if, for some support of its
  gate (``model.gates[s]``), every root has a listed deliverer d that
  precedes it: ``f_d``, ``o_d + 1 <= o_s`` and ``t_d <= t_s``;
- the goal: the required sessions' last steps fire, and every root of
  some support of the goal's gate (``model.gates[None]``) has a fired
  deliverer;
- the bound: for n below the encoded step count, at most n of the
  ``f_s`` hold, as a sequential counter (Sinz, CP 2005); at or above it
  the count is no limit and the section is empty.

Every precedence edge has ``o_a < o_b`` and ``t_a <= t_b``, so the sort
puts causes first and times never decrease; a lifetime whose generation
step sorts after the use holds there, as lifetimes are positive.
Conversely a run gives o = position. The fired count is at least the
goal position, so the bounds are monotone and the least sat bound is the
least attack bound. Every theory atom is a non-strict difference in
positive polarity.

Symbol scheme (a stable contract: ``encode`` writes it and ``decode``
reads it back, and no other module names it), for each encoded step
(sid,i), and for each counter cell 1 <= i < m, 1 <= j <= min(i, n) over
the m encoded steps in (sid, index) order::

    f_<sid>_<i>   Bool   step (sid,i) fires
    t_<sid>_<i>   Real   fire time of step (sid,i)
    o_<sid>_<i>   Real   order of step (sid,i) among the fired steps
    c_<i>_<j>     Bool   at least j of the first i encoded steps fire
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ModelError
from .model import TiisModel
from .sexpr import render_value
from .witness import Trace, trace_of


@dataclass(frozen=True)
class SmtScript:
    text: str
    var_index: dict  # symbol name -> sort ("Bool" | "Real")
    steps: tuple  # refs of the encoded steps, in (sid, index) order
    bound: int

    @property
    def model_symbols(self) -> tuple:
        """The f, t and o names of ``steps``: what a sat model is asked for."""
        return tuple(sorted(n(*ref) for ref in self.steps for n in (f_name, t_name, o_name)))


def f_name(sid: int, i: int) -> str:
    return f"f_{sid}_{i}"


def t_name(sid: int, i: int) -> str:
    return f"t_{sid}_{i}"


def o_name(sid: int, i: int) -> str:
    return f"o_{sid}_{i}"


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


def support_formula(gate, fires) -> str:
    """Some support of ``gate`` (a ``model.gates`` entry) has fully reached
    the intruder: each of its roots by one of its deliverers d, where
    ``fires(d)`` says that d has delivered it."""
    return _or([_and([_or([fires(d) for d in ds]) for ds in sup]) for sup in gate])


def encode(model: TiisModel, n: int) -> SmtScript:
    if n < 1:
        raise ValueError("bound must be >= 1")
    if n < model.goal_floor:
        return SmtScript(f"(set-logic QF_LRA)\n; bound {n} is below the goal floor "
                         f"{model.goal_floor}\n(assert false)\n(check-sat)\n", {}, (), n)
    steps = [st for st in model.exec_steps if st.ref in model.cone]  # (sid, index) order
    m = len(steps)

    def count(i, j):
        """c_<i>_<j>: at least j of the first i steps fire."""
        return "true" if j == 0 else "false" if j > i else f"c_{i}_{j}"

    def precedes(d, st):
        """d fires before st: it fires, comes first in order and no later."""
        return _and([f_name(*d.ref), f"(>= {o_name(*st.ref)} (+ {o_name(*d.ref)} 1.0))",
                     f"(>= {t_name(*st.ref)} {t_name(*d.ref)})"])

    var_index: dict = {}
    for st in steps:
        var_index.update({f_name(*st.ref): "Bool", t_name(*st.ref): "Real",
                          o_name(*st.ref): "Real"})
    if n < m:
        var_index.update({count(i, j): "Bool" for i in range(1, m)
                          for j in range(1, min(i, n) + 1)})

    lines = ["(set-logic QF_LRA)"]
    lines.append("; declarations")
    for name in sorted(var_index):
        lines.append(f"(declare-const {name} {var_index[name]})")

    def assert_(f: str):
        lines.append(f"(assert {f})")

    lines.append("; session order")
    for st in steps:
        t, delay = t_name(*st.ref), render_value(st.min_delay)
        if st.index > 1:
            prev = (st.sid, st.index - 1)
            assert_(f"(=> {f_name(*st.ref)} {f_name(*prev)})")
            assert_(f"(>= {t} (+ {t_name(*prev)} {delay}))")
            assert_(f"(>= {o_name(*st.ref)} (+ {o_name(*prev)} 1.0))")
        else:
            assert_(f"(>= {t} {delay})")

    lines.append("; lifetimes")
    for st in steps:
        for check in st.lifetime_checks:
            if check.gen in model.cone:
                assert_(f"(=> {f_name(*st.ref)} (<= {t_name(*st.ref)} "
                        f"(+ {t_name(*check.gen)} {render_value(check.bound)})))")

    lines.append("; gating")
    for st in steps:
        if st.gated:
            cond = support_formula(model.gates[st.ref], lambda d: precedes(d, st))
            if cond != "true":
                assert_(f"(=> {f_name(*st.ref)} {cond})")

    lines.append("; goal")
    last = model.steps_per_session()
    assert_(_and([f_name(sid, last) for sid in sorted(model.require_complete)]
                 + [support_formula(model.gates[None], lambda d: f_name(*d.ref))]))

    lines.append("; bound")
    if n < m:
        for i, st in enumerate(steps, start=1):
            f = f_name(*st.ref)
            if i < m:
                for j in range(1, min(i, n) + 1):
                    if count(i - 1, j) != "false":
                        assert_(f"(=> {count(i - 1, j)} {count(i, j)})")
                    assert_(f"(=> {_and([f, count(i - 1, j - 1)])} {count(i, j)})")
            if count(i - 1, n) != "false":
                assert_(f"(=> {f} (not {count(i - 1, n)}))")

    lines.append("(check-sat)")
    return SmtScript("\n".join(lines) + "\n", var_index,
                     tuple(st.ref for st in steps), n)


def decode(result, script: SmtScript, model: TiisModel) -> Trace:
    """Decode ``result``, a sat ``solver.RawResult`` for ``script``, into a
    goal-truncated Trace: the fired steps sorted by (time, order, sid,
    index). Raises ModelError if they are not a run."""
    if result.status != "sat":
        raise ModelError(f"cannot decode a {result.status} result")

    def value(name):
        """The model value of ``name``, of its declared sort."""
        v, sort = result.values.get(name), script.var_index[name]
        if not isinstance(v, bool if sort == "Bool" else Fraction):
            raise ModelError(f"missing or non-{sort} model value for {name}")
        return v

    fired = sorted((value(t_name(*ref)), value(o_name(*ref)), ref)
                   for ref in script.steps if value(f_name(*ref)))
    return trace_of(model, [(model.step_at(*ref), t) for t, _, ref in fired], script.bound)
