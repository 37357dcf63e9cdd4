"""The one checked execution, replay and reporting.

``trace_of`` decides whether fired (step, time) pairs are a run. It steps
a ``model.Run`` and raises ``ReplayViolation`` at the first firing past
the bound, out of session order, failing its intruder gate or breaking a
``model.step_constraints`` delay or lifetime, or when no position reaches
the goal; else it returns the Trace up to the first goal position, the
least bound the firings witness, with each position's per-agent
knowledge deltas: the runs after and before its step, compared.
``encoder.decode`` feeds it a sat model's fired steps sorted by time and
order, the oracle its BFS path, and ``replay`` a trace's own steps and
times, after checking its positions and step labels; ``replay`` then
compares the deltas, secret, completed sessions and length. No solving
and no part of the SMT encoding is involved.
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .dbm import ZERO
from .errors import ModelError
from .frontend import INTRUDER
from .model import Run, TiisModel, constructible, step_constraints
from .terms import Term, parse_term, render_term


@dataclass(frozen=True)
class TraceEvent:
    position: int  # j >= 1
    sid: int
    index: int
    sender: str
    receiver: str
    message: Term
    time: Fraction
    # agent -> tuple of terms newly derivable at this position
    deltas: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Trace:
    protocol: str
    scenario: str
    sessions: int
    bound: int
    events: tuple  # TraceEvent, positions strictly increasing
    secret: Term  # the goal secret the intruder learned
    completed_sessions: tuple  # sorted sids required and completed


class ReplayViolation(ModelError):
    """Where a firing sequence or a trace first fails to be a run. ``kind``
    is position | step label | session order | gating | delay | lifetime |
    knowledge delta | goal."""

    def __init__(self, kind: str, position: int, detail: str):
        super().__init__(f"position {position}: {kind}: {detail}")
        self.kind, self.position, self.detail = kind, position, detail


def _clock(node) -> str:
    return "0" if node is ZERO else f"t{node[0]}.{node[1]}"


def trace_of(model: TiisModel, fired, bound: int) -> Trace:
    """The Trace of ``fired``, (ExecStep, time) pairs in firing order, up
    to the first position where the goal holds; ``fired`` is read no
    further. Raises ReplayViolation at the first pair that is not a step
    of the run so far, or if no position reaches the goal."""
    universe = model.universe
    run = Run.start(model)
    events = []
    times = {ZERO: Fraction(0)}  # (sid, index) node -> fire time
    for j, (st, time) in enumerate(fired, start=1):
        if j > bound:
            raise ReplayViolation("position", j, f"past bound {bound}")
        if run.pc[st.sid - 1] != st.index:
            raise ReplayViolation("session order", j, f"session {st.sid} expects step "
                                  f"{run.pc[st.sid - 1]}, got {st.index}")
        if st.gated and not constructible(run.known[INTRUDER], st.message, universe):
            raise ReplayViolation("gating", j, "intruder cannot construct "
                                  f"{render_term(st.message)}")
        times[st.ref] = time
        for u, v, w, kind in step_constraints(run, st):
            if times[v] - times[u] > w:
                raise ReplayViolation(kind, j, f"{_clock(v)} - {_clock(u)} = "
                                      f"{times[v] - times[u]}, must be <= {w}")
        before, run = run, run.then(st)
        deltas = {a: tuple(universe.term_of(t) for t in sorted(run.known[a] - before.known[a]))
                  for a in sorted(run.known) if run.known[a] is not before.known[a]}
        events.append(TraceEvent(j, st.sid, st.index, st.sender, st.receiver,
                                 st.message, time, deltas))
        secret = run.goal()
        if secret is not None:
            return Trace(model.protocol, model.scenario, model.sessions, bound,
                         tuple(events), universe.term_of(secret),
                         tuple(sorted(model.require_complete)))
    raise ReplayViolation("goal", len(events), "the run satisfies the goal at no position")


def replay(trace: Trace, model: TiisModel) -> Optional[ReplayViolation]:
    """Check ``trace`` against ``model``; returns None if it is the trace
    ``trace_of`` builds from its events' steps and times, else the first
    violation."""
    fired = []
    for j, ev in enumerate(trace.events, start=1):
        if ev.position != j:
            return ReplayViolation("position", ev.position,
                                   f"event {j} has position {ev.position}")
        try:
            st = model.step_at(ev.sid, ev.index)
        except KeyError:
            return ReplayViolation("session order", j, f"unknown step ({ev.sid},{ev.index})")
        if (ev.sender, ev.receiver, ev.message) != (st.sender, st.receiver, st.message):
            return ReplayViolation(
                "step label", j, f"step ({ev.sid},{ev.index}) is {st.sender} -> "
                f"{st.receiver} : {render_term(st.message)}")
        fired.append((st, ev.time))
    try:
        rebuilt = trace_of(model, fired, trace.bound)
    except ReplayViolation as violation:
        return violation
    for ev, new in zip(trace.events, rebuilt.events):
        for a in sorted(ev.deltas.keys() | new.deltas.keys()):
            declared, actual = set(ev.deltas.get(a, ())), set(new.deltas.get(a, ()))
            if declared != actual:
                return ReplayViolation(
                    "knowledge delta", ev.position, f"agent {a} delta mismatch on "
                    f"{sorted(render_term(t) for t in declared ^ actual)}")
    goal = (len(rebuilt.events), rebuilt.secret, set(rebuilt.completed_sessions))
    if (len(trace.events), trace.secret, set(trace.completed_sessions)) != goal:
        return ReplayViolation("goal", goal[0], f"the goal first holds here: I learns "
                               f"{render_term(goal[1])}, sessions {sorted(goal[2])} complete")
    return None


# ---- reports ---------------------------------------------------------------


def render_text(trace: Trace) -> str:
    lines = [
        f"protocol {trace.protocol}, scenario {trace.scenario}, "
        f"sessions {trace.sessions}, bound {trace.bound}",
    ]
    for ev in trace.events:
        lines.append(
            f"[{ev.position}] t={ev.time} ({ev.sid}.{ev.index}) "
            f"{ev.sender} -> {ev.receiver} : {render_term(ev.message)}")
        for a in sorted(ev.deltas):
            for t in ev.deltas[a]:
                lines.append(f"    +K({a}): {render_term(t)}")
    lines.append(
        f"goal: I knows {render_term(trace.secret)}; sessions "
        f"{list(trace.completed_sessions)} complete")
    return "\n".join(lines) + "\n"


def trace_to_dict(trace: Trace) -> dict:
    return {
        "protocol": trace.protocol,
        "scenario": trace.scenario,
        "sessions": trace.sessions,
        "bound": trace.bound,
        "events": [
            {
                "position": ev.position,
                "sid": ev.sid,
                "step": ev.index,
                "sender": ev.sender,
                "receiver": ev.receiver,
                "message": render_term(ev.message),
                "time": str(ev.time),
                "deltas": {
                    a: [render_term(t) for t in ev.deltas[a]]
                    for a in sorted(ev.deltas)
                },
            }
            for ev in trace.events
        ],
        "goal": {
            "secret": render_term(trace.secret),
            "known_by_intruder": True,
            "completed_sessions": list(trace.completed_sessions),
        },
    }


def render_json(trace: Trace) -> str:
    return json.dumps(trace_to_dict(trace), indent=2) + "\n"


def parse_json(text: str) -> Trace:
    """Inverse of render_json; parse_json(render_json(t)) == t."""
    data = json.loads(text)
    events = tuple(
        TraceEvent(
            position=e["position"],
            sid=e["sid"],
            index=e["step"],
            sender=e["sender"],
            receiver=e["receiver"],
            message=parse_term(e["message"]),
            time=Fraction(e["time"]),
            deltas={a: tuple(parse_term(t) for t in ts)
                    for a, ts in e["deltas"].items()},
        )
        for e in data["events"]
    )
    return Trace(
        protocol=data["protocol"],
        scenario=data["scenario"],
        sessions=data["sessions"],
        bound=data["bound"],
        events=events,
        secret=parse_term(data["goal"]["secret"]),
        completed_sessions=tuple(data["goal"]["completed_sessions"]),
    )


_HTML_STYLE = """
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; }
th, td { border: 1px solid #999; padding: 0.4em 0.8em; vertical-align: top; }
th { background: #eee; }
td.term, td.delta { font-family: monospace; }
tr.goal td { background: #fde8e8; }
""".strip()


def render_html(trace: Trace) -> str:
    """Self-contained static report: one table row per event, one
    knowledge-delta column per agent."""
    agents = sorted({a for ev in trace.events for a in ev.deltas} | {INTRUDER})
    head = "".join(f"<th>+K({html.escape(a)})</th>" for a in agents)
    rows = []
    for i, ev in enumerate(trace.events):
        cells = [
            f"<td>{ev.position}</td>",
            f"<td>{html.escape(str(ev.time))}</td>",
            f"<td>({ev.sid}.{ev.index}) {html.escape(ev.sender)} &rarr; "
            f"{html.escape(ev.receiver)}</td>",
            f"<td class=\"term\">{html.escape(render_term(ev.message))}</td>",
        ]
        for a in agents:
            items = "<br>".join(html.escape(render_term(t))
                                for t in ev.deltas.get(a, ()))
            cells.append(f"<td class=\"delta\">{items}</td>")
        cls = " class=\"goal\"" if i == len(trace.events) - 1 else ""
        rows.append(f"<tr{cls}>" + "".join(cells) + "</tr>")
    title = (f"{trace.protocol} / {trace.scenario} — attack witness "
             f"(k={trace.sessions}, bound {trace.bound})")
    goal = (f"Intruder learns <code>{html.escape(render_term(trace.secret))}</code>; "
            f"completed sessions: {list(trace.completed_sessions)}")
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_HTML_STYLE}</style></head>\n<body>\n"
        f"<h1>{html.escape(title)}</h1>\n<p>{goal}</p>\n"
        "<table>\n<tr><th>#</th><th>time</th><th>step</th><th>message</th>"
        f"{head}</tr>\n" + "\n".join(rows) + "\n</table>\n</body></html>\n"
    )
