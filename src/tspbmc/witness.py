"""Witness decoding, replay validation and reporting.

``trace_of`` turns fired (step, time) pairs into a Trace by stepping a
``model.Run``: one event per position with its fire time and per-agent
knowledge deltas, up to the first position where ``Run.goal`` holds.
Every witness is made by it: ``decode`` feeds it each position's one
``fire`` and its ``tau`` from a sat model, read lazily, and the oracle
feeds it its BFS path. Idle positions change no state, so they can only
follow the goal position and are never read, and the trace's last event
is the model's first goal position: the least bound the model witnesses.
``replay`` then re-executes a trace on a ``Run`` — positions 1, 2, …
within the bound, each event's sender, receiver and message, session
order, gating, knowledge deltas and the goal, with the timing rules of
``model.step_constraints`` checked on the trace's own times and no
solving — as an independent soundness check of the encoding.
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .dbm import ZERO
from .encoder import SmtScript, fire_name, tau_name
from .errors import ModelError
from .frontend import INTRUDER
from .model import Run, TiisModel, constructible, step_constraints
from .terms import Term, parse_term, render_term

if TYPE_CHECKING:
    from .solver import RawResult


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


@dataclass(frozen=True)
class ReplayViolation:
    # position | step label | session order | gating | delay | lifetime |
    # knowledge delta | goal
    kind: str
    position: int
    detail: str


def _bool(values: dict, name: str) -> bool:
    v = values.get(name)
    if not isinstance(v, bool):
        raise ModelError(f"missing or non-Bool model value for {name}")
    return v


def trace_of(model: TiisModel, fired, bound: int) -> Trace:
    """The Trace of ``fired``, (ExecStep, time) pairs in firing order, up
    to the first position where the goal holds; ``fired`` is read no
    further. Knowledge deltas come from stepping a ``Run``."""
    universe = model.universe
    run = Run.start(model)
    events = []
    for j, (st, time) in enumerate(fired, start=1):
        run, gained = run.then(st)
        deltas = {a: tuple(universe.term_of(t) for t in ids) for a, ids in gained.items()}
        events.append(TraceEvent(j, st.sid, st.index, st.sender, st.receiver,
                                 st.message, time, deltas))
        secret = run.goal()
        if secret is not None:
            return Trace(model.protocol, model.scenario, model.sessions, bound,
                         tuple(events), universe.term_of(secret),
                         tuple(sorted(model.require_complete)))
    raise ModelError("the run satisfies the goal at no position")


def decode(result: RawResult, script: SmtScript, model: TiisModel) -> Trace:
    """Decode a sat model into a goal-truncated Trace; a fire symbol the
    script does not declare is false."""
    if result.status != "sat":
        raise ModelError(f"cannot decode a {result.status} result")
    values = result.values

    def fired():
        for j in range(1, script.bound + 1):
            names = [(st, fire_name(j, *st.ref)) for st in model.exec_steps]
            steps = [st for st, name in names
                     if name in script.var_index and _bool(values, name)]
            if len(steps) != 1:
                raise ModelError(
                    f"position {j}: expected exactly one firing step, got "
                    f"{[(s.sid, s.index) for s in steps]}")
            time = values.get(tau_name(j))
            if not isinstance(time, Fraction):
                raise ModelError(f"missing time value {tau_name(j)}")
            yield steps[0], time

    return trace_of(model, fired(), script.bound)


def _clock(node) -> str:
    return "0" if node is ZERO else f"t{node[0]}.{node[1]}"


def replay(trace: Trace, model: TiisModel) -> Optional[ReplayViolation]:
    """Concrete re-execution; returns None if valid, else the first violation."""
    universe = model.universe
    run = Run.start(model)
    fired = []
    times = {ZERO: Fraction(0)}  # (sid, index) node -> fire time

    for j, ev in enumerate(trace.events, start=1):
        if ev.position != j or j > trace.bound:
            return ReplayViolation(
                "position", ev.position,
                f"event {j} of a bound-{trace.bound} trace has position {ev.position}")
        try:
            st = model.step_at(ev.sid, ev.index)
        except KeyError:
            return ReplayViolation("session order", ev.position,
                                   f"unknown step ({ev.sid},{ev.index})")
        if (ev.sender, ev.receiver, ev.message) != (st.sender, st.receiver, st.message):
            return ReplayViolation(
                "step label", ev.position,
                f"step ({ev.sid},{ev.index}) is {st.sender} -> {st.receiver} : "
                f"{render_term(st.message)}")
        expected = run.pc[ev.sid - 1]
        if expected != ev.index:
            return ReplayViolation(
                "session order", ev.position,
                f"session {ev.sid} expects step {expected}, got {ev.index}")
        if st.gated and not constructible(run.known[INTRUDER], st.message, universe):
            return ReplayViolation(
                "gating", ev.position,
                f"intruder cannot construct {render_term(st.message)}")
        fired.append(st)
        times[st.ref] = ev.time
        for u, v, w, kind in step_constraints(model, fired):
            diff = times[v] - times[u]
            if diff > w:
                return ReplayViolation(
                    kind, ev.position,
                    f"{_clock(v)} - {_clock(u)} = {diff}, must be <= {w}")

        run, gains = run.then(st)
        for a in model.agents:
            actual = {universe.term_of(t) for t in gains.get(a, ())}
            declared = set(ev.deltas.get(a, ()))
            if actual != declared:
                missing = sorted(render_term(t) for t in actual ^ declared)
                return ReplayViolation(
                    "knowledge delta", ev.position,
                    f"agent {a} delta mismatch on {missing}")

    final = trace.events[-1] if trace.events else None
    secret_id = universe.id_of(trace.secret) if trace.secret in universe else None
    goal_ok = (
        final is not None
        and run.goal() is not None
        and secret_id in model.goal_secret_ids
        and secret_id in run.known[INTRUDER]
        and set(trace.completed_sessions) == set(model.require_complete)
    )
    if not goal_ok:
        return ReplayViolation(
            "goal", final.position if final else 0,
            "final state does not satisfy the goal predicate")
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
