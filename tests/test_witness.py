import json
from dataclasses import replace
from fractions import Fraction

import pytest

from tspbmc.encoder import decode, encode
from tspbmc.errors import ModelError
from tspbmc.oracle import explicit_reach
from tspbmc.solver import run_solver
from tspbmc.terms import parse_term
from tspbmc.witness import (
    ReplayViolation,
    TraceEvent,
    parse_json,
    render_html,
    render_json,
    render_text,
    replay,
)

from conftest import model_of, solver_config


@pytest.fixture(scope="module")
def mitm_sat(lib):
    model = model_of(lib, "nspkt", "mitm1_lowe")
    script = encode(model, 5)
    result = run_solver(script, solver_config())
    assert result.status == "sat"
    return model, script, result


@pytest.fixture(scope="module")
def mitm(mitm_sat):
    model, script, result = mitm_sat
    return model, decode(result, script, model)


def test_decode_shape(mitm):
    model, trace = mitm
    assert trace.bound == 5
    assert [ev.position for ev in trace.events] == list(
        range(1, len(trace.events) + 1))
    first = trace.events[0]
    assert (first.sid, first.index) == (1, 1)
    assert first.message == parse_term("<KI,Ta#1|A>")
    assert parse_term("<KI,Ta#1|A>") in first.deltas["I"]
    assert parse_term("Ta#1") in first.deltas["A"]  # A generates Ta#1 here
    assert trace.secret == parse_term("Tb#2")
    assert trace.completed_sessions == (1,)


def test_decode_rejects_non_sat(mitm):
    from tspbmc.solver import RawResult
    model, trace = mitm
    script = encode(model, 5)
    with pytest.raises(ModelError):
        decode(RawResult("unsat"), script, model)


# the model fires (1,1), (2,1), (2,2), (1,2), (1,3) at times 1, 1, 2, 2, 3
@pytest.mark.parametrize("tamper, where", [
    ({"f_2_1": False}, ("session order", 2)),  # (2,2) without (2,1)
    ({"t_2_2": Fraction(1)}, ("delay", 3)),  # (2,2) before (2,1)'s time + delay
    ({"o_2_2": Fraction(5)}, ("gating", 3)),  # (1,2) before the (2,2) it relays
])
def test_decode_rejects_a_model_that_is_not_a_run(mitm_sat, tamper, where):
    model, script, result = mitm_sat
    assert all(name in script.var_index for name in tamper)
    with pytest.raises(ReplayViolation) as e:
        decode(replace(result, values={**result.values, **tamper}), script, model)
    assert (e.value.kind, e.value.position) == where
    assert isinstance(e.value, ModelError)


def test_replay_accepts_decoded(mitm):
    model, trace = mitm
    assert replay(trace, model) is None


def test_replay_rejects_swapped_order(mitm):
    model, trace = mitm
    events = list(trace.events)
    events[0], events[1] = (replace(events[1], position=1),
                            replace(events[0], position=2))
    bad = replace(trace, events=tuple(events))
    violation = replay(bad, model)
    # firing (2,1) first both breaks nothing session-locally but the
    # intruder has not yet heard Ta#1: gating must reject it
    assert violation is not None
    assert violation.kind == "gating"
    assert violation.position == 1


def test_replay_rejects_session_disorder(mitm):
    model, trace = mitm
    events = [replace(trace.events[2], position=1)]  # (2,2) before (2,1)
    bad = replace(trace, events=tuple(events))
    violation = replay(bad, model)
    assert violation is not None
    assert violation.kind == "session order"
    unknown = (replace(trace.events[0], sid=9),) + trace.events[1:]
    assert str(replay(replace(trace, events=unknown), model)) == (
        "position 1: session order: unknown step (9,1)")


def test_replay_rejects_delay_violation(mitm):
    model, trace = mitm
    events = list(trace.events)
    events[-1] = replace(events[-1], time=events[-1].time - 100)
    violation = replay(replace(trace, events=tuple(events)), model)
    assert violation is not None
    assert violation.kind == "delay"


def test_replay_rejects_lifetime_violation(mitm):
    model, trace = mitm
    events = [replace(ev, time=ev.time + 500) if i == len(trace.events) - 1
              else ev for i, ev in enumerate(trace.events)]
    violation = replay(replace(trace, events=tuple(events)), model)
    assert violation is not None
    assert violation.kind == "lifetime"


def test_replay_rejects_tampered_deltas(mitm):
    model, trace = mitm
    events = list(trace.events)
    events[0] = replace(events[0], deltas={})
    violation = replay(replace(trace, events=tuple(events)), model)
    assert violation is not None
    assert violation.kind == "knowledge delta"


def test_replay_rejects_goalless_truncation(mitm):
    model, trace = mitm
    bad = replace(trace, events=trace.events[:2])
    violation = replay(bad, model)
    assert violation is not None
    assert violation.kind == "goal"


def test_replay_rejects_events_past_the_goal(mitm):
    model, trace = mitm
    assert [(ev.sid, ev.index) for ev in trace.events][-1] == (1, 3)
    st = model.step_at(2, 3)  # the intruder forwards Tb#2 to B after the goal
    extra = TraceEvent(6, 2, 3, st.sender, st.receiver, st.message,
                       trace.events[-1].time + 1, {})
    violation = replay(replace(trace, bound=6, events=trace.events + (extra,)), model)
    assert violation is not None
    assert (violation.kind, violation.position) == ("goal", 5)


def test_knowledge_deltas_partition_knowledge(mitm):
    model, trace = mitm
    seen = {a: set() for a in model.agents}
    for ev in trace.events:
        for a, terms in ev.deltas.items():
            assert seen[a].isdisjoint(terms)  # disjoint across positions
            seen[a] |= set(terms)


def test_json_round_trip(mitm):
    _, trace = mitm
    assert parse_json(render_json(trace)) == trace
    data = json.loads(render_json(trace))
    assert data["goal"] == {
        "secret": "Tb#2", "known_by_intruder": True, "completed_sessions": [1]}
    ev = data["events"][0]
    assert set(ev) == {"position", "sid", "step", "sender", "receiver",
                       "message", "time", "deltas"}
    assert isinstance(ev["time"], str)


def test_render_text(mitm):
    _, trace = mitm
    text = render_text(trace)
    first = trace.events[0]
    assert f"[1] t={first.time} (1.1) A -> I : <KI,Ta#1|A>" in text
    assert "+K(I): Ta#1" in text


def test_render_html_self_contained(mitm):
    _, trace = mitm
    html_text = render_html(trace)
    assert html_text.count("<tr") == len(trace.events) + 1  # header + rows
    assert "Tb#2" in html_text
    assert "http" not in html_text and "<script" not in html_text


def test_oracle_trace_uses_same_schema(lib):
    model = model_of(lib, "dsp", "key_compromise")
    trace = explicit_reach(model, depth=8).trace
    assert parse_json(render_json(trace)) == trace


@pytest.fixture(scope="module")
def oracle_mitm(lib):
    model = model_of(lib, "nspkt", "mitm1_lowe", k=2)
    trace = explicit_reach(model, depth=len(model.exec_steps)).trace
    assert trace is not None and replay(trace, model) is None
    return model, trace


@pytest.mark.parametrize("fields", [
    {"sender": "B"},
    {"receiver": "B"},
    {"message": parse_term("<KB,Ta#1|A>")},
    {"sender": "B", "receiver": "A", "message": parse_term("<KB,Ta#1|A>")},
])
def test_replay_rejects_a_relabelled_event(oracle_mitm, fields):
    model, trace = oracle_mitm
    first = trace.events[0]
    assert all(getattr(first, name) != value for name, value in fields.items())
    events = (replace(first, **fields),) + trace.events[1:]
    violation = replay(replace(trace, events=events), model)
    assert violation is not None
    assert (violation.kind, violation.position) == ("step label", 1)


def test_replay_rejects_renumbered_positions(oracle_mitm):
    model, trace = oracle_mitm
    events = tuple(replace(ev, position=7) for ev in trace.events)
    violation = replay(replace(trace, events=events), model)
    assert violation is not None
    assert violation.kind == "position"


def test_replay_rejects_more_events_than_the_bound(oracle_mitm):
    model, trace = oracle_mitm
    assert len(trace.events) > 1
    violation = replay(replace(trace, bound=1), model)
    assert violation is not None
    assert (violation.kind, violation.position) == ("position", 2)
