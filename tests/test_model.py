import random
from dataclasses import replace
from fractions import Fraction

import pytest

from tspbmc.dbm import ZERO
from tspbmc.errors import ModelError, ScenarioError
from tspbmc.frontend import INTRUDER, parse_protocol, parse_scenario
from tspbmc.model import (
    Run,
    adequacy_warnings,
    build_model,
    closure,
    compile_rules,
    constructible,
    initial_knowledge,
    model_to_json,
    step_constraints,
)
from tspbmc.oracle import explicit_reach
from tspbmc.terms import Cipher, Pair, TermUniverse, parse_term

from conftest import UNREADABLE, assert_labels_exact, library_models, load, model_of


def ids(universe, *texts):
    return {universe.id_of(parse_term(t)) for t in texts}


def test_universe_contents_nspk_fair(lib):
    model = model_of(lib, "nspkt", "fair")
    u = model.universe
    for text in ["<KB,Ta#1|A>", "Ta#1|A", "Ta#1", "A", "KB", "KB'", "KA",
                 "KA'", "<KA,Ta#1|Tb#1>", "Tb#1", "<KB,Tb#1>", "B", "I",
                 "KI", "KI'"]:
        assert parse_term(text) in u, text
    # closed under subterms and key inversion by construction
    assert all(parse_term(t) in u for t in ["Ta#1|Tb#1"])


def test_initial_knowledge_nspk(lib):
    model = model_of(lib, "nspkt", "fair")
    u = model.universe
    assert model.initial_knowledge["A"] == frozenset(
        ids(u, "A", "B", "I", "KA", "KB", "KI", "KA'"))
    assert model.initial_knowledge[INTRUDER] == frozenset(
        ids(u, "A", "B", "I", "KA", "KB", "KI", "KI'"))
    # no agent initially knows a fresh atom
    ta = u.id_of(parse_term("Ta#1"))
    assert all(ta not in model.initial_knowledge[a] for a in model.agents)


def test_compromised_keys_added_to_intruder(lib):
    model = model_of(lib, "wmf", "replay_generous")
    kbs = model.universe.id_of(parse_term("KBS"))
    assert kbs in model.initial_knowledge[INTRUDER]
    assert kbs not in model.initial_knowledge["A"]


def test_compromised_must_be_key(lib):
    spec, scen = load(lib, "dsp", "fair")
    with pytest.raises(ScenarioError, match="compromised entry 'A' is not a key"):
        build_model(spec, replace(scen, compromised=("A",)))


def test_rule_count_formula(lib):
    model = model_of(lib, "nspkt", "fair")
    u = model.universe
    pairs = sum(isinstance(t, Pair) for t in u)
    ciphers = [t for t in u if isinstance(t, Cipher)]
    with_inv = sum(1 for c in ciphers
                   if parse_term("K" + c.key.agent + "'") in u)
    assert len(model.rules) == 3 * pairs + 2 * with_inv + (len(ciphers) - with_inv)


def test_decrypt_rule_example():
    u = TermUniverse([parse_term("<KB,Tb#1>"), parse_term("KB'")])
    rules = compile_rules(u)
    decrypts = [r for r in rules if r.kind == "decrypt"]
    assert len(decrypts) == 1
    r = decrypts[0]
    assert r.premises == (u.id_of(parse_term("<KB,Tb#1>")),
                          u.id_of(parse_term("KB'")))
    assert r.conclusion == u.id_of(parse_term("Tb#1"))


def test_closure_properties_randomized(lib):
    rng = random.Random(99)
    for proto, scen in [("nspkt", "mitm1_lowe"), ("wmf", "replay_generous"),
                        ("dsp", "key_compromise")]:
        model = model_of(lib, proto, scen)
        all_ids = list(range(len(model.universe)))
        for _ in range(350):
            s = frozenset(rng.sample(all_ids, rng.randrange(len(all_ids))))
            c = closure(s, model.rules)
            assert s <= c  # extensivity
            assert closure(c, model.rules) == c  # idempotence
            extra = frozenset(rng.sample(all_ids, 2))
            assert c <= closure(s | extra, model.rules)  # monotonicity


def test_support_labels_exact_on_library(lib):
    rng = random.Random(7)
    models = list(library_models(lib))
    assert len(models) >= 12
    for model in models:
        assert_labels_exact(model, rng, samples=50)


def test_constructible_examples(lib):
    model = model_of(lib, "nspkt", "fair")
    u = model.universe

    def known(*texts):  # constructible takes closed knowledge
        return closure(ids(u, *texts), model.rules)

    t = parse_term("<KB,Ta#1|A>")
    assert constructible(known("KB", "Ta#1", "A"), t, u)
    assert constructible(known("<KB,Ta#1|A>"), t, u)  # replay
    assert not constructible(known(), parse_term("Ta#1"), u)
    assert not constructible(known("KB", "A"), t, u)


def test_build_model_pins(lib):
    model = model_of(lib, "nspkt", "fair")
    assert len(model.exec_steps) == 3
    assert [st.generates for st in model.exec_steps] == [
        (parse_term("Ta#1"),), (parse_term("Tb#1"),), ()]
    assert [[(c.term, c.gen) for c in st.lifetime_checks] for st in model.exec_steps] == [
        [], [(parse_term("Ta#1"), (1, 1))], [(parse_term("Tb#1"), (1, 2))]]
    assert model.require_complete == frozenset({1})
    assert model.goal_secret_ids == (model.universe.id_of(parse_term("Tb#1")),)

    mitm = model_of(lib, "nspkt", "mitm1_lowe")
    assert mitm.sessions == 2
    assert mitm.step_at(1, 1).generates == (parse_term("Ta#1"),)
    assert mitm.step_at(1, 2).lifetime_checks[0].gen == (1, 1)
    assert [model.universe.term_of(i) for i in model.goal_secret_ids]


def test_goal_secret_must_occur(lib):
    spec, _ = load(lib, "nspkt", "fair")
    scen = parse_scenario(
        '{"name": "x", "overrides": ['
        '{"sid": 1, "step": 2, "kind": "replace", "edge": "B->A", "L": "A"},'
        '{"sid": 1, "step": 3, "kind": "replace", "edge": "A->B", "L": "B"}]}')
    with pytest.raises(ModelError):
        build_model(spec, scen)


def test_adequacy_warnings(lib):
    # fair nspkt: all receivers can decrypt
    assert adequacy_warnings(model_of(lib, "nspkt", "fair")) == []
    # wmf step 3 is encrypted under Kab, which A generated at step 1
    for scen in ("fair", "replay_generous", "replay_tight"):
        assert adequacy_warnings(model_of(lib, "wmf", scen)) == [], scen
    # here B never learns the session key A encrypts under
    spec = parse_protocol(UNREADABLE)
    model = build_model(spec, parse_scenario('{"name": "s", "overrides": []}'))
    assert adequacy_warnings(model) == ["step (1,1): receiver B cannot decrypt <Kab#1,Na#1>"]


def gained(before, after) -> dict:
    """Agent -> the term ids it knows in ``after`` and not in ``before``,
    for the agents that learned something."""
    return {a: after.known[a] - before.known[a] for a in before.known
            if after.known[a] != before.known[a]}


def test_honest_sender_knows_what_its_step_generates(lib):
    model = model_of(lib, "wmf", "fair")
    u = model.universe
    first = model.step_at(1, 1)
    before = Run.start(model)
    learned = gained(before, before.then(first))
    assert ids(u, "Kab#1", "Ta#1") <= learned["A"]
    # the intruder only gets the message
    assert learned[INTRUDER] == {u.id_of(first.message)}
    # an intruder-sent generation step gives the intruder nothing extra
    spec, _ = load(lib, "nspkt", "fair")
    scen = parse_scenario('{"name": "x", "overrides": [{"sid": 1, "step": 1, '
                          '"kind": "intruder", "edge": "I->B", "L": "<KB,Ta#1|A>"}]}')
    model = build_model(spec, scen)
    first = model.step_at(1, 1)
    assert first.generates == (parse_term("Ta#1"),)
    before = Run.start(model)
    learned = gained(before, before.then(first))
    assert set(learned) == {"B", INTRUDER}
    assert model.universe.id_of(parse_term("Ta#1")) not in learned[INTRUDER]


def test_then_keeps_the_set_of_an_agent_that_learns_nothing(lib):
    # wmf step (1,1) is A -> S, eavesdropped: B learns nothing
    model = model_of(lib, "wmf", "fair")
    before = Run.start(model)
    after = before.then(model.step_at(1, 1))
    assert after.known["B"] is before.known["B"]
    assert all(after.known[a] is not before.known[a] for a in ("A", "S", INTRUDER))
    # along every library model's declaration order, an agent keeps its set
    # exactly when its knowledge does not change
    for model in library_models(lib):
        run = Run.start(model)
        for st in model.exec_steps:
            after = run.then(st)
            for a in model.agents:
                assert (after.known[a] is run.known[a]) == (after.known[a] == run.known[a]), \
                    (model.protocol, model.scenario, model.sessions, st.ref, a)
            run = after


def test_step_at_indexes_the_grid(lib):
    for model in library_models(lib, ks=(1, 2, 3, 4)):
        n = model.steps_per_session()
        assert len(model.exec_steps) == model.sessions * n
        for sid in range(1, model.sessions + 1):
            for i in range(1, n + 1):
                assert model.step_at(sid, i) is next(
                    st for st in model.exec_steps if st.ref == (sid, i))
        for ref in ((0, 1), (model.sessions + 1, 1), (1, 0), (1, n + 1)):
            with pytest.raises(KeyError):
                model.step_at(*ref)


def sequence_constraints(sequence) -> list:
    """The timing rules of firing ``sequence[-1]``, read off the whole fired
    sequence: the reference that ``step_constraints(run, step)`` must meet."""
    st = sequence[-1]
    pred = (st.sid, st.index - 1) if st.index > 1 else ZERO
    prev = sequence[-2].ref if len(sequence) > 1 else ZERO
    fired = {s.ref for s in sequence}
    return ([(st.ref, pred, -st.min_delay, "delay"), (st.ref, prev, Fraction(0), "delay")]
            + [(c.gen, st.ref, c.bound, "lifetime") for c in st.lifetime_checks
               if c.gen in fired])


def test_step_constraints_read_the_run(lib):
    # at every position of random interleavings, the run holds what the
    # fired sequence says about the timing rules
    rng = random.Random(2026)
    gen_fired = set()  # per lifetime check met, whether its generation step had fired
    for model in library_models(lib, ks=(1, 2, 3)):
        n = model.steps_per_session()
        for _ in range(4):
            run, sequence = Run.start(model), []
            while len(sequence) < len(model.exec_steps):
                sid = rng.choice([s for s, i in enumerate(run.pc, start=1) if i <= n])
                st = model.step_at(sid, run.pc[sid - 1])
                sequence.append(st)
                expected = sequence_constraints(sequence)
                assert step_constraints(run, st) == expected, [s.ref for s in sequence]
                gen_fired |= {c.gen in {s.ref for s in sequence} for c in st.lifetime_checks}
                run = run.then(st)
            assert run.last == sequence[-1].ref
    assert gen_fired == {True, False}


def test_model_to_json_deterministic(lib):
    a = model_to_json(model_of(lib, "nspkt", "mitm1_lowe"))
    b = model_to_json(model_of(lib, "nspkt", "mitm1_lowe"))
    assert a == b
    assert a["exec_steps"][0]["message"] == "<KI,Ta#1|A>"


def test_eavesdrop_flag_controls_intruder_taps(lib):
    spec, scen = load(lib, "nspkt", "fair")
    on = build_model(spec, replace(scen, eavesdrop=True))
    off = build_model(spec, replace(scen, eavesdrop=False))
    assert on.eavesdrop and not off.eavesdrop


# ---- static goal analysis: hand-checked cones and goal floors ---------------


def test_cone_of_lowe_fixed_is_session_one(lib):
    # only session 1 must complete, and Tb#2 reaches the intruder only by
    # (1,3); the gated (1,2) needs Tb#2 itself, so neither (1,2) nor (1,3)
    # fires in any run and no goal holds
    model = model_of(lib, "nspkt_lowe_fixed", "mitm1_lowe_adapted", k=2)
    assert model.cone == {(1, 1), (1, 2), (1, 3)}
    assert model.goal_floor == len(model.exec_steps) + 1


def test_cone_of_an_underivable_goal_is_the_required_sessions(lib):
    model = model_of(lib, "nspkt", "fair", k=3)
    assert model.cone == {(1, 1), (1, 2), (1, 3)}
    assert model.goal_floor == 10  # past every run of the 9 steps


def test_cone_and_floor_of_wmf_replay_generous(lib):
    model = model_of(lib, "wmf", "replay_generous", k=2)
    assert model.cone == {st.ref for st in model.exec_steps}
    assert model.goal_floor == 6  # both sessions complete


def test_cone_of_nspkt_mitm1_lowe_at_three_sessions(lib):
    model = model_of(lib, "nspkt", "mitm1_lowe", k=3)
    assert model.cone == {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)}
    # (1,2) relays (2,2)'s reply, which needs (2,1), which relays (1,1):
    # every goal run fires all 5 cone steps
    assert model.goal_floor == 5


def test_goal_floor_counts_steps_outside_the_required_sessions(lib):
    # the goal is Kab#2, which only (2,2) delivers: session 2's first two
    # steps come on top of session 1's three
    spec, scen = load(lib, "dsp", "key_compromise")
    spec = replace(spec, goal=replace(spec.goal, target_sid=2,
                                      require_complete=frozenset({1})))
    model = build_model(spec, scen, k=2)
    assert model.cone == {(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)}
    assert model.goal_floor == 5
    assert explicit_reach(model, depth=6).depth == 5


def test_gate_table_lists_the_deliverers_that_can_fire_first(lib):
    # the rule, written apart from gate_table: a root's deliverers are the
    # steps whose message it is and that reach the intruder; a gated step's
    # gate lists those that are neither the step nor a later step of its
    # session, and the goal's lists them all
    for model in library_models(lib, ks=(1, 2, 3, 4)):
        id_of = model.universe.id_of
        gated = [st for st in model.exec_steps if st.gated]
        assert set(model.gates) == {st.ref for st in gated} | {None}

        def expected(label, st):
            return tuple(tuple(tuple(
                d for d in model.exec_steps
                if id_of(d.message) == m and (d.receiver == INTRUDER or model.eavesdrop)
                and (st is None or d.sid != st.sid or d.index < st.index))
                for m in sup) for sup in label)

        for st in gated:
            assert model.gates[st.ref] == expected(model.labels[id_of(st.message)], st)
        goal = [sup for tid in model.goal_secret_ids for sup in model.labels[tid]]
        assert model.gates[None] == expected(goal, None)


def test_oracle_reads_none_of_the_encodings_facts(lib):
    # the ground truth's verdict and witness stand without the labels, the
    # gate table, the cone and the goal floor
    for model in library_models(lib):
        depth = len(model.exec_steps)
        bare = replace(model, labels=(), gates={}, cone=frozenset(), goal_floor=0)
        assert explicit_reach(bare, depth=depth) == explicit_reach(model, depth=depth)
