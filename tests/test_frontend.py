import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tspbmc
from tspbmc.errors import QUOTE_MAX, ProtocolError, ScenarioError, quote
from tspbmc.frontend import (
    apply_overrides,
    compute_generation,
    effective_require_complete,
    parse_protocol,
    parse_rational,
    parse_scenario,
)
from tspbmc.terms import parse_term

NSPK = """
name: NSPK_T
roles: A B
fresh: Ta by A class nonce lifetime 10
fresh: Tb by B class nonce lifetime 10
goal: secrecy Tb sid any
complete: 1
step 1: A -> B : <KB, Ta | A> delay 1
step 2: B -> A : <KA, Ta | Tb> delay 1
step 3: A -> B : <KB, Tb> delay 1
"""


def scenario(**kw):
    kw.setdefault("name", "s")
    kw.setdefault("overrides", [])
    return parse_scenario(json.dumps(kw))


def test_parse_protocol_basics():
    spec = parse_protocol(NSPK)
    assert spec.name == "NSPK_T"
    assert spec.roles == ("A", "B")
    assert [d.name for d in spec.fresh_decls] == ["Ta", "Tb"]
    assert spec.fresh_decls[0].lifetime == Fraction(10)
    assert spec.goal.secret == "Tb" and spec.goal.target_sid == "any"
    assert spec.goal.require_complete == frozenset({1})
    assert len(spec.steps) == 3
    assert spec.steps[0].message == parse_term("<KB,Ta|A>")
    assert spec.steps[0].min_delay == Fraction(1)


@pytest.mark.parametrize("mutation,needle", [
    (lambda t: t.replace("roles: A B", "roles: A I"), "reserved"),
    (lambda t: t.replace("step 2", "step 5"), "gap"),
    (lambda t: t.replace("goal: secrecy Tb sid any", "goal: secrecy Tx sid any"),
     "not a declared"),
    (lambda t: t.replace("fresh: Tb by B", "fresh: Tb by A"), "owner"),
    (lambda t: t.replace("class nonce", "class magic"), "class"),
    (lambda t: t.replace("name: NSPK_T\n", ""), "name"),
    (lambda t: t.replace("delay 1", "delay -1", 1), "delay"),
    (lambda t: t.replace("A -> B : <KB, Ta | A>", "A -> A : <KB, Ta | A>"),
     "differ"),
    # the last of two header lines used to win silently
    (lambda t: t + "name: OTHER\n", "line 11: repeated name: line"),
    (lambda t: t + "goal: secrecy Tb sid 2\n", "line 11: repeated goal: line"),
    (lambda t: t + "complete: 1\n", "line 11: repeated complete: line"),
    (lambda t: t.replace("complete: 1", "complete: 0 7"),
     "line 7: complete: session indices must be >= 1"),
    (lambda t: t.replace("name: NSPK_T", "name:"), "line 2: empty name: line"),
    (lambda t: t.replace("name: NSPK_T", "name:   # none"), "line 2: empty name: line"),
])
def test_parse_protocol_rejects(mutation, needle):
    with pytest.raises(ProtocolError) as e:
        parse_protocol(mutation(NSPK))
    assert needle in str(e.value)


def test_lifetime_none_means_unbounded():
    spec = parse_protocol(NSPK.replace("Ta by A class nonce lifetime 10",
                                       "Ta by A class nonce lifetime none"))
    assert spec.decl_map()["Ta"].lifetime is None


def test_sesskey_required_for_fresh_cipher_keys():
    text = NSPK.replace("<KB, Tb>", "<Ta, Tb>")
    with pytest.raises(ProtocolError) as e:
        parse_protocol(text)
    assert "session key" in str(e.value)


def test_parse_scenario_listing_shape():
    scen = parse_scenario(json.dumps({
        "name": "mitm1_lowe",
        "sessions": 2,
        "overrides": [
            {"sid": 1, "step": 1, "kind": "replace", "edge": "A->I",
             "L": "<KB,Ta#1|A>"},
            {"sid": 1, "step": 2, "kind": "intruder", "edge": "I->A",
             "L": "<KA,Ta#1|Tb#1>"},
            {"sid": 1, "step": 3, "kind": "replace", "edge": "A->I",
             "L": "<KB,Tb#1>"},
            {"sid": 2, "step": 1, "kind": "intruder", "edge": "I->B",
             "L": "<KB,Ta#1|A>"},
        ],
    }))
    assert scen.name == "mitm1_lowe"
    assert scen.sessions == 2
    assert len(scen.overrides) == 4
    ov = scen.overrides[0]
    assert (ov.kind, ov.edge) == ("replace", ("A", "I"))
    assert ov.message == parse_term("<KB,Ta#1|A>")


@pytest.mark.parametrize("bad", [
    {"overrides": []},  # missing name
    {"name": "x", "overrides": [], "bogus": 1},
    {"name": "x", "overrides": [{"sid": 1, "step": 1, "kind": "mystery"}]},
    {"name": "x", "overrides": [
        {"sid": 1, "step": 1, "kind": "replace", "edge": "I->A", "L": "A"}]},
    {"name": "x", "overrides": [
        {"sid": 1, "step": 1, "kind": "intruder", "edge": "A->B", "L": "A"}]},
    {"name": "x", "overrides": [
        {"sid": 1, "step": 1, "kind": "retime", "delay": 1},
        {"sid": 1, "step": 1, "kind": "retime", "delay": 2}]},
    {"name": "x", "overrides": [{"sid": 1, "step": 1, "kind": "retime"}]},
    {"name": "x", "overrides": [
        {"sid": 0, "step": 1, "kind": "retime", "delay": 1}]},
    {"name": "x", "overrides": [], "sessions": 0},
    {"name": 5, "overrides": []},
    {"name": ["a"], "overrides": []},
    {"name": "", "overrides": []},
    {"name": "  ", "overrides": []},
])
def test_parse_scenario_rejects(bad):
    with pytest.raises(ScenarioError):
        parse_scenario(json.dumps(bad))


def test_numerals_are_integers_decimals_and_fractions():
    # a text delay or lifetime has no exponent, which would expand to a
    # billion digits; a JSON number keeps its own, which is bounded
    for text, value in [("3", 3), ("-3", -3), ("+2", 2), (" 2.5 ", Fraction(5, 2)),
                        (".5", Fraction(1, 2)), ("3.", 3), ("7/2", Fraction(7, 2))]:
        assert parse_rational(text) == value, text
    for text in ("1e999999999", "1E3", "1_000", "inf", "1/0", "1.5/2", "0x10", "."):
        with pytest.raises(ValueError, match="bad rational"):
            parse_rational(text)
    spec = parse_protocol(NSPK.replace("B : <KB, Tb> delay 1", "B : <KB, Tb> delay 7/2"))
    assert spec.steps[2].min_delay == Fraction(7, 2)
    with pytest.raises(ProtocolError, match="delay: bad rational '1e999999999'"):
        parse_protocol(NSPK.replace("B : <KB, Tb> delay 1", "B : <KB, Tb> delay 1e999999999"))
    with pytest.raises(ProtocolError, match="lifetime: bad rational '1e999999999'"):
        parse_protocol(NSPK.replace("nonce lifetime 10", "nonce lifetime 1e999999999", 1))
    for delay, value in [("7/2", Fraction(7, 2)), (2.5e1, 25), (1e16, 10**16), (3, 3)]:
        ov = scenario(overrides=[{"sid": 1, "step": 1, "kind": "retime", "delay": delay}])
        assert ov.overrides[0].delay == value, delay
    for delay in ("1e99999999", "2.5e1", float("inf")):
        with pytest.raises(ScenarioError, match="override 0: bad rational"):
            scenario(overrides=[{"sid": 1, "step": 1, "kind": "retime", "delay": delay}])


def test_quote_cuts_long_text_to_a_prefix_and_its_length():
    assert quote("KA|") == "'KA|'"
    assert quote("x" * QUOTE_MAX) == repr("x" * QUOTE_MAX)
    assert quote("x" * 5000) == f"{'x' * QUOTE_MAX!r}… (5000 characters)"
    assert quote(5) == "5"
    assert quote(list(range(100))) == f"{str(list(range(100)))[:QUOTE_MAX]}… (390 characters)"


def test_numbers_past_the_int_digit_limit_are_input_errors():
    big = "1" * 5000
    for key in ("sessions", "sid", "delay"):
        text = ('{"name": "s", "sessions": 1, "overrides": '
                '[{"sid": 1, "step": 1, "kind": "retime", "delay": 1}]}')
        with pytest.raises(ScenarioError, match="^malformed JSON: integer of more than "
                           f"{sys.get_int_max_str_digits()} digits$"):
            parse_scenario(re.sub(f'"{key}": 1', f'"{key}": {big}', text))
    with pytest.raises(ProtocolError, match="line 8: bad step line"):
        parse_protocol(NSPK.replace("step 1:", f"step {big}:"))
    with pytest.raises(ProtocolError, match="line 8: delay: bad rational"):
        parse_protocol(NSPK.replace("A> delay 1", f"A> delay {big}", 1))
    with pytest.raises(ScenarioError, match="bad term in L: malformed session suffix"):
        scenario(overrides=[{"sid": 1, "step": 1, "kind": "replace", "edge": "A->B",
                             "L": f"<KB,Ta#{big}|A>"}])


def test_apply_overrides_replicates_and_instantiates():
    spec = parse_protocol(NSPK)
    steps = apply_overrides(spec, scenario(sessions=2), 2)
    assert [(s.sid, s.index) for s in steps] == [
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
    assert steps[3].message == parse_term("<KB,Ta#2|A>")
    assert not any(s.gated for s in steps)


def test_apply_overrides_substitution_and_gating():
    spec = parse_protocol(NSPK)
    scen = scenario(overrides=[
        {"sid": 1, "step": 2, "kind": "intruder", "edge": "I->A",
         "L": "<KA,Ta#1|Tb#1>"},
        {"sid": 1, "step": 3, "kind": "retime", "delay": "7/2"},
    ])
    steps = apply_overrides(spec, scen, 1)
    assert steps[1].sender == "I" and steps[1].gated
    assert steps[2].min_delay == Fraction(7, 2)


def test_apply_overrides_out_of_range():
    spec = parse_protocol(NSPK)
    scen = scenario(overrides=[
        {"sid": 2, "step": 1, "kind": "retime", "delay": 1}])
    with pytest.raises(ScenarioError):
        apply_overrides(spec, scen, 1)
    # a fresh value of no session 1..k: A used to "generate" Ta#7 at (1,1)
    for sid, k in ((7, 1), (3, 2)):
        scen = scenario(sessions=k, overrides=[
            {"sid": 1, "step": 1, "kind": "replace", "edge": "A->B", "L": f"<KB,Ta#{sid}|A>"}])
        with pytest.raises(ScenarioError, match=rf"fresh value Ta#{sid} is not of sessions 1\.\.{k}"):
            apply_overrides(spec, scen, k)


def test_generation_and_lifetime_checks():
    spec = parse_protocol(NSPK)
    steps = apply_overrides(spec, scenario(), 1)
    gen = compute_generation(steps, spec.decl_map())
    assert gen[parse_term("Ta#1")].ref == (1, 1)
    assert gen[parse_term("Tb#1")].ref == (1, 2)
    # Ta#1 is used (not generated) at step 2; Tb#1 at step 3
    assert [(c.term, c.bound) for c in steps[1].lifetime_checks] == [
        (parse_term("Ta#1"), Fraction(10))]
    assert [(c.term, c.bound) for c in steps[2].lifetime_checks] == [
        (parse_term("Tb#1"), Fraction(10))]
    assert steps[0].lifetime_checks == ()


def test_lifetime_override_rebinds_single_step():
    spec = parse_protocol(NSPK)
    scen = scenario(overrides=[
        {"sid": 1, "step": 2, "kind": "retime", "lifetime": {"Ta": 99}}])
    steps = apply_overrides(spec, scen, 1)
    assert steps[1].lifetime_checks[0].bound == Fraction(99)
    assert steps[2].lifetime_checks[0].bound == Fraction(10)


def test_generation_falls_back_when_owner_send_overridden():
    spec = parse_protocol(NSPK)
    scen = scenario(overrides=[
        {"sid": 1, "step": 1, "kind": "intruder", "edge": "I->B",
         "L": "<KB,Ta#1|A>"}])
    steps = apply_overrides(spec, scen, 1)
    gen = compute_generation(steps, spec.decl_map())
    assert gen[parse_term("Ta#1")].ref == (1, 1)  # the intruder step's fallback
    assert steps[0].generates == (parse_term("Ta#1"),)
    # once A's step 1 no longer carries Ta#1, B's step 2 is the first to:
    # an honest non-owner never generates, so B sends what it never got
    scen = scenario(overrides=[
        {"sid": 1, "step": 1, "kind": "replace", "edge": "A->B", "L": "A"}])
    with pytest.raises(ScenarioError, match=r"step \(1,2\): B sends Ta#1 before"):
        apply_overrides(spec, scen, 1)


def test_honest_sender_sends_only_what_it_generates_or_has_seen():
    spec = parse_protocol(NSPK)
    # A received Tb#1 at (1,2); the intruder's sends are gated instead (its
    # step 1 still carries Ta#1, which B sends at (1,2))
    for ov in ({"sid": 1, "step": 3, "kind": "replace", "edge": "A->I", "L": "Tb#1"},
               {"sid": 1, "step": 1, "kind": "intruder", "edge": "I->B", "L": "Ta#1|Tb#1"}):
        apply_overrides(spec, scenario(overrides=[ov]), 1)
    # session 2's A has seen nothing of session 1
    scen = scenario(sessions=2, overrides=[
        {"sid": 2, "step": 1, "kind": "replace", "edge": "A->B", "L": "<KB,Ta#1|A>"}])
    with pytest.raises(ScenarioError, match=r"step \(2,1\): A sends Ta#1 before"):
        apply_overrides(spec, scen, 2)


def test_step_facts_follow_compute_generation(lib):
    fallback = scenario(overrides=[
        {"sid": 1, "step": 1, "kind": "replace", "edge": "A->B", "L": "A"}])
    cases = [(parse_protocol(NSPK), fallback)] + [
        (parse_protocol(entry.protocol), parse_scenario(text))
        for entry in lib.values() for text in entry.scenarios.values()]
    checked = 0
    for spec, scen in cases:
        for k in (1, 2, 3):
            try:
                steps = apply_overrides(spec, scen, k)
            except ScenarioError:
                continue  # overrides reference sessions beyond k
            gen = compute_generation(steps, spec.decl_map())
            assert sorted((t.name, t.sid, st.ref) for st in steps for t in st.generates) \
                == sorted((t.name, t.sid, g.ref) for t, g in gen.items())
            for st in steps:
                for check in st.lifetime_checks:
                    assert check.gen == gen[check.term].ref != st.ref
                    checked += 1
    assert checked > 50


_FIRST_BAD_ATOM = """
from tspbmc.errors import TspbmcError
from tspbmc.frontend import apply_overrides, parse_protocol, parse_scenario
head = "name: X\\nroles: A B\\ngoal: secrecy Ta sid any\\n"
step = "step 1: A -> B : Ta | Xa | Yb | Zc | Wd\\n"
decls = [("fresh: Ta by A class nonce lifetime none\\n"
          "fresh: Xa by A class nonce lifetime none\\n"),
         "".join(f"fresh: {n} by B class nonce lifetime none\\n"
                 for n in ("Ta", "Xa", "Yb", "Zc", "Wd"))]
for d in decls:
    try:
        parse_protocol(head + d + step)
    except TspbmcError as e:
        print(e)
spec = parse_protocol(head + decls[0] + "step 1: A -> B : Ta\\n")
scen = parse_scenario('{"name": "s", "overrides": [{"sid": 1, "step": 1, '
                      '"kind": "replace", "edge": "A->B", "L": "Ta | Zz | Yy | <Xa,Ww>"}]}')
try:
    apply_overrides(spec, scen, 1)
except TspbmcError as e:
    print(e)
"""


def test_first_bad_fresh_atom_is_named_left_to_right():
    src = os.path.dirname(os.path.dirname(tspbmc.__file__))
    outputs = []
    for seed in ("1", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        outputs.append(subprocess.run(
            [sys.executable, "-c", _FIRST_BAD_ATOM], env=env, check=True,
            capture_output=True, text=True).stdout.splitlines())
    assert outputs[0] == outputs[1] == [
        "step 1: undeclared fresh atom 'Yb'",
        "fresh 'Ta' first sent by 'A', not its owner 'B'",
        "override message uses undeclared fresh atom 'Zz'",
    ]


def test_effective_require_complete_default_and_explicit():
    spec = parse_protocol(NSPK)
    steps = apply_overrides(spec, scenario(sessions=2), 2)
    assert effective_require_complete(spec, steps, 2) == frozenset({1})
    no_complete = parse_protocol(NSPK.replace("complete: 1\n", ""))
    assert effective_require_complete(no_complete, steps, 2) == frozenset({1, 2})
    # indices above k are clipped, not rejected
    beyond = parse_protocol(NSPK.replace("complete: 1", "complete: 1 7"))
    assert effective_require_complete(beyond, steps, 2) == frozenset({1})


def test_readme_protocol_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Input format", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```\n(.*?)^```$", section, re.S | re.M).group(1)
    spec = parse_protocol(block)
    assert spec == parse_protocol(NSPK)
