import re
from dataclasses import replace
from fractions import Fraction

import pytest

from tspbmc.encoder import BmcProblem, encode
from tspbmc.frontend import INTRUDER
from tspbmc.sexpr import render_value

from conftest import model_of, solver_config
from tspbmc.solver import run_solver


def test_bound_must_be_positive(lib):
    model = model_of(lib, "nspkt", "fair")
    with pytest.raises(ValueError):
        BmcProblem(model, 0)


def test_determinism(lib):
    model = model_of(lib, "nspkt", "mitm1_lowe")
    a = encode(BmcProblem(model, 4)).text
    b = encode(BmcProblem(model_of(lib, "nspkt", "mitm1_lowe"), 4)).text
    assert a == b


def test_symbol_scheme_and_counts(lib):
    model = model_of(lib, "nspkt", "fair")
    script = encode(BmcProblem(model, 3))
    fires = [n for n in script.var_index if n.startswith("fire_")]
    assert len(fires) == 6  # step i at positions i..3: 3 + 2 + 1
    assert script.var_index["fire_1_1_1"] == "Bool"
    assert "fire_1_1_2" not in script.var_index  # step 2 cannot fire at 1
    assert script.var_index["t_1_2"] == "Real"
    assert script.var_index["tau_0"] == "Real"
    # only step and time state: 6 fire, 6 done, 3 t, 4 tau
    kinds = [n.split("_")[0] for n in script.var_index]
    assert sorted(set(kinds)) == ["done", "fire", "t", "tau"]
    assert len(script.var_index) == 6 + 6 + 3 + 4
    # no goal secret is derivable, so the goal floor is past every run
    assert script.goal_positions == ()
    attack = model_of(lib, "dsp", "key_compromise")  # goal floor 3
    assert encode(BmcProblem(attack, 4)).goal_positions == (3, 4)
    assert script.text.startswith("(set-logic QF_LRA)")
    assert script.text.rstrip().endswith("(check-sat)")


def test_fixed_section_order(lib):
    text = encode(BmcProblem(model_of(lib, "nspkt", "fair"), 2)).text
    sections = [m for m in re.findall(r"^; (.+)$", text, re.M)]
    assert sections == ["declarations", "interleaving", "time", "lifetimes",
                        "gating", "goal"]


def test_declarations_sorted(lib):
    text = encode(BmcProblem(model_of(lib, "nspkt", "fair"), 2)).text
    names = re.findall(r"\(declare-const (\S+) ", text)
    assert names == sorted(names)


def test_gating_only_for_intruder_steps(lib):
    model = model_of(lib, "nspkt", "mitm1_lowe")
    text = encode(BmcProblem(model, 6)).text
    gating = text.split("; gating")[1].split("; goal")[0]
    gated_refs = {(st.sid, st.index) for st in model.exec_steps if st.gated}
    assert gated_refs == {(1, 2), (2, 1), (2, 3)}
    # (2,3) is outside the goal's cone: it has no symbols at all
    assert (2, 3) not in model.cone and "_2_3" not in text
    for sid, i in gated_refs & model.cone:
        assert f"(=> fire_{model.earliest[(sid, i)]}_{sid}_{i} " in gating
    for st in model.exec_steps:
        for j in range(1, 7):
            if not st.gated:
                assert f"(=> fire_{j}_{st.sid}_{st.index} " not in gating


def test_goal_formula_disjunction_over_instances(lib):
    model = model_of(lib, "dsp", "key_compromise", k=2)
    assert model.goal_floor == 6  # both sessions complete
    text = encode(BmcProblem(model, 7)).text
    goal = text.split("; goal")[1]
    from tspbmc.terms import parse_term
    for sid in (1, 2):
        # Kab#sid's only support is the message of step (sid,2), S -> A
        kab = model.universe.id_of(parse_term(f"Kab#{sid}"))
        delivery = model.step_at(sid, 2)
        assert model.labels[kab] == ((model.universe.id_of(delivery.message),),)
        for j in (6, 7):
            assert f"done_{j}_{sid}_2" in goal


def test_lifetime_section(lib):
    model = model_of(lib, "nspkt", "fair")
    text = encode(BmcProblem(model, 3)).text
    lifetimes = text.split("; lifetimes")[1].split("; knowledge")[0]
    # Ta#1 used at (1,2), generated at (1,1), bound 10
    assert "(=> done_3_1_2 (<= t_1_2 (+ t_1_1 10.0)))" in lifetimes


def test_render_value_forms():
    assert render_value(Fraction(3)) == "3.0"
    assert render_value(Fraction(-3)) == "(- 3.0)"
    assert render_value(Fraction(7, 2)) == "(/ 7.0 2.0)"
    assert render_value(Fraction(-7, 2)) == "(- (/ 7.0 2.0))"


def test_bound_one_pigeonhole_unsat(lib):
    # completing a >1-step session within one transition is impossible
    model = model_of(lib, "nspkt", "fair")
    result = run_solver(encode(BmcProblem(model, 1)), solver_config())
    assert result.status == "unsat"


def test_eavesdrop_off_removes_intruder_taps(lib):
    from tspbmc.model import build_model
    from conftest import load
    spec, scen = load(lib, "nspkt", "mitm1_lowe")
    models = {eav: build_model(spec, replace(scen, eavesdrop=eav))
              for eav in (True, False)}
    assert all(m.labels[m.goal_secret_ids[0]] for m in models.values())
    honest = [st for st in models[True].exec_steps
              if INTRUDER not in (st.sender, st.receiver)]
    assert honest

    def taps(model):
        text = encode(BmcProblem(model, 4)).text
        formulas = text.split("; gating")[1]
        return {(st.sid, st.index) for st in honest for j in range(1, 5)
                if re.search(rf"\bdone_{j}_{st.sid}_{st.index}\b", formulas)}

    assert taps(models[True]) and not taps(models[False])


def test_bound_monotonicity_on_attack_instance(lib):
    # once sat, larger bounds stay sat: a run may stop early and leave the
    # positions after it idle, also past the exec-step count (6 here)
    model = model_of(lib, "nspkt", "mitm1_lowe")
    for n in (5, 6, 7):
        result = run_solver(encode(BmcProblem(model, n)), solver_config())
        assert result.status == "sat", n
    small = model_of(lib, "dsp", "key_compromise")  # 3 exec steps, attack at 3
    result = run_solver(encode(BmcProblem(small, 4)), solver_config())
    assert result.status == "sat"


def test_idle_positions_only_as_a_suffix(lib):
    # an idle position is never followed by a firing one, and position 1
    # always fires, so decode reads one step per position up to the goal
    model = model_of(lib, "nspkt", "mitm1_lowe")  # attack at 5 of 6 steps
    script = encode(BmcProblem(model, 6))

    def fires(j):  # the fire symbols the script declares at j
        return "(or " + " ".join(f"fire_{j}_{st.sid}_{st.index}"
                                 for st in model.exec_steps
                                 if f"fire_{j}_{st.sid}_{st.index}"
                                 in script.var_index) + ")"

    def status_with(extra):
        text = script.text.replace("(check-sat)", f"(assert {extra})\n(check-sat)")
        return run_solver(replace(script, text=text), solver_config()).status

    assert status_with(f"(not {fires(1)})") == "unsat"
    assert status_with(f"(and (not {fires(2)}) {fires(3)})") == "unsat"
    assert status_with(f"(not {fires(6)})") == "sat"
