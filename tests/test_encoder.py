import re
from dataclasses import replace
from fractions import Fraction

import pytest

from tspbmc.encoder import SmtScript, encode
from tspbmc.frontend import INTRUDER
from tspbmc.sexpr import render_value

from conftest import library_models, model_of, solver_config
from tspbmc.solver import run_solver


def test_bound_must_be_positive(lib):
    model = model_of(lib, "nspkt", "fair")
    with pytest.raises(ValueError):
        encode(model, 0)


def test_determinism(lib):
    # below the goal floor 5, on floor-1 copies: the full encoding
    model = replace(model_of(lib, "nspkt", "mitm1_lowe"), goal_floor=1)
    a = encode(model, 4).text
    b = encode(replace(model_of(lib, "nspkt", "mitm1_lowe"), goal_floor=1), 4).text
    assert a == b


def test_symbol_scheme_and_counts(lib):
    # cone: session 1's 3 steps; the floor-1 copy is encoded in full
    model = replace(model_of(lib, "nspkt", "fair"), goal_floor=1)
    script = encode(model, 3)
    assert script.steps == ((1, 1), (1, 2), (1, 3))
    # f, t and o per encoded step, and no counter at the step count
    assert script.var_index["f_1_1"] == "Bool"
    assert script.var_index["t_1_2"] == "Real"
    assert script.var_index["o_1_3"] == "Real"
    assert sorted({n.split("_")[0] for n in script.var_index}) == ["f", "o", "t"]
    assert len(script.var_index) == 3 * 3
    assert script.model_symbols == tuple(sorted(script.var_index))
    # below the step count, the counter's cells c_i_j for j <= min(i, n)
    below = encode(model, 2)
    assert sorted(n for n in below.var_index if n.startswith("c_")) == [
        "c_1_1", "c_2_1", "c_2_2"]
    assert below.model_symbols == script.model_symbols
    # derived from the steps: a script with none names no symbol
    assert SmtScript("(check-sat)\n", {"x": "Bool"}, (), 1).model_symbols == ()
    assert script.text.startswith("(set-logic QF_LRA)")
    assert script.text.rstrip().endswith("(check-sat)")


def test_fixed_section_order(lib):
    text = encode(replace(model_of(lib, "nspkt", "fair"), goal_floor=1), 2).text
    sections = [m for m in re.findall(r"^; (.+)$", text, re.M)]
    assert sections == ["declarations", "session order", "lifetimes", "gating",
                        "goal", "bound"]


def test_declarations_sorted(lib):
    text = encode(replace(model_of(lib, "nspkt", "fair"), goal_floor=1), 2).text
    names = re.findall(r"\(declare-const (\S+) ", text)
    assert names == sorted(names)


def test_gating_only_for_intruder_steps(lib):
    model = model_of(lib, "nspkt", "mitm1_lowe")
    text = encode(model, 6).text
    gating = text.split("; gating")[1].split("; goal")[0]
    gated_refs = {(st.sid, st.index) for st in model.exec_steps if st.gated}
    assert gated_refs == {(1, 2), (2, 1), (2, 3)}
    # (2,3) is outside the goal's cone: it has no symbols at all
    assert (2, 3) not in model.cone and "_2_3" not in text
    for st in model.exec_steps:
        assert (f"(=> f_{st.sid}_{st.index} " in gating) == (st.ref in gated_refs
                                                           & model.cone)


def test_goal_formula_disjunction_over_instances(lib):
    model = model_of(lib, "dsp", "key_compromise", k=2)
    assert model.goal_floor == 6  # both sessions complete
    text = encode(model, 7).text
    goal = text.split("; goal")[1]
    from tspbmc.terms import parse_term
    for sid in (1, 2):
        # Kab#sid's only support is the message of step (sid,2), S -> A
        kab = model.universe.id_of(parse_term(f"Kab#{sid}"))
        delivery = model.step_at(sid, 2)
        assert model.labels[kab] == ((model.universe.id_of(delivery.message),),)
        assert f"f_{sid}_2" in goal and f"f_{sid}_3" in goal


def test_lifetime_section(lib):
    model = replace(model_of(lib, "nspkt", "fair"), goal_floor=1)
    text = encode(model, 3).text
    lifetimes = text.split("; lifetimes")[1].split("; knowledge")[0]
    # Ta#1 used at (1,2), generated at (1,1), bound 10
    assert "(=> f_1_2 (<= t_1_2 (+ t_1_1 10.0)))" in lifetimes


def test_render_value_forms():
    assert render_value(Fraction(3)) == "3.0"
    assert render_value(Fraction(-3)) == "(- 3.0)"
    assert render_value(Fraction(7, 2)) == "(/ 7.0 2.0)"
    assert render_value(Fraction(-7, 2)) == "(- (/ 7.0 2.0))"


def test_bound_one_pigeonhole_unsat(lib):
    # completing a >1-step session within one transition is impossible
    model = replace(model_of(lib, "nspkt", "fair"), goal_floor=1)
    result = run_solver(encode(model, 1), solver_config())
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
        text = encode(replace(model, goal_floor=1), 4).text
        formulas = text.split("; gating")[1]
        return {(st.sid, st.index) for st in honest
                if re.search(rf"\bf_{st.sid}_{st.index}\b", formulas)}

    assert taps(models[True]) and not taps(models[False])


def test_bound_monotonicity_on_attack_instance(lib):
    # once sat, larger bounds stay sat: the bound only limits how many
    # steps fire, also past the exec-step count (6 here)
    model = model_of(lib, "nspkt", "mitm1_lowe")
    for n in (5, 6, 7):
        result = run_solver(encode(model, n), solver_config())
        assert result.status == "sat", n
    small = model_of(lib, "dsp", "key_compromise")  # 3 exec steps, attack at 3
    result = run_solver(encode(small, 4), solver_config())
    assert result.status == "sat"


def test_fired_steps_are_session_prefixes_and_counted(lib):
    # a step fires only after its session predecessor, and below the cone's
    # 5 steps at most n of them fire
    # attack at 5, the goal floor: the floor-1 copy is encoded in full
    model = replace(model_of(lib, "nspkt", "mitm1_lowe"), goal_floor=1)
    script = encode(model, 4)
    goal = script.text.split("; goal\n")[1].split("\n")[0]

    def status_with(extra):
        text = script.text.replace(goal, f"(assert {extra})")
        return run_solver(replace(script, text=text), solver_config()).status

    assert status_with("(and f_1_1 f_1_2 f_2_1 f_2_2)") == "sat"
    assert status_with("(and f_1_1 f_1_2 f_1_3 f_2_1 f_2_2)") == "unsat"
    assert status_with("(and f_1_2 (not f_1_1))") == "unsat"
    assert run_solver(script, solver_config()).status == "unsat"


def test_cap_script_grows_linearly_in_the_cone(lib):
    def cap_bytes(k):
        model = model_of(lib, "wmf", "replay_tight", k=k)
        assert len(model.cone) == len(model.exec_steps) == 3 * k
        return len(encode(model, 3 * k).text.encode())

    assert cap_bytes(8) <= 2.5 * cap_bytes(4)


def test_encoding_reads_the_gate_table_not_the_labels(lib):
    for model in library_models(lib, ks=(1, 2, 3, 4)):
        model = replace(model, goal_floor=1)  # every bound encoded in full
        bare = replace(model, labels=())
        for n in range(1, len(model.exec_steps) + 2):
            assert encode(bare, n) == encode(model, n)


def test_below_the_goal_floor_is_the_floor_script(lib):
    # no goal holds before position L, so a bound below it asks nothing of
    # the model; from L on the script is the full encoding
    floors = set()
    for model in library_models(lib, ks=(1, 2, 3, 4)):
        floor = model.goal_floor
        floors.add(floor)
        for n in range(1, floor):
            assert encode(model, n) == SmtScript(
                f"(set-logic QF_LRA)\n; bound {n} is below the goal floor {floor}\n"
                "(assert false)\n(check-sat)\n", {}, (), n)
        full = encode(model, floor)
        assert full == encode(replace(model, goal_floor=1), floor)
        assert full.steps and full.text.startswith("(set-logic QF_LRA)\n; declarations\n")
    assert min(floors) > 1
