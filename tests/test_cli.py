import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tspbmc import library
from tspbmc.cli import build_parser, main
from tspbmc.witness import parse_json

from conftest import ERROR_REPLY, ERROR_THEN_SAT, UNREADABLE, sat_then


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_no_attack(capsys):
    # nspkt fair has 3 exec steps: one unsat query at that cap decides it
    code, out, err = run(capsys, "check", "nspkt", "fair", "--max-bound", "6")
    assert code == 0
    assert out == ("no attack up to bound 3: "
                   "all runs of this 1-session scenario covered\n")
    assert [line.split(" (")[0] for line in err.splitlines()] == [
        "note: goal secret Tb#1 is not derivable from any message of this scenario",
        "bound 3: unsat",
    ]


def test_check_no_attack_below_step_count(capsys):
    code, out, _ = run(capsys, "check", "nspkt", "mitm1_lowe", "--max-bound", "2")
    assert code == 0
    assert out == "no attack up to bound 2\n"


def test_check_attack_text(capsys):
    code, out, _ = run(capsys, "check", "dsp", "key_compromise",
                       "--max-bound", "4")
    assert code == 10
    assert "attack found: DS_T/key_compromise k=1 at SMT bound 3" in out
    assert "Kab#1" in out  # rendered witness follows the verdict line


def test_check_attack_json_stdout_is_pure(capsys):
    code, out, err = run(capsys, "check", "wmf", "replay_generous",
                         "--format", "json")
    assert code == 10
    trace = parse_json(out)  # stdout must be exactly the JSON document
    assert trace.bound == 6
    assert "attack found" in err


def test_check_attack_html_out(capsys, tmp_path):
    target = tmp_path / "witness.html"
    code, out, _ = run(capsys, "check", "nspkt", "mitm1_lowe",
                       "--format", "html", "--out", str(target))
    assert code == 10
    assert f"witness written to {target}" in out
    assert "Tb#2" in target.read_text(encoding="utf-8")


def test_check_missing_inputs(capsys):
    code, _, err = run(capsys, "check", "no_such_protocol", "fair")
    assert code == 2 and "no such file or library entry" in err
    code, _, err = run(capsys, "check", "nspkt", "no_such_scenario")
    assert code == 2 and "no such file" in err


def test_check_inconclusive_on_tiny_timeout(capsys):
    code, _, err = run(capsys, "check", "wmf", "replay_generous",
                       "--solver", "sleep 60", "--timeout", "0.3",
                       "--max-bound", "1")
    assert code == 3
    assert "inconclusive" in err


def test_check_file_paths_accepted(capsys, tmp_path):
    run(capsys, "list", "--export", str(tmp_path))
    code, out, _ = run(
        capsys, "check", str(tmp_path / "nspkt" / "protocol.ab"),
        str(tmp_path / "nspkt" / "fair.json"), "--max-bound", "3")
    assert code == 0
    assert "no attack up to bound 3" in out


def test_encode_determinism_and_out(capsys, tmp_path):
    # bound 5 is mitm1_lowe's goal floor: the full encoding
    code, first, _ = run(capsys, "encode", "nspkt", "mitm1_lowe", "--bound", "5")
    assert code == 0
    _, second, _ = run(capsys, "encode", "nspkt", "mitm1_lowe", "--bound", "5")
    assert first == second
    assert first.startswith("(set-logic QF_LRA)")
    target = tmp_path / "problem.smt2"
    code, out, _ = run(capsys, "encode", "nspkt", "mitm1_lowe", "--bound", "5",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == first


def test_encode_below_the_goal_floor_prints_the_floor_script(capsys):
    # nspkt fair's goal is underivable: no goal holds before position 4
    code, out, _ = run(capsys, "encode", "nspkt", "fair", "--bound", "2")
    assert code == 0
    assert out == ("(set-logic QF_LRA)\n; bound 2 is below the goal floor 4\n"
                   "(assert false)\n(check-sat)\n")


def test_encode_rejects_bad_bound(capsys):
    code, _, err = run(capsys, "encode", "nspkt", "fair", "--bound", "0")
    assert code == 2 and "--bound" in err


def test_oracle_matches_check(capsys):
    code, out, _ = run(capsys, "oracle", "nspkt", "fair", "--depth", "8")
    assert code == 0 and "no attack up to depth 8" in out
    code, out, _ = run(capsys, "oracle", "nspkt", "mitm1_lowe")
    assert code == 10
    assert "attack found: NSPK_T/mitm1_lowe k=2 at oracle bound 5" in out


def test_list_and_export(capsys, tmp_path):
    code, out, _ = run(capsys, "list", "--export", str(tmp_path))
    assert code == 0
    for name in ("nspkt", "nspkt_lowe_fixed", "wmf", "dsp"):
        assert f"{name}: scenarios" in out
    assert "fair, mitm1_lowe" in out
    assert (tmp_path / "wmf" / "replay_tight.json").is_file()
    assert (tmp_path / "dsp" / "protocol.ab").is_file()


def test_library_get_reads_only_the_named_entry(monkeypatch):
    read = []
    real = library._read_entry
    monkeypatch.setattr(library, "_read_entry",
                        lambda item: read.append(item.name) or real(item))
    entry = library.get("wmf")
    assert read == ["wmf"]
    assert entry == library.entries()["wmf"]
    read.clear()
    for name in ("../library", "wmf/../dsp", "__pycache__", "", "WMF"):
        with pytest.raises(KeyError):
            library.get(name)
    assert set(read) <= {"__pycache__"}  # a directory without protocol.ab


def test_check_queries_the_cone_and_reports_the_cap(capsys):
    # nspkt fair at k=3: the goal's cone is session 1's 3 steps, so one
    # query at bound 3 covers all 9 steps' runs
    code, out, err = run(capsys, "check", "nspkt", "fair", "--sessions", "3")
    assert code == 0
    assert "bound 3: unsat" in err
    assert out == ("no attack up to bound 9: "
                   "all runs of this 3-session scenario covered\n")


def test_dump_model_prints_cone_and_goal_floor(capsys):
    code, out, _ = run(capsys, "dump-model", "nspkt", "mitm1_lowe")
    assert code == 0
    data = json.loads(out)
    assert data["cone"] == [
        {"sid": 1, "step": 1}, {"sid": 1, "step": 2}, {"sid": 1, "step": 3},
        {"sid": 2, "step": 1}, {"sid": 2, "step": 2}]
    assert data["goal_floor"] == 5


def test_dump_model_deterministic_json(capsys):
    code, first, _ = run(capsys, "dump-model", "wmf", "replay_generous")
    assert code == 0
    _, second, _ = run(capsys, "dump-model", "wmf", "replay_generous")
    assert first == second
    data = json.loads(first)
    assert data["protocol"] == "WMF_T"
    assert data["sessions"] == 2


def test_dump_model_prints_step_facts(capsys):
    code, out, _ = run(capsys, "dump-model", "wmf", "replay_generous")
    assert code == 0
    data = json.loads(out)
    assert "generation" not in data
    assert data["warnings"] == []
    steps = {(st["sid"], st["step"]): st for st in data["exec_steps"]}
    assert steps[(1, 1)]["generates"] == ["Ta#1", "Kab#1"]
    assert steps[(2, 1)]["generates"] == []  # the replay of session 1's message
    assert steps[(2, 1)]["lifetime_checks"] == [{"term": "Ta#1", "bound": "3", "gen": [1, 1]}]
    assert steps[(2, 2)]["lifetime_checks"] == [{"term": "Ta#1", "bound": "100", "gen": [1, 1]}]


@pytest.mark.parametrize("scenario, exit_code", [
    ("fair", 0), ("replay_generous", 10), ("replay_tight", 0)])
def test_check_wmf_warns_nothing(capsys, scenario, exit_code):
    # A decrypts step 3 with the Kab it generated at step 1
    code, _, err = run(capsys, "check", "wmf", scenario)
    assert code == exit_code
    assert "warning:" not in err


def test_check_warns_of_an_unreadable_cipher(capsys, tmp_path):
    (tmp_path / "p.ab").write_text(UNREADABLE, encoding="utf-8")
    (tmp_path / "s.json").write_text('{"name": "s", "overrides": []}', encoding="utf-8")
    code, _, err = run(capsys, "check", str(tmp_path / "p.ab"), str(tmp_path / "s.json"))
    assert code == 0
    assert err.splitlines()[0] == "warning: step (1,1): receiver B cannot decrypt <Kab#1,Na#1>"


def test_sessions_flag_overrides_scenario(capsys):
    code, first, _ = run(capsys, "dump-model", "nspkt", "fair",
                         "--sessions", "2")
    assert code == 0
    assert json.loads(first)["sessions"] == 2
    assert run(capsys, "check", "nspkt", "fair", "--sessions", "0") == (
        2, "", "error: session count must be >= 1\n")


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "--help")[0] == 0


UNDERIVABLE = "is not derivable from any message of this scenario"


@pytest.mark.parametrize("protocol, k, secrets", [
    ("nspkt", 1, ["Tb#1"]),
    ("nspkt", 2, ["Tb#1", "Tb#2"]),
    ("nspkt", 3, ["Tb#1", "Tb#2", "Tb#3"]),
    ("dsp", 1, ["Kab#1"]),
])
def test_check_notes_underivable_secret(capsys, protocol, k, secrets):
    code, out, err = run(capsys, "check", protocol, "fair", "--sessions", str(k))
    assert code == 0
    bound = 3 * k
    assert out == (f"no attack up to bound {bound}: "
                   f"all runs of this {k}-session scenario covered\n")
    notes = [line for line in err.splitlines() if line.startswith("note:")]
    assert notes == [f"note: goal secret {s} {UNDERIVABLE}" for s in secrets]


def test_check_attack_has_no_underivable_note(capsys):
    code, _, err = run(capsys, "check", "nspkt", "mitm1_lowe")
    assert code == 10
    assert UNDERIVABLE not in err


def test_check_label_over_cap_exits_2(capsys, monkeypatch):
    from tspbmc import model
    # nspkt mitm1_lowe has labels of two minimal root sets
    monkeypatch.setattr(model, "LABEL_CAP", 1)
    code, out, err = run(capsys, "check", "nspkt", "mitm1_lowe")
    assert code == 2
    assert out == ""
    assert err.startswith("error: intruder knowledge of ")
    assert "more than 1 minimal root supports" in err
    assert "Traceback" not in err


def _retime(**fields):
    return {"overrides": [{"sid": 1, "step": 1, "kind": "retime", **fields}]}


def _replace(**fields):
    return {"overrides": [{"sid": 1, "step": 1, "kind": "replace", **fields}]}


@pytest.mark.parametrize("protocol_edit, scenario_edit, needle", [
    (("A> delay 1", "A> delay x"), {}, "line 9: delay: bad rational 'x'"),
    (("Ta by A class nonce lifetime 10", "Ta by A class nonce lifetime ten"), {},
     "line 5: lifetime: bad rational 'ten'"),
    (("sid any", "sid two"), {}, "line 7: bad goal sid 'two'"),
    (None, {"sessions": "two"}, "'sessions'"),
    (None, {"sessions": None}, "'sessions'"),
    (None, {"overrides": 5}, "'overrides'"),
    (None, _retime(delay="x"), "override 0: bad rational 'x'"),
    (None, _retime(lifetime={"Ta": "x"}), "override 0: bad rational 'x'"),
    (None, _retime(lifetime={"Ta": 0}), "override 0: lifetime must be positive"),
    (None, _replace(edge=5, L="A"), "override 0:"),
    (None, _replace(edge="A->B", L=5), "override 0:"),
    (None, {"compromised": [5]}, "'compromised'"),
    (None, {"compromised": "KAB"}, "'compromised'"),
    (None, {"eavesdrop": "false"}, "'eavesdrop'"),
    (None, _retime(sid=1.5, delay=1), "override 0: bad or missing sid/step"),
    (None, _replace(edge="A->B", L="<KB," * 600 + "A" + ">" * 600),
     "override 0: bad term in L: term nested more than 256 levels deep"),
    (None, _replace(edge="A->B", L="|".join(["A"] * 3000)),
     "override 0: bad term in L: term nested more than 256 levels deep"),
    (None, _replace(edge="A->B", L="Zz"),
     "override message uses undeclared fresh atom 'Zz'"),
    (None, _replace(edge="A->B", L="<Ta,A>"),
     "override cipher key 'Ta' is not a declared session key"),
    (("name: NSPK_T", "name:"), {}, "line 3: empty name: line"),
    (None, {"name": 5}, "error: 'name' must be a non-empty string"),
    (None, {"name": ""}, "error: 'name' must be a non-empty string"),
    # (1,1) generates Ta#1, so a bound on Ta there would check nothing
    (None, _retime(lifetime={"Ta": 5}),
     "error: override (1,1): lifetime for 'Ta' is never checked: "
     "the step sends no Ta it does not generate"),
    (("roles: A B", "roles: AB"), {}, "line 4: bad role name 'AB' (single uppercase letter)"),
    (("roles: A B", "roles: A B A"), {}, "line 4: duplicate role 'A'"),
    (("Ta by A class nonce", "Ta by A"), {}, "line 5: bad fresh declaration"),
    (("fresh: Ta by", "fresh: ta by"), {}, "line 5: bad fresh-atom name 'ta'"),
    (("fresh: Ta by", "fresh: Tb by"), {}, "line 6: duplicate fresh declaration 'Tb'"),
    (("nonce lifetime 10", "nonce lifetime 0"), {},
     "line 5: lifetime must be positive or 'none'"),
    (("complete: 1", "complete: x"), {}, "line 8: bad session index in complete:"),
    (("step 1: A -> B", "step 1 A -> B"), {}, "line 9: bad step line"),
    (("<KB, Ta | A>", "<KB, Ta | >"), {}, "line 9: bad message term: expected an atom"),
    (("complete: 1", "frobnicate 1"), {}, "line 8: unrecognized line 'frobnicate 1'"),
    (("roles: A B\n", ""), {}, "error: missing roles:"),
    (("goal: secrecy Tb sid any\n", ""), {}, "error: missing goal:"),
    (("secrecy Tb sid any", "secrecy Tb"), {},
     "line 7: bad goal (expected: goal: secrecy <fresh> sid <n|any>)"),
    (("step 3: A -> B", "step 3: A -> C"), {}, "step 3: 'C' is not a declared role"),
    (("fresh: Ta by A", "fresh: Ta by C"), {}, "fresh 'Ta': owner 'C' is not a role"),
    (None, {"overrides": [5]}, "override 0: must be an object"),
    (None, _retime(delay=1, when=1), "override 0: unknown keys ['when']"),
    (None, _replace(edge="A-B", L="A"), "override 0: bad edge syntax 'A-B'"),
    (None, _replace(edge="A->A", L="A"), "override 0: edge sender and receiver must differ"),
    (None, _retime(edge="A->B", delay=1), "override 0: retime takes no 'edge' or 'L'"),
    (None, _retime(delay=-1), "override 0: negative delay"),
    (None, _retime(lifetime=5), "override 0: 'lifetime' must map fresh names to bounds"),
    (None, _replace(edge="A->C", L="A"), "override edge names undeclared agent 'C'"),
    (None, _retime(lifetime={"Zz": 5}), "lifetime override for undeclared fresh 'Zz'"),
])
def test_malformed_input_exits_2(capsys, tmp_path, protocol_edit, scenario_edit, needle):
    protocol = library.get("nspkt").protocol
    if protocol_edit:
        assert protocol_edit[0] in protocol
        protocol = protocol.replace(*protocol_edit, 1)
    (tmp_path / "p.ab").write_text(protocol, encoding="utf-8")
    scenario = {"name": "s", "sessions": 1, "overrides": [], **scenario_edit}
    (tmp_path / "s.json").write_text(json.dumps(scenario), encoding="utf-8")
    code, out, err = run(capsys, "oracle", str(tmp_path / "p.ab"), str(tmp_path / "s.json"))
    assert code == 2
    assert err.startswith("error:") and needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("protocol, scenario_edit, message", [
    ("nspkt", _replace(edge="A->I", L="Tb#1"),
     "step (1,1): A sends Tb#1 before it generates or receives it"),
    # session 2 generates Tb#2, and its steps need not fire in a witness
    ("nspkt", {"sessions": 2, **_replace(edge="A->I", L="Tb#2")},
     "step (1,1): A sends Tb#2 before it generates or receives it"),
    ("dsp", {"compromised": ["KAZ"]}, "compromised entry 'KAZ': 'Z' is not a declared role"),
    ("dsp", {"compromised": ["KZ"]}, "compromised entry 'KZ': 'Z' is not a declared role"),
    ("dsp", {"compromised": ["Kab#2"]},
     "compromised entry 'Kab#2' is not a declared session key of sessions 1..1"),
    ("dsp", {"compromised": ["Kab"]},
     "compromised entry 'Kab' is not a declared session key of sessions 1..1"),
    ("dsp", {"compromised": ["Tb"]},
     "compromised entry 'Tb' is not a declared session key of sessions 1..1"),
    # keys the intruder holds already: a public key, its own private key and
    # a key it shares with A
    ("dsp", {"compromised": ["KA"]},
     "compromised entry 'KA' is a key the intruder knows initially"),
    ("dsp", {"compromised": ["KI'"]},
     "compromised entry \"KI'\" is a key the intruder knows initially"),
    ("dsp", {"compromised": ["KAI"]},
     "compromised entry 'KAI' is a key the intruder knows initially"),
    ("dsp", {"compromised": ["KA|"]}, "compromised entry 'KA|': expected an atom (at offset 3)"),
])
def test_check_rejects_a_scenario_it_cannot_mean(capsys, tmp_path, protocol, scenario_edit,
                                                 message):
    scenario = {"name": "s", "sessions": 1, "overrides": [], **scenario_edit}
    (tmp_path / "s.json").write_text(json.dumps(scenario), encoding="utf-8")
    code, out, err = run(capsys, "check", protocol, str(tmp_path / "s.json"))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("protocol", ["wmf", "dsp"])
@pytest.mark.parametrize("command", [["check"], ["oracle"], ["encode", "--bound", "4"],
                                     ["dump-model"]])
def test_a_goal_that_holds_before_any_step_exits_2(capsys, tmp_path, protocol, command):
    # an empty complete: line requires no session, and the compromised key
    # is the goal secret: the goal holds at the start, so no bound can mean it
    text = library.get(protocol).protocol + "complete:\n"
    (tmp_path / "p.ab").write_text(text, encoding="utf-8")
    (tmp_path / "s.json").write_text(
        '{"name": "kc", "compromised": ["Kab#1"], "overrides": []}', encoding="utf-8")
    code, out, err = run(capsys, command[0], str(tmp_path / "p.ab"), str(tmp_path / "s.json"),
                         *command[1:])
    assert (code, out, err) == (2, "", "error: the goal holds before any step: the intruder "
                                "knows goal secret Kab#1 initially and no session must "
                                "complete\n")


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    for text, message in [
        ("[" * 100_000, "malformed JSON: nested too deeply"),
        ("[]", "scenario must be a JSON object"),
        ('{"name": "s", "overrides": [',
         "malformed JSON: Expecting value: line 1 column 29 (char 28)"),
    ]:
        (tmp_path / "s.json").write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "oracle", "nspkt", str(tmp_path / "s.json"))
        assert (code, out, err) == (2, "", f"error: {message}\n")


UNBALANCED = "solver command '\"': No closing quotation"


# explicit ids keep the first two cases' names stable
@pytest.mark.parametrize("option, env, message", [
    (["--solver", '"'], None, UNBALANCED),
    ([], '"', UNBALANCED),
    (["--solver", " "], None, "empty solver command"),
    ([], " ", "empty solver command"),
    (["--solver", ""], None, "empty solver command"),
], ids=["option0-None", 'option1-"', "blank-option", "blank-env", "empty-option"])
def test_unbalanced_solver_quote_exits_2(capsys, monkeypatch, option, env, message):
    if env is not None:
        monkeypatch.setenv("TSPBMC_SOLVER", env)
    code, out, err = run(capsys, "check", "nspkt", "fair", *option)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("timeout", ["nan", "inf", "1e12", "0", "-1"])
def test_unusable_timeout_exits_2(capsys, timeout):
    code, out, err = run(capsys, "check", "nspkt", "fair", "--timeout", timeout)
    assert code == 2
    assert err.startswith("error: timeout must be positive")
    assert "Traceback" not in err
    assert out == ""


# answers sat to every script, and false (or 0.0 for a time or an order) to
# every get-value symbol: no step fires
FALSE_MODEL = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    if 'check-sat' in line: print('sat', flush=True)\n"
    "    if line.startswith('(get-value'):\n"
    "        names = line.strip()[len('(get-value ('):-2].split()\n"
    "        print('(' + ' '.join('(%s %s)' % (n, '0.0' if n.startswith(('t_', 'o_')) "
    "else 'false') for n in names) + ')', flush=True)\n")


def test_model_that_is_not_a_run_exits_3(capsys):
    import shlex
    solver = shlex.join([sys.executable, "-c", FALSE_MODEL])
    code, out, err = run(capsys, "check", "nspkt", "fair", "--solver", solver)
    assert code == 3
    assert out == ""
    assert "bound 3: sat" in err
    assert ("inconclusive: solver model at bound 3 is not a run: position 0: goal: "
            "the run satisfies the goal at no position") in err
    assert "error:" not in err and "Traceback" not in err


def test_sat_model_that_breaks_session_order_exits_3(capsys, monkeypatch):
    import tspbmc.solver as solver
    from dataclasses import replace

    real = solver.run_solver

    def tampered(script, config):
        # (2,2) fires without (2,1), at position 2
        result = real(script, config)
        return replace(result, values={**result.values, "f_2_1": False})

    monkeypatch.setattr(solver, "run_solver", tampered)
    code, out, err = run(capsys, "check", "nspkt", "mitm1_lowe")
    assert code == 3
    assert out == ""
    # the bound loop stops at the first model, before asking at g - 1
    assert [line.split(" (")[0] for line in err.splitlines()] == [
        "bound 5: sat",
        "inconclusive: solver model at bound 5 is not a run: position 2: session "
        "order: session 2 expects step 1, got 2"]


def test_error_reply_before_sat_exits_3(capsys):
    import shlex
    solver = shlex.join([sys.executable, "-c", ERROR_THEN_SAT])
    code, out, err = run(capsys, "check", "nspkt", "fair", "--solver", solver)
    assert (code, out) == (3, "")
    assert err.splitlines()[-1] == f"inconclusive: solver returned error at bound 3: {ERROR_REPLY}"
    assert "Traceback" not in err


@pytest.mark.parametrize("reply, message", [
    (None, "solver closed its output before get-value"),
    ("((f_1_1))", "malformed model binding: ['f_1_1']"),
    ("()", "model is missing symbols: ['f_1_1', 'f_1_2', 'f_1_3', 'f_2_1', 'f_2_2']"),
    ("(((f_1_1) true))", "malformed model binding: [['f_1_1'], 'true']"),
], ids=["closed", "malformed", "missing", "name-not-a-symbol"])
def test_a_bad_get_value_reply_exits_3(capsys, reply, message):
    import shlex
    solver = shlex.join([sys.executable, "-c", sat_then(reply)])
    code, out, err = run(capsys, "check", "nspkt", "mitm1_lowe", "--sessions", "2",
                         "--solver", solver)
    assert (code, out) == (3, "")
    assert err.splitlines()[-1] == f"inconclusive: solver returned error at bound 5: {message}"
    assert "Traceback" not in err


def test_a_witness_that_fails_replay_exits_3(capsys, monkeypatch):
    from tspbmc import cli
    from tspbmc.witness import ReplayViolation
    monkeypatch.setattr(cli, "replay", lambda trace, model: ReplayViolation("gating", 2, "x"))
    code, out, err = run(capsys, "check", "nspkt", "mitm1_lowe", "--sessions", "2")
    assert (code, out) == (3, "")
    assert err.splitlines()[-1] == (
        "internal error: SMT witness failed replay at position 2: gating: x")


def test_an_oracle_out_of_memory_exits_3(capsys, monkeypatch):
    from tspbmc import cli

    def explicit_reach(model, depth):
        raise MemoryError

    monkeypatch.setattr(cli, "explicit_reach", explicit_reach)
    code, out, err = run(capsys, "oracle", "dsp", "key_compromise", "--sessions", "4")
    assert (code, out) == (3, "")
    assert err == "inconclusive: oracle ran out of memory\n"


@pytest.mark.parametrize("command", [["check"], ["encode", "--bound", "4"], ["dump-model"]])
def test_a_command_out_of_memory_exits_3(capsys, monkeypatch, command):
    from tspbmc import cli

    def build_model(spec, scenario, k):
        raise MemoryError

    monkeypatch.setattr(cli, "build_model", build_model)
    code, out, err = run(capsys, command[0], "nspkt", "fair", *command[1:])
    assert (code, out, err) == (3, "", f"inconclusive: {command[0]} ran out of memory\n")


@pytest.mark.parametrize("command, origin", [("check", "SMT"), ("oracle", "oracle")])
@pytest.mark.parametrize("fmt", ["text", "json", "html"])
def test_output_routing(capsys, tmp_path, command, origin, fmt):
    # the artifact goes to --out when it is given, else to stdout after the
    # verdict line; json keeps stdout for the document alone
    argv = [command, "nspkt", "mitm1_lowe", "--sessions", "2", "--format", fmt]
    verdict = f"attack found: NSPK_T/mitm1_lowe k=2 at {origin} bound 5\n"
    code, out, err = run(capsys, *argv)
    assert code == 10
    if fmt == "json":
        artifact = out
        assert err.endswith(verdict)
        parse_json(artifact)
    else:
        assert out.startswith(verdict) and verdict not in err
        artifact = out[len(verdict):]
    assert artifact
    target = tmp_path / f"witness.{fmt}"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 10
    written = f"witness written to {target}\n"
    if fmt == "json":
        assert out == verdict
        assert err.endswith(written)
    else:
        assert out == verdict + written
    assert target.read_bytes() == artifact.encode("utf-8")


@pytest.mark.parametrize("command", ["check", "oracle"])
def test_an_unwritable_out_prints_no_verdict(capsys, tmp_path, command):
    code, out, err = run(capsys, command, "nspkt", "mitm1_lowe", "--sessions", "2",
                         "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert "attack found" not in err
    assert err.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("bad", ["protocol", "scenario"])
def test_non_utf8_input_exits_2(capsys, tmp_path, bad):
    entry = library.get("nspkt")
    files = {"protocol": tmp_path / "p.ab", "scenario": tmp_path / "s.json"}
    files["protocol"].write_text(entry.protocol, encoding="utf-8")
    files["scenario"].write_text(entry.scenarios["fair"], encoding="utf-8")
    files[bad].write_bytes(files[bad].read_bytes() + b"\xff")
    code, out, err = run(capsys, "check", str(files["protocol"]), str(files["scenario"]))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad} '{files[bad]}': not UTF-8 text")
    assert "Traceback" not in err


# ---- start-up: what a command imports ------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh(code: str, *args) -> subprocess.CompletedProcess:
    """``code`` run in a fresh interpreter that imports the package."""
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)


def run_fresh(code: str, *args) -> str:
    """Stdout of ``code``, which must exit 0, run in a fresh interpreter."""
    proc = fresh(code, *args)
    proc.check_returncode()
    return proc.stdout


# runs main(argv) and prints, on its last line, the package's loaded modules
# and whether dataclasses is loaded
LOADED = ("import sys; from tspbmc.cli import main; main(sys.argv[1:]); "
          "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'tspbmc'), "
          "'dataclasses' in sys.modules)")
FRONT = ["tspbmc", "tspbmc.cli", "tspbmc.errors", "tspbmc.library"]


@pytest.mark.parametrize("argv", [["list"], ["--help"], ["check"]],
                         ids=["list", "help", "usage-error"])
def test_list_help_and_usage_errors_load_no_pipeline_layer(argv):
    *modules, dataclasses = run_fresh(LOADED, *argv).splitlines()[-1].split()
    assert modules == FRONT
    assert dataclasses == "False"


# each command's exit code, then its output, in one interpreter
EXITS = ("import sys; from tspbmc.cli import main\n"
         "for argv in sys.argv[1:]:\n"
         "    print('exit', main(argv.split()), flush=True)\n")
HASH_ORDER = ["dump-model wmf replay_generous --sessions 2",
              "check wmf replay_generous --sessions 2 --format json",
              "dump-model nspkt fair --sessions 3",
              "check nspkt fair --sessions 3 --format json"]


def test_output_does_not_follow_hash_order():
    # terms hash by identity, so set iteration order differs between
    # processes even under one PYTHONHASHSEED; no output may follow it
    runs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", EXITS, *HASH_ORDER], capture_output=True,
            text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed))
        proc.check_returncode()
        runs.append((proc.stdout, re.sub(r" \(\d+\.\d+s\)", "", proc.stderr)))
    assert runs[0] == runs[1]
    assert re.findall(r"^exit (\d+)$", runs[0][0], re.M) == ["0", "10", "0", "0"]
    assert re.findall(r"^bound \d+: .*$", runs[0][1], re.M) == ["bound 6: sat",
                                                                "bound 3: unsat"]


def test_check_loads_the_pipeline():
    *modules, _ = run_fresh(LOADED, "check", "nspkt", "fair", "--sessions", "1"
                            ).splitlines()[-1].split()
    layers = ["dbm", "encoder", "frontend", "model", "oracle", "sexpr", "solver",
              "terms", "witness"]
    assert modules == sorted(FRONT + [f"tspbmc.{m}" for m in layers])


# the names the benchmark's tracer wraps in tspbmc.cli, and their modules
TRACED = {"parse_protocol": "frontend", "parse_scenario": "frontend",
          "build_model": "model", "iterate_bounds": "solver", "encode": "encoder",
          "decode": "encoder", "replay": "witness", "explicit_reach": "oracle"}

CONTRACT = """
import importlib, sys
import tspbmc.cli as cli
from tspbmc.errors import ModelError
facts = {"model loaded before lookup": "tspbmc.model" in sys.modules}
for name, module in (arg.split(":") for arg in sys.argv[1:]):
    defining = importlib.import_module("tspbmc." + module)
    facts[name] = getattr(cli, name) is getattr(defining, name)
witness = importlib.import_module("tspbmc.witness")
facts["_RENDERERS"] = cli._RENDERERS == {
    "text": witness.render_text, "json": witness.render_json,
    "html": witness.render_html}
del cli.decode
facts["decode after del"] = hasattr(cli, "decode")
calls = []
def build_model(*args, **kwargs):
    calls.append(args)
    raise ModelError("patched")
cli.build_model = build_model
facts["check exit"] = cli.main(["check", "nspkt", "fair"])
facts["patched calls"] = len(calls)
print(facts)
"""


def test_traced_names_are_module_attributes_bound_on_first_lookup():
    facts = ast.literal_eval(run_fresh(
        CONTRACT, *(f"{name}:{module}" for name, module in TRACED.items())))
    assert facts == {
        "model loaded before lookup": False,
        **{name: True for name in TRACED},
        "_RENDERERS": True,
        "decode after del": False,
        "check exit": 2,
        "patched calls": 1,
    }


# ---- one parser per process ----------------------------------------------------

MAIN = "import sys; from tspbmc.cli import main; sys.exit(main(sys.argv[1:]))"


def without_timings(err: str) -> str:
    return re.sub(r"\(\d+\.\d+s\)", "(s)", err)


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch, tmp_path):
    # each call's answer equals a fresh process's, so no default or option of
    # an earlier call reaches a later one through the shared parser
    assert build_parser() is build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the same width in both
    witness = tmp_path / "attack.json"
    sequence = [
        ["check"],
        ["--help"],
        ["check", "nspkt", "mitm1_lowe", "--sessions", "2", "--format", "json",
         "--out", str(witness)],
        ["check", "nspkt", "fair"],
        ["check", "nspkt", "fair", "--sessions", "2"],
        ["oracle", "nspkt", "mitm1_lowe", "--sessions", "2"],
    ]
    in_process = []
    for argv in sequence:
        code, out, err = run(capsys, *argv)
        in_process.append((code, out, without_timings(err)))
    written = witness.read_text(encoding="utf-8")
    assert [code for code, _, _ in in_process] == [2, 0, 10, 0, 0, 10]
    assert in_process[0][2].startswith("usage: tspbmc check")
    for argv, answer in zip(sequence, in_process):
        proc = fresh(MAIN, *argv)
        assert (proc.returncode, proc.stdout, without_timings(proc.stderr)) == answer, argv
    assert witness.read_text(encoding="utf-8") == written
