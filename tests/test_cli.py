import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tspbmc import library
from tspbmc.cli import main
from tspbmc.witness import parse_json

from conftest import UNREADABLE


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
    code, first, _ = run(capsys, "encode", "nspkt", "fair", "--bound", "3")
    assert code == 0
    _, second, _ = run(capsys, "encode", "nspkt", "fair", "--bound", "3")
    assert first == second
    assert first.startswith("(set-logic QF_LRA)")
    target = tmp_path / "problem.smt2"
    code, out, _ = run(capsys, "encode", "nspkt", "fair", "--bound", "3",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == first


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
        {"sid": 1, "step": 1, "earliest": 1}, {"sid": 1, "step": 2, "earliest": 4},
        {"sid": 1, "step": 3, "earliest": 5}, {"sid": 2, "step": 1, "earliest": 2},
        {"sid": 2, "step": 2, "earliest": 3}]
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
])
def test_check_rejects_a_scenario_it_cannot_mean(capsys, tmp_path, protocol, scenario_edit,
                                                 message):
    scenario = {"name": "s", "sessions": 1, "overrides": [], **scenario_edit}
    (tmp_path / "s.json").write_text(json.dumps(scenario), encoding="utf-8")
    code, out, err = run(capsys, "check", protocol, str(tmp_path / "s.json"))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    (tmp_path / "s.json").write_text("[" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "oracle", "nspkt", str(tmp_path / "s.json"))
    assert code == 2
    assert err == "error: malformed JSON: nested too deeply\n"
    assert out == ""


@pytest.mark.parametrize("option, env", [(["--solver", '"'], None), ([], '"')])
def test_unbalanced_solver_quote_exits_2(capsys, monkeypatch, option, env):
    if env is not None:
        monkeypatch.setenv("TSPBMC_SOLVER", env)
    code, out, err = run(capsys, "check", "nspkt", "fair", *option)
    assert code == 2
    assert err.startswith("error: solver command '\"': No closing quotation")
    assert "Traceback" not in err


@pytest.mark.parametrize("timeout", ["nan", "inf", "1e12", "0", "-1"])
def test_unusable_timeout_exits_2(capsys, timeout):
    code, out, err = run(capsys, "check", "nspkt", "fair", "--timeout", timeout)
    assert code == 2
    assert err.startswith("error: timeout must be positive")
    assert "Traceback" not in err
    assert out == ""


# answers sat to every script, and false (or 0.0 for a position time) to
# every get-value symbol: no step fires at position 1
FALSE_MODEL = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    if 'check-sat' in line: print('sat', flush=True)\n"
    "    if line.startswith('(get-value'):\n"
    "        names = line.strip()[len('(get-value ('):-2].split()\n"
    "        print('(' + ' '.join('(%s %s)' % (n, '0.0' if n.startswith('tau_') "
    "else 'false') for n in names) + ')', flush=True)\n")


def test_model_that_is_not_a_run_exits_3(capsys):
    import shlex
    solver = shlex.join([sys.executable, "-c", FALSE_MODEL])
    code, out, err = run(capsys, "check", "nspkt", "fair", "--solver", solver)
    assert code == 3
    assert out == ""
    assert "bound 3: sat" in err
    assert "inconclusive: solver model at bound 3 is not a run: position 1:" in err
    assert "error:" not in err and "Traceback" not in err


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


def run_fresh(code: str, *args) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports the package."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120, check=True)
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


def test_check_loads_the_pipeline():
    *modules, _ = run_fresh(LOADED, "check", "nspkt", "fair", "--sessions", "1"
                            ).splitlines()[-1].split()
    layers = ["dbm", "encoder", "frontend", "model", "oracle", "sexpr", "solver",
              "terms", "witness"]
    assert modules == sorted(FRONT + [f"tspbmc.{m}" for m in layers])


# the names the benchmark's tracer wraps in tspbmc.cli, and their modules
TRACED = {"parse_protocol": "frontend", "parse_scenario": "frontend",
          "build_model": "model", "iterate_bounds": "solver", "encode": "encoder",
          "decode": "witness", "replay": "witness", "explicit_reach": "oracle"}

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
