import contextlib
import io
import json
import os
import random
import re
import shlex
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import tspbmc
from tspbmc import cli
from tspbmc.encoder import SmtScript, decode, encode
from tspbmc.errors import SolverError
from tspbmc.frontend import parse_protocol, parse_scenario
from tspbmc.model import build_model
from tspbmc.oracle import explicit_reach
from tspbmc.solver import (
    SolverConfig,
    Verdict,
    close_idle,
    default_max_bound,
    iterate_bounds,
    resolve_solver_command,
    run_solver,
)

from tspbmc.terms import Cipher
from tspbmc.witness import replay

from conftest import (BUNDLED, ERROR_REPLY, ERROR_THEN_SAT, library_models, model_of,
                      replay_chain, sat_then, solver_config)


def script_of(text: str, names: dict) -> SmtScript:
    return SmtScript(text, names, (), 1)


def test_run_solver_trivial_sat():
    script = script_of(
        "(set-logic QF_LRA)(declare-const x Bool)(assert x)(check-sat)\n",
        {"x": "Bool"})
    result = run_solver(script, solver_config())
    assert result.status == "sat"
    assert result.values == {"x": True}


def test_run_solver_trivial_unsat():
    script = script_of(
        "(declare-const x Bool)(assert (and x (not x)))(check-sat)\n",
        {"x": "Bool"})
    result = run_solver(script, solver_config())
    assert result.status == "unsat"
    assert result.values == {}


def test_run_solver_missing_binary():
    with pytest.raises(SolverError):
        run_solver(script_of("(check-sat)\n", {}),
                   solver_config(command=("/nonexistent/solver-xyz",)))


def test_run_solver_timeout():
    cfg = solver_config(command=(sys.executable, "-c", "import time; time.sleep(60)"),
                        timeout=0.5)
    result = run_solver(script_of("(check-sat)\n", {}), cfg)
    assert result.status == "timeout"


def test_run_solver_garbage_output():
    cfg = solver_config(command=(sys.executable, "-c", "print('hello'); exit()"))
    result = run_solver(script_of("(check-sat)\n", {}), cfg)
    assert result.status == "error"


GET_VALUE_ERROR = "line 1 column 2: invalid command, '(' expected"


def test_run_solver_error_reply_to_get_value():
    # the '(' inside the string literal opens no expression: the driver
    # reads the reply whole instead of waiting for a closing ')'
    reply = f'(error "{GET_VALUE_ERROR}")'
    fake = ("import sys\n"
            "for line in sys.stdin:\n"
            "    if 'check-sat' in line: print('sat', flush=True)\n"
            f"    if 'get-value' in line: print({reply!r}, flush=True)\n")
    cfg = solver_config(command=(sys.executable, "-c", fake), timeout=20.0)
    script = script_of("(declare-const x Bool)(check-sat)\n", {"x": "Bool"})
    result = run_solver(script, cfg)
    assert result.status == "error"
    assert GET_VALUE_ERROR in result.solver_stderr
    assert result.elapsed < 10.0


def test_first_reply_that_is_not_an_answer_is_an_error():
    cfg = solver_config(command=(sys.executable, "-c", ERROR_THEN_SAT), timeout=20.0)
    script = script_of("(declare-const x Bool)\n(assert (= x x))\n(check-sat)\n",
                       {"x": "Bool"})
    result = run_solver(script, cfg)
    assert (result.status, result.values) == ("error", {})
    assert result.solver_stderr.splitlines()[0] == ERROR_REPLY


@pytest.mark.parametrize("value", ["(/ 1.0 0.0)", "(- " * 5000 + "1.0" + ")" * 5000],
                         ids=["zero-divisor", "nested-5000-deep"])
def test_an_undecodable_value_is_a_solver_error(capsys, value):
    cfg = solver_config(command=(sys.executable, "-c", sat_then(f"((x {value}))")),
                        timeout=20.0)
    script = script_of("(declare-const x Real)(check-sat)\n", {"x": "Real"})
    result = run_solver(script, cfg)
    assert (result.status, result.values) == ("error", {})
    code = cli.main(["check", "nspkt", "mitm1_lowe", "--solver", shlex.join(cfg.command)])
    out, err = capsys.readouterr()
    assert (code, out) == (cli.EXIT_INCONCLUSIVE, "")
    assert err.splitlines()[-1].startswith("inconclusive: solver returned error at bound 5: ")
    assert "Traceback" not in err


def test_the_fallback_solver_runs_from_another_directory(tmp_path, monkeypatch, capsys):
    # a relative PYTHONPATH entry names nothing after a chdir: the bundled
    # solver is started with this package's directory on its path
    src = Path(tspbmc.__file__).resolve().parent.parent
    monkeypatch.setenv("PYTHONPATH", os.path.relpath(src))
    monkeypatch.delenv("TSPBMC_SOLVER", raising=False)
    monkeypatch.setattr("shutil.which", lambda name: None)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["check", "nspkt", "fair"]) == cli.EXIT_NO_ATTACK
    close_idle()


def test_config_validation():
    with pytest.raises(SolverError):
        SolverConfig(BUNDLED, timeout=0)
    with pytest.raises(SolverError):
        SolverConfig(BUNDLED, max_bound=0)
    with pytest.raises(SolverError, match="^empty solver command$"):
        SolverConfig(command=())


def test_resolve_solver_command(monkeypatch):
    assert resolve_solver_command("mysolver --flag") == ("mysolver", "--flag")
    monkeypatch.setenv("TSPBMC_SOLVER", "envsolver -in")
    assert resolve_solver_command() == ("envsolver", "-in")
    monkeypatch.delenv("TSPBMC_SOLVER")
    monkeypatch.setattr("shutil.which", lambda name: None)
    assert resolve_solver_command() == BUNDLED
    monkeypatch.setattr("shutil.which",
                        lambda name: "/usr/bin/z3" if name == "z3" else None)
    assert resolve_solver_command() == ("/usr/bin/z3", "-in")


def test_iterate_bounds_no_attack(lib):
    model = model_of(lib, "nspkt", "fair")
    verdict = iterate_bounds(model, config=solver_config(max_bound=6))
    assert verdict.outcome == "no-attack-up-to"
    assert verdict.bound == 3  # capped at the exec-step count
    assert [(b, s) for b, s, _ in verdict.per_bound_log] == [(3, "unsat")]


def test_iterate_bounds_attack_is_minimal(lib):
    model = model_of(lib, "nspkt", "mitm1_lowe")
    verdict = iterate_bounds(model, config=solver_config(max_bound=8))
    assert verdict.outcome == "attack-found"
    assert verdict.bound == 5
    log = [(b, s) for b, s, _ in verdict.per_bound_log]
    assert log[0][0] == len(model.cone) == 5  # below the cap, the step count 6
    # the attack is at the goal floor, so no bound below it is asked
    assert model.goal_floor == 5 and log == [(5, "sat")]
    sat_bound = log[-1][0]
    names = list(encode(model, sat_bound).model_symbols)
    assert names == sorted(f"{kind}_{sid}_{i}" for kind in "fto"
                           for sid, i in model.cone)
    assert sorted(verdict.result.values) == names  # sat carries what decode reads


def test_iterate_bounds_inconclusive_propagates(lib):
    model = model_of(lib, "nspkt", "fair")
    cfg = solver_config(command=(sys.executable, "-c", "import time; time.sleep(60)"),
                        timeout=0.5, max_bound=2)
    verdict = iterate_bounds(model, config=cfg)
    assert verdict.outcome == "inconclusive"
    assert "timeout" in verdict.reason


def test_default_max_bound(lib):
    assert default_max_bound(model_of(lib, "nspkt", "fair")) == 3
    assert default_max_bound(model_of(lib, "nspkt", "mitm1_lowe")) == 6


def test_run_solver_drains_stderr():
    # 300 KiB of stderr before the answer fills any pipe buffer: reading
    # stderr only after the child exits would stall until the timeout
    fake = ("import sys; sys.stderr.write('x' * 300 * 1024); sys.stderr.flush(); "
            "print('unsat', flush=True); sys.stdin.read()")
    cfg = solver_config(command=(sys.executable, "-c", fake), timeout=20.0)
    result = run_solver(script_of("(check-sat)\n", {}), cfg)
    assert result.status == "unsat"
    assert result.elapsed < 20.0


def pid_logging(pidfile, body: str) -> tuple:
    """A solver command that appends its pid to ``pidfile``, then runs ``body``."""
    log = (f"import os; f = open({str(pidfile)!r}, 'a'); "
           "f.write(f'{os.getpid()}\\n'); f.close(); ")
    return (sys.executable, "-c", log + body)


def spawned(pidfile) -> list:
    return [int(p) for p in pidfile.read_text().split()] if pidfile.exists() else []


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_close_kills_a_child_that_stops_reading(tmp_path):
    # the child answers, then sleeps without reading stdin: the query parks
    # it, and closing the parked child kills and reaps it at once
    pidfile = tmp_path / "pids"
    body = "print('unsat', flush=True); import time; time.sleep(60)"
    cfg = solver_config(command=pid_logging(pidfile, body), timeout=20.0)
    start = time.monotonic()
    result = run_solver(script_of("(check-sat)\n", {}), cfg)
    assert result.status == "unsat"
    close_idle()
    assert time.monotonic() - start < 2.0
    pids = spawned(pidfile)
    assert len(pids) == 1
    assert_reaped(pids)


SMTLITE_BODY = "import sys; from tspbmc.smtlite import main; sys.exit(main())"


@pytest.mark.parametrize("scenario, outcome, bound", [
    ("fair", "no-attack-up-to", 3),
    ("mitm1_lowe", "attack-found", 5),
])
def test_iterate_bounds_spawns_one_child(lib, tmp_path, scenario, outcome, bound):
    pidfile = tmp_path / "pids"
    model = model_of(lib, "nspkt", scenario)
    cfg = solver_config(command=pid_logging(pidfile, SMTLITE_BODY))
    verdict = iterate_bounds(model, config=cfg)
    assert (verdict.outcome, verdict.bound) == (outcome, bound)
    queried = [b for b, _, _ in verdict.per_bound_log]
    assert queried[0] == min(default_max_bound(model), len(model.cone))
    assert queried == sorted(set(queried), reverse=True)
    pids = spawned(pidfile)
    assert len(pids) == 1
    close_idle()
    assert_reaped(pids)


@pytest.mark.parametrize("body, status", [
    ("import time; time.sleep(60)", "timeout"),
    ("print('hello'); exit()", "error"),
])
def test_iterate_bounds_kills_failed_child(lib, tmp_path, body, status):
    pidfile = tmp_path / "pids"
    model = model_of(lib, "nspkt", "fair")
    cfg = solver_config(command=pid_logging(pidfile, body), timeout=2.0)
    verdict = iterate_bounds(model, config=cfg)
    assert verdict.outcome == "inconclusive"
    assert verdict.result.status == status
    assert [b for b, _, _ in verdict.per_bound_log] == [3]  # the cap
    pids = spawned(pidfile)
    assert len(pids) == 1
    assert_reaped(pids)


def test_iterate_bounds_timeout_below_a_found_attack(lib):
    # the child answers the first script, then stalls on the next one
    stall = ("import sys, time, types; from tspbmc.smtlite import main; "
             "src = sys.stdin; sys.stdin = types.SimpleNamespace(readline=lambda: "
             "(lambda line: time.sleep(60) if line.startswith('(reset)') else line)"
             "(src.readline())); sys.exit(main())")
    # a goal floor of 1 proves nothing, so the loop asks below the attack
    model = replace(model_of(lib, "nspkt", "mitm1_lowe"), goal_floor=1)
    cfg = solver_config(command=(sys.executable, "-c", stall), timeout=3.0)
    verdict = iterate_bounds(model, config=cfg)
    (cone, first), (below, second) = [(b, s) for b, s, _ in verdict.per_bound_log]
    assert (cone, first, second) == (5, "sat", "timeout")
    assert (verdict.outcome, verdict.bound) == ("inconclusive", below)
    assert f"an attack exists within bound {below + 1}" in verdict.reason


@pytest.mark.parametrize("scenario", ["fair", "mitm1_lowe"])
def test_bound_above_step_count_adds_nothing(lib, scenario):
    # each exec step fires at most once, so a bound past the step count
    # limits nothing: it decides the same as the step count, also on the
    # floor-1 copy, where a step count below the goal floor is encoded in full
    model = model_of(lib, "nspkt", scenario)
    steps = len(model.exec_steps)
    for encoded in (model, replace(model, goal_floor=1)):
        statuses = [run_solver(encode(encoded, n), solver_config()).status
                    for n in (steps, steps + 1)]
        assert statuses[0] == statuses[1]
        assert statuses[0] == ("sat" if scenario == "mitm1_lowe" else "unsat")


def stdin_logging(logfile, per_pid=False) -> str:
    """A solver body that copies every line it reads to ``logfile`` (with
    ``.<pid>`` appended if ``per_pid``), then answers as the bundled solver."""
    path = repr(str(logfile)) + (" + f'.{os.getpid()}'" if per_pid else "")
    return ("import os, sys, types; from tspbmc.smtlite import main; "
            f"log = open({path}, 'a'); src = sys.stdin; "
            "sys.stdin = types.SimpleNamespace(readline=lambda: "
            "(lambda line: (log.write(line), log.flush(), line)[2])(src.readline())); "
            "sys.exit(main())")


def test_get_value_requests_only_decoded_symbols(lib, tmp_path):
    pidfile, logfile = tmp_path / "pids", tmp_path / "stdin"
    model = model_of(lib, "nspkt", "mitm1_lowe", k=2)
    cfg = solver_config(command=pid_logging(pidfile, stdin_logging(logfile)))
    verdict = iterate_bounds(model, config=cfg)
    assert (verdict.outcome, verdict.bound) == ("attack-found", 5)
    assert len(spawned(pidfile)) == 1
    requests = [line for line in logfile.read_text().splitlines()
                if line.startswith("(get-value")]
    sat_bounds = [b for b, s, _ in verdict.per_bound_log if s == "sat"]
    assert len(requests) == len(sat_bounds) >= 1  # one request per sat query
    for request, bound in zip(requests, sat_bounds):
        names = request[len("(get-value ("):-len("))")].split()
        assert names == list(encode(model, bound).model_symbols)
        # the f, t and o symbols of the encoded steps, and no counter cell
        assert names == sorted(f"{kind}_{sid}_{i}" for kind in "fto"
                               for sid, i in model.cone)
    trace = decode(verdict.result, encode(model, 5), model)
    assert replay(trace, model) is None


def sent_scripts(logfile) -> list:
    """The scripts in a stdin log, without the get-value requests."""
    return [re.sub(r"\(get-value .*\n", "", text).lstrip("\n")
            for text in logfile.read_text().split("(reset)")]


@pytest.mark.parametrize("protocol, scenario, k", [
    ("nspkt", "mitm1_lowe", 2),
    ("wmf", "replay_generous", None),
    ("dsp", "key_compromise", 2),
])
def test_queried_bounds_descend_to_below_oracle_depth(lib, tmp_path, protocol,
                                                      scenario, k):
    logfile = tmp_path / "stdin"
    model = model_of(lib, protocol, scenario, k=k)
    oracle = explicit_reach(model, depth=default_max_bound(model))
    assert oracle.outcome == "attack-found" and oracle.depth > 1
    # the first query is at min(cap, |cone|), and the last one is unsat at
    # g - 1 or sat at g = L; with a goal floor of 1 it is always unsat at g - 1
    for floor in (model.goal_floor, 1):
        logfile.unlink(missing_ok=True)
        cfg = solver_config(command=(sys.executable, "-c", stdin_logging(logfile)))
        floored = replace(model, goal_floor=floor)
        verdict = iterate_bounds(floored, config=cfg)
        close_idle()  # the next floor's child logs to a new file
        assert (verdict.outcome, verdict.bound) == ("attack-found", oracle.depth)
        queried = [b for b, _, _ in verdict.per_bound_log]
        assert sent_scripts(logfile) == [encode(floored, b).text
                                         for b in queried]
        assert queried[0] == min(default_max_bound(model), len(model.cone))
        assert all(a > b for a, b in zip(queried, queried[1:]))
        last = verdict.per_bound_log[-1][:2]
        assert last == (oracle.depth - 1, "unsat") or (
            last[1] == "sat" and oracle.depth == floor)
    assert verdict.per_bound_log[-1][:2] == (oracle.depth - 1, "unsat")


def stranded_model(lib):
    """dsp at k=2 with only session 1 required to complete, and session 2's
    last step retimed past its timestamp's lifetime: at most 5 of the 6
    exec steps can fire in any run, while the attack needs 3."""
    protocol = lib["dsp"].protocol.replace(
        "goal: secrecy Kab sid any", "goal: secrecy Kab sid any\ncomplete: 1")
    scenario = json.dumps({
        "name": "stranded", "sessions": 2, "compromised": ["KAS"],
        "overrides": [{"sid": 2, "step": 3, "kind": "retime", "delay": 10}]})
    return build_model(parse_protocol(protocol), parse_scenario(scenario))


def test_bound_n_is_sat_iff_oracle_attack_within_n(lib):
    # the idle-suffix encoding is exact: the bound-n script is sat iff some
    # run of at most n transitions reaches the goal, also where no run
    # fires every exec step and past the step count. On the floor-1 copy
    # every bound is encoded in full; on the model itself a bound below the
    # goal floor is the floor script, which checks the floor against the oracle
    models = list(library_models(lib)) + [stranded_model(lib)]
    assert len(models) >= 13
    for model in models:
        steps = default_max_bound(model)
        for n in range(1, steps + 2):
            oracle = explicit_reach(model, depth=n)
            for encoded in (model, replace(model, goal_floor=1)):
                status = run_solver(encode(encoded, n), solver_config()).status
                assert status == ("sat" if oracle.outcome == "attack-found"
                                  else "unsat"), (model.protocol, model.scenario,
                                                  model.sessions, n, encoded.goal_floor)


def test_bound_n_is_sat_iff_oracle_attack_within_n_on_a_partial_cone(lib):
    # the same exactness where the goal's cone keeps 5 of the 9 steps
    model = model_of(lib, "nspkt", "mitm1_lowe", k=3)
    assert (len(model.cone), default_max_bound(model)) == (5, 9)
    for n in range(1, 11):
        oracle = explicit_reach(model, depth=n)
        for encoded in (model, replace(model, goal_floor=1)):
            status = run_solver(encode(encoded, n), solver_config()).status
            assert status == ("sat" if oracle.outcome == "attack-found"
                              else "unsat"), (n, encoded.goal_floor)


def test_attack_at_the_goal_floor_takes_one_query(lib):
    # all 4 sessions must complete, so no goal holds before position 12,
    # and the attack found there needs no unsat query below it
    model = model_of(lib, "dsp", "key_compromise", k=4)
    assert (len(model.cone), model.goal_floor) == (12, 12)
    verdict = iterate_bounds(model, config=solver_config())
    assert (verdict.outcome, verdict.bound) == ("attack-found", 12)
    assert [(b, s) for b, s, _ in verdict.per_bound_log] == [(12, "sat")]


def test_stranded_session_attack_is_found_from_the_cap(lib):
    model = stranded_model(lib)
    verdict = iterate_bounds(model, config=solver_config())
    assert (verdict.outcome, verdict.bound) == ("attack-found", 3)
    log = [(b, s) for b, s, _ in verdict.per_bound_log]
    # session 2's last step is outside the goal's cone of 5 steps, and the
    # attack is at the goal floor: session 1's 3 steps
    assert (len(model.cone), model.goal_floor) == (5, 3)
    assert log[0] == (5, "sat")
    assert log[-1] == (2, "unsat") or verdict.bound == model.goal_floor


def test_timeout_ends_a_wrapper_command():
    # sh forks sleep, which holds the pipes: only killing the whole
    # process group ends the query at the timeout
    cfg = solver_config(command=("sh", "-c", "sleep 20; true"), timeout=0.5)
    start = time.monotonic()
    result = run_solver(script_of("(check-sat)\n", {}), cfg)
    assert result.status == "timeout"
    assert time.monotonic() - start < 3.0


def gone_or_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as f:
            return any(line.split()[1] == "Z" for line in f
                       if line.startswith("State:"))
    except FileNotFoundError:
        return True


def test_close_kills_what_the_solver_command_started(tmp_path):
    # the child starts a grandchild that keeps its pipes and stderr, then
    # answers: closing the child ends the grandchild too, at once
    pidfile = tmp_path / "pids"
    body = ("import subprocess; p = subprocess.Popen(['sleep', '30']); "
            "open(%r, 'w').write(str(p.pid)); print('unsat', flush=True)" % str(pidfile))
    cfg = solver_config(command=(sys.executable, "-c", body), timeout=20.0)
    start = time.monotonic()
    result = run_solver(script_of("(check-sat)\n", {}), cfg)
    assert result.status == "unsat"
    close_idle()
    assert time.monotonic() - start < 2.0
    grandchild = int(pidfile.read_text())
    deadline = time.monotonic() + 2.0  # SIGKILL lands when the sleep is next scheduled
    while not gone_or_zombie(grandchild) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert gone_or_zombie(grandchild)  # PID 1 may reap it late


def test_failed_query_reports_only_its_own_stderr():
    fake = ("import sys, time\n"
            "n = 0\n"
            "for line in sys.stdin:\n"
            "    if 'check-sat' not in line: continue\n"
            "    n += 1\n"
            "    sys.stderr.write('first\\n' if n == 1 else 'second\\n')\n"
            "    sys.stderr.flush()\n"
            "    time.sleep(0.2)\n"
            "    print('unsat' if n == 1 else 'hello', flush=True)\n"
            "    if n == 2: exit()\n")
    script = script_of("(check-sat)\n", {})
    cfg = solver_config(command=(sys.executable, "-c", fake), timeout=20.0)
    first = run_solver(script, cfg)
    second = run_solver(script, cfg)
    assert (first.status, first.solver_stderr) == ("unsat", "")
    assert second.status == "error"
    assert "second" in second.solver_stderr
    assert "first" not in second.solver_stderr


def test_replay_tight_at_five_sessions_is_one_quick_unsat_query(lib):
    # a run is its fired steps and their order, not one position per step,
    # so the solver does not search over the interleavings of 5 sessions
    model = model_of(lib, "wmf", "replay_tight", k=5)
    verdict = iterate_bounds(model, config=solver_config(timeout=20.0))
    assert (verdict.outcome, verdict.bound) == ("no-attack-up-to", 15)
    assert [(b, s) for b, s, _ in verdict.per_bound_log] == [(15, "unsat")]


def replay_chain_model(lib, k: int, lifetime):
    return build_model(parse_protocol(lib["wmf"].protocol),
                       parse_scenario(replay_chain(k, lifetime)))


def assert_agrees_with_the_oracle(model) -> Verdict:
    """``check``'s verdict and bound are the oracle's, and its witness replays."""
    oracle = explicit_reach(model, depth=default_max_bound(model))
    verdict = iterate_bounds(model, config=solver_config())
    assert (verdict.outcome, verdict.bound) == (oracle.outcome, oracle.depth)
    if verdict.outcome == "attack-found":
        trace = decode(verdict.result, encode(model, verdict.bound), model)
        assert replay(trace, model) is None
    return verdict


@pytest.mark.parametrize("lifetime", [3, 100])
def test_replay_chain_agrees_with_the_oracle(lib, lifetime):
    for k in (2, 3, 4):
        verdict = assert_agrees_with_the_oracle(replay_chain_model(lib, k, lifetime))
        assert verdict.outcome == ("attack-found" if lifetime == 100 else "no-attack-up-to")


def test_generous_replay_chain_attack_is_at_bound_3k(lib):
    for k in range(3, 7):
        verdict = iterate_bounds(replay_chain_model(lib, k, 100), config=solver_config())
        assert (verdict.outcome, verdict.bound) == ("attack-found", 3 * k)


def test_tight_replay_chain_at_16_sessions_is_one_quick_unsat_query(lib):
    # the intruder's own replays deliver it nothing, so each replay's gate
    # lists session 1's first step alone, not the other replays
    model = replay_chain_model(lib, 16, 3)
    assert all(gate == (((model.step_at(1, 1),),),)
               for ref, gate in model.gates.items() if ref is not None)
    start = time.monotonic()
    verdict = iterate_bounds(model, config=solver_config(timeout=10.0))
    assert time.monotonic() - start < 10.0
    assert (verdict.outcome, verdict.bound) == ("no-attack-up-to", 48)
    assert [(b, s) for b, s, _ in verdict.per_bound_log] == [(48, "unsat")]


def test_two_tickets_agree_with_the_oracle():
    # a Kerberos-style server message: a pair of ciphers, one ticket for
    # each of A and B; compromising KBS opens B's ticket to the intruder
    fixture = Path(__file__).parent / "fixtures" / "two_tickets"
    spec = parse_protocol((fixture / "protocol.ab").read_text(encoding="utf-8"))
    message = spec.steps[1].message
    assert isinstance(message.left, Cipher) and isinstance(message.right, Cipher)
    for name, expected in (("fair", ("no-attack-up-to", 8)), ("compromised", ("attack-found", 4))):
        scenario = parse_scenario((fixture / f"{name}.json").read_text(encoding="utf-8"))
        model = build_model(spec, scenario, k=2)
        verdict = assert_agrees_with_the_oracle(model)
        assert (verdict.outcome, verdict.bound) == expected


@pytest.mark.parametrize("protocol, scenario, goal, complete, bound, queried", [
    ("dsp", "key_compromise", "secrecy Kab sid any", "complete: 2", 3, [5]),
    ("wmf", "replay_tight", "secrecy Ta sid 1", "complete:", 2, [4]),
])
def test_first_sat_model_fires_only_what_the_goal_needs(lib, protocol, scenario, goal,
                                                       complete, bound, queried):
    # the solver decides every variable false first, so the first sat
    # model fires what the goal and the gates need, not the whole cone: it
    # decodes to the least attack, with no step-down query
    text = "\n".join([line for line in lib[protocol].protocol.splitlines()
                      if not line.startswith(("goal:", "complete:"))]
                     + [f"goal: {goal}", complete]) + "\n"
    scen = parse_scenario(lib[protocol].scenarios[scenario])
    model = build_model(parse_protocol(text), scen, k=2)
    verdict = iterate_bounds(model, config=solver_config())
    assert (verdict.outcome, verdict.bound) == ("attack-found", bound)
    assert [b for b, _, _ in verdict.per_bound_log] == queried


# ---- the warm child ----------------------------------------------------------


def test_two_checks_on_one_command_spawn_one_child(lib, tmp_path):
    pidfile = tmp_path / "pids"
    cfg = solver_config(command=pid_logging(pidfile, SMTLITE_BODY))
    verdicts = [iterate_bounds(model_of(lib, "nspkt", scenario), config=cfg)
                for scenario in ("mitm1_lowe", "fair")]
    assert [(v.outcome, v.bound) for v in verdicts] == [
        ("attack-found", 5), ("no-attack-up-to", 3)]
    pids = spawned(pidfile)
    assert len(pids) == 1
    os.kill(pids[0], 0)  # parked, not killed
    close_idle()
    assert_reaped(pids)


def check_outputs(argv, solver: str, fresh: bool):
    """(exit code, stdout, stderr without timings) of one ``check``, in a
    fresh process or in this one."""
    argv = ["check", *argv, "--solver", solver]
    if fresh:
        proc = subprocess.run([sys.executable, "-m", "tspbmc.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
    return code, out, re.sub(r" \(\d+\.\d+s\)", "", err)


def test_one_warm_child_answers_as_fresh_processes_do(lib, tmp_path):
    # every library pair, sat and unsat mixed, on one child: the same
    # verdicts, witnesses, bound logs and exit codes as one process per check
    pidfile = tmp_path / "pids"
    pairs = [[name, scen, "--format", "json"]
             for name, entry in sorted(lib.items()) for scen in sorted(entry.scenarios)]
    assert len(pairs) == 9
    random.Random(7).shuffle(pairs)
    warm = [check_outputs(argv, shlex.join(pid_logging(pidfile, SMTLITE_BODY)), False)
            for argv in pairs]
    pids = spawned(pidfile)
    assert len(pids) == 1
    close_idle()
    assert_reaped(pids)
    fresh = [check_outputs(argv, shlex.join(BUNDLED), True) for argv in pairs]
    assert {code for code, _, _ in warm} == {0, 10}
    assert warm == fresh


@pytest.mark.parametrize("body, status", [
    ("import time; time.sleep(60)", "timeout"),
    (ERROR_THEN_SAT, "error"),
])
def test_a_failed_session_is_never_parked(lib, tmp_path, body, status):
    # both children stay alive after the failed query: only the kill ends them
    pidfile = tmp_path / "pids"
    model = model_of(lib, "nspkt", "fair")
    cfg = solver_config(command=pid_logging(pidfile, body), timeout=0.5)
    for n in (1, 2):
        verdict = iterate_bounds(model, config=cfg)
        assert (verdict.outcome, verdict.result.status) == ("inconclusive", status)
        pids = spawned(pidfile)
        assert len(pids) == n
        assert_reaped(pids)


def test_a_decode_exception_leaves_the_child_parked(lib, tmp_path, monkeypatch):
    # the child answered in full before decode failed, so the next check
    # takes it over
    def broken(*args):
        raise RuntimeError("decoder failed")

    pidfile = tmp_path / "pids"
    model = model_of(lib, "nspkt", "mitm1_lowe")
    cfg = solver_config(command=pid_logging(pidfile, SMTLITE_BODY))
    with monkeypatch.context() as m:
        m.setattr("tspbmc.solver.decode", broken)
        with pytest.raises(RuntimeError):
            iterate_bounds(model, config=cfg)
    [parked] = spawned(pidfile)
    os.kill(parked, 0)
    verdict = iterate_bounds(model, config=cfg)
    assert (verdict.outcome, verdict.bound) == ("attack-found", 5)
    assert spawned(pidfile) == [parked]
    close_idle()
    assert_reaped([parked])


class Interrupted(Exception):
    pass


def test_an_exception_during_the_wait_closes_the_child(tmp_path):
    # a signal handler raises while the query waits for a sleeping solver:
    # the child is killed and reaped at once, and never parked
    def interrupt(signum, frame):
        raise Interrupted

    pidfile = tmp_path / "pids"
    cfg = solver_config(command=pid_logging(pidfile, "import time; time.sleep(60)"))
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        start = time.monotonic()
        with pytest.raises(Interrupted):
            run_solver(script_of("(check-sat)\n", {}), cfg)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 10.0
    pids = spawned(pidfile)
    assert len(pids) == 1
    assert_reaped(pids)
    body = "print('unsat', flush=True); import sys; sys.stdin.read()"
    unsat = solver_config(command=pid_logging(pidfile, body))
    assert run_solver(script_of("(check-sat)\n", {}), unsat).status == "unsat"
    assert len(spawned(pidfile)) == 2  # nothing was parked to take over
    close_idle()
    assert_reaped(spawned(pidfile))


def test_a_parked_child_killed_from_outside_is_replaced(lib, tmp_path):
    pidfile = tmp_path / "pids"
    model = model_of(lib, "nspkt", "mitm1_lowe")
    cfg = solver_config(command=pid_logging(pidfile, SMTLITE_BODY))
    first = iterate_bounds(model, config=cfg)
    [parked] = spawned(pidfile)
    os.killpg(parked, signal.SIGKILL)
    deadline = time.monotonic() + 2.0
    while not gone_or_zombie(parked) and time.monotonic() < deadline:
        time.sleep(0.02)
    # the takeover check reaps the dead child; its group is gone by then
    second = iterate_bounds(model, config=cfg)
    pids = spawned(pidfile)
    assert len(pids) == 2 and pids[0] == parked
    assert_reaped([parked])
    assert (second.outcome, second.bound) == (first.outcome, first.bound) == (
        "attack-found", 5)
    script = encode(model, 5)
    assert decode(second.result, script, model) == decode(first.result, script, model)
    close_idle()
    assert_reaped(pids)


def test_another_directory_spawns_a_new_child(lib, tmp_path, monkeypatch):
    # the same relative solver path names another program in another directory
    pidfile = tmp_path / "pids"
    src = str(Path(tspbmc.__file__).resolve().parent.parent)
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "solver.py").write_text(
            f"import os, sys; sys.path.insert(0, {src!r}); "
            f"open({str(pidfile)!r}, 'a').write(f'{name} {{os.getpid()}}\\n'); "
            "from tspbmc.smtlite import main; sys.exit(main())\n")
    model = model_of(lib, "nspkt", "fair")
    cfg = solver_config(command=(sys.executable, "solver.py"))
    for name in ("a", "b", "b"):
        monkeypatch.chdir(tmp_path / name)
        assert iterate_bounds(model, config=cfg).outcome == "no-attack-up-to"
    logged = [line.split() for line in pidfile.read_text().splitlines()]
    assert [name for name, _ in logged] == ["a", "b"]
    pids = [int(pid) for _, pid in logged]
    assert_reaped(pids[:1])  # closed when the check in b started
    close_idle()
    assert_reaped(pids)


def test_a_fork_leaves_its_parents_parked_child_alone(lib, tmp_path):
    pidfile, logfile = tmp_path / "pids", tmp_path / "stdin"
    model = model_of(lib, "nspkt", "fair")
    cfg = solver_config(command=pid_logging(pidfile, stdin_logging(logfile, per_pid=True)))
    assert iterate_bounds(model, config=cfg).outcome == "no-attack-up-to"
    [parked] = spawned(pidfile)
    fork = os.fork()
    if fork == 0:  # the same check in the fork must spawn a child of its own
        code = 1
        try:
            code = iterate_bounds(model, config=cfg).outcome != "no-attack-up-to"
            close_idle()
        finally:
            os._exit(code)
    assert os.waitstatus_to_exitcode(os.waitpid(fork, 0)[1]) == 0
    pids = spawned(pidfile)
    assert len(pids) == 2 and pids[0] == parked
    assert_reaped(pids[1:])
    os.kill(parked, 0)  # the fork did not kill it
    assert iterate_bounds(model, config=cfg).outcome == "no-attack-up-to"
    assert spawned(pidfile) == pids  # taken over
    # it read this process's two scripts and nothing from the fork
    read = Path(f"{logfile}.{parked}").read_text()
    assert (read.count("(check-sat)"), read.count("(reset)")) == (2, 1)
    close_idle()
    assert_reaped([parked])


def test_a_process_that_exits_leaves_no_solver_child(tmp_path):
    # the child outlives the end of its input: only the exit hook ends it
    pidfile = tmp_path / "pids"
    body = "from tspbmc.smtlite import main; main(); import time; time.sleep(60)"
    code = ("import sys; from tspbmc.cli import main; "
            "sys.exit(main(['check', 'nspkt', 'fair', '--solver', sys.argv[1]]))")
    proc = subprocess.run([sys.executable, "-c", code, shlex.join(pid_logging(pidfile, body))],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    pids = spawned(pidfile)
    assert len(pids) == 1
    assert_reaped(pids)


def test_threads_never_share_a_child(lib, tmp_path):
    # each thread's checks run on a child no other thread holds, and every
    # child a thread parked is either taken over or closed, never leaked
    pidfile = tmp_path / "pids"
    cfg = solver_config(command=pid_logging(pidfile, SMTLITE_BODY), timeout=60.0)
    models = [model_of(lib, "nspkt", scenario) for scenario in ("fair", "mitm1_lowe")]
    outcomes = []

    def checks():
        for model in models * 3:
            outcomes.append(iterate_bounds(model, config=cfg).outcome)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=checks) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(outcomes) == ["attack-found"] * 12 + ["no-attack-up-to"] * 12
    pids = spawned(pidfile)
    assert 1 <= len(pids) < 24  # parked children were taken over
    close_idle()
    assert_reaped(pids)


def exits_at_reset(pidfile) -> tuple:
    """A solver command that answers one script, then exits without an
    answer when the next one arrives, as a child whose wrapper ran out."""
    return pid_logging(pidfile, (
        "import os, sys, types; from tspbmc.smtlite import main; src = sys.stdin; "
        "sys.stdin = types.SimpleNamespace(readline=lambda: "
        "(lambda line: os._exit(0) if line.startswith('(reset)') else line)"
        "(src.readline())); sys.exit(main())"))


def test_a_taken_over_child_that_ends_unanswered_is_replaced_once(lib, tmp_path):
    pidfile = tmp_path / "pids"
    cfg = solver_config(command=exits_at_reset(pidfile))
    fair = model_of(lib, "nspkt", "fair")
    for n in (1, 2):  # one query each: the second check's is asked again
        verdict = iterate_bounds(fair, config=cfg)
        assert (verdict.outcome, verdict.bound) == ("no-attack-up-to", 3)
        assert [b for b, _, _ in verdict.per_bound_log] == [3]
        assert len(spawned(pidfile)) == n
    assert_reaped(spawned(pidfile)[:1])
    # the rule is per query: the child parked after the check's first bound
    # ends at the (reset) of its second, and a new child answers that bound
    # (a goal floor of 1 makes the loop ask below the attack)
    model = replace(model_of(lib, "nspkt", "mitm1_lowe"), goal_floor=1)
    verdict = iterate_bounds(model, config=cfg)
    assert (verdict.outcome, verdict.bound) == ("attack-found", 5)
    assert [(b, s) for b, s, _ in verdict.per_bound_log] == [(5, "sat"), (4, "unsat")]
    pids = spawned(pidfile)
    assert len(pids) == 4
    assert_reaped(pids[:3])
    close_idle()
    assert_reaped(pids)


def test_checks_outlive_a_timeout_wrapper(lib, tmp_path):
    # the wrapper ends the parked child after a second; every check before,
    # across and after that moment gets its verdict
    pidfile = tmp_path / "pids"
    cfg = solver_config(command=("timeout", "1", *pid_logging(pidfile, SMTLITE_BODY)))
    model = model_of(lib, "nspkt", "fair")
    start = time.monotonic()
    while len(spawned(pidfile)) < 2 or time.monotonic() - start < 1.5:
        verdict = iterate_bounds(model, config=cfg)
        assert (verdict.outcome, verdict.bound) == ("no-attack-up-to", 3)
    close_idle()
    # the logged pids are the wrapper's children: PID 1 may reap them late
    deadline = time.monotonic() + 2.0
    while (not all(map(gone_or_zombie, spawned(pidfile)))
           and time.monotonic() < deadline):
        time.sleep(0.02)
    assert all(map(gone_or_zombie, spawned(pidfile)))


def test_a_check_in_a_removed_directory(lib, tmp_path, monkeypatch):
    # a removed directory still matches itself: both checks run on one child
    pidfile = tmp_path / "pids"
    gone = tmp_path / "gone"
    gone.mkdir()
    monkeypatch.chdir(gone)
    gone.rmdir()
    # python cannot start with a relative path entry in a removed directory
    monkeypatch.setenv("PYTHONPATH", str(Path(tspbmc.__file__).resolve().parent.parent))
    argv = ["check", "nspkt", "fair", "--solver", shlex.join(pid_logging(pidfile, SMTLITE_BODY))]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert [cli.main(argv), cli.main(argv)] == [cli.EXIT_NO_ATTACK] * 2
    pids = spawned(pidfile)
    assert len(pids) == 1
    os.kill(pids[0], 0)
    close_idle()
    assert_reaped(pids)


def test_run_solver_starts_no_thread(lib, tmp_path, monkeypatch):
    # a fresh child, a taken-over one, a sat model and a timeout: every
    # exchange waits on the pipes from the calling thread
    def no_thread(self):
        raise AssertionError("run_solver started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    close_idle()
    cfg = solver_config()
    model = model_of(lib, "nspkt", "mitm1_lowe")
    assert iterate_bounds(model, config=cfg).outcome == "attack-found"
    assert iterate_bounds(model, config=cfg).outcome == "attack-found"
    sleeper = solver_config(command=(sys.executable, "-c", "import time; time.sleep(60)"),
                            timeout=0.3)
    assert run_solver(script_of("(check-sat)\n", {}), sleeper).status == "timeout"


def test_a_reply_line_split_across_writes_is_answered():
    # each reply arrives in two writes with a pause between them: a line
    # is read whole before it is parsed
    fake = ("import sys, time\n"
            "def say(a, b):\n"
            "    sys.stdout.write(a); sys.stdout.flush(); time.sleep(0.2)\n"
            "    sys.stdout.write(b); sys.stdout.flush()\n"
            "for line in sys.stdin:\n"
            "    if 'check-sat' in line: say('s', 'at\\n')\n"
            "    if 'get-value' in line: say('((x (/ 7.0 ', '2.0)))\\n')\n")
    cfg = solver_config(command=(sys.executable, "-c", fake), timeout=20.0)
    script = script_of("(declare-const x Real)(check-sat)\n", {"x": "Real"})
    result = run_solver(script, cfg)
    assert (result.status, result.values) == ("sat", {"x": Fraction(7, 2)})
    close_idle()


def test_half_a_reply_line_then_a_hang_times_out_at_the_deadline(tmp_path):
    # the child writes "sa" and sleeps, and a grandchild holds the pipes:
    # the query ends at its deadline and the whole group is gone
    pidfile = tmp_path / "pids"
    body = ("import subprocess, sys, time; "
            "p = subprocess.Popen(['sleep', '30']); "
            f"open({str(pidfile)!r}, 'a').write(f'{{p.pid}}\\n'); "
            "sys.stdout.write('sa'); sys.stdout.flush(); time.sleep(60)")
    cfg = solver_config(command=pid_logging(pidfile, body), timeout=1.0)
    start = time.monotonic()
    result = run_solver(script_of("(check-sat)\n", {}), cfg)
    took = time.monotonic() - start
    assert result.status == "timeout"
    assert 1.0 <= took < 3.0
    child, grandchild = spawned(pidfile)
    assert_reaped([child])
    deadline = time.monotonic() + 2.0  # SIGKILL lands when the sleep is next scheduled
    while not gone_or_zombie(grandchild) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert gone_or_zombie(grandchild)


def large_script(n: int) -> SmtScript:
    """A sat script of over 40 bytes per Bool symbol, for n symbols."""
    lines = [f"(declare-const b{i:05d} Bool)(assert (or b{i:05d} false))\n"
             for i in range(n)]
    return script_of("".join(lines) + "(check-sat)\n", {f"b{i:05d}": "Bool" for i in range(n)})


def test_a_large_script_to_a_child_that_never_reads_times_out():
    # the write waits for room in the pipe until the deadline
    script = large_script(6000)
    assert len(script.text) >= 256 * 1024
    cfg = solver_config(command=(sys.executable, "-c", "import time; time.sleep(60)"),
                        timeout=1.0)
    start = time.monotonic()
    assert run_solver(script, cfg).status == "timeout"
    assert time.monotonic() - start < 5.0


def test_the_bundled_child_answers_a_large_script():
    # a script larger than a pipe's buffer, and a get-value reply larger
    # than one read
    script = large_script(6000)
    assert len(script.text) >= 256 * 1024
    result = run_solver(script, solver_config(timeout=60.0))
    assert result.status == "sat"
    assert result.values == dict.fromkeys(script.var_index, True)
    close_idle()


def test_output_written_while_the_script_is_read_is_drained():
    # the child writes a comment per line it reads: 600 KB, which fills
    # its stdout long before the driver has written the whole script
    fake = ("import sys\n"
            "for line in sys.stdin:\n"
            "    sys.stdout.write('; ' + 'x' * 100 + '\\n')\n"
            "    if 'check-sat' in line: print('unsat', flush=True)\n")
    cfg = solver_config(command=(sys.executable, "-c", fake), timeout=20.0)
    result = run_solver(large_script(6000), cfg)
    assert result.status == "unsat"
    assert result.elapsed < 10.0
    close_idle()


def test_the_longest_timeout_is_still_answered():
    # a wait that one poll cannot take is cut into slices, with no OverflowError
    cfg = solver_config(timeout=threading.TIMEOUT_MAX)
    script = script_of("(declare-const x Bool)(assert x)(check-sat)\n", {"x": "Bool"})
    result = run_solver(script, cfg)
    assert (result.status, result.values) == ("sat", {"x": True})
    close_idle()
