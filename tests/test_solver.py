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
from pathlib import Path

import pytest

import tspbmc
from tspbmc import cli
from tspbmc.encoder import BmcProblem, SmtScript, encode
from tspbmc.errors import SolverError
from tspbmc.frontend import parse_protocol, parse_scenario
from tspbmc.model import build_model
from tspbmc.oracle import explicit_reach
from tspbmc.solver import (
    SolverConfig,
    SolverSession,
    close_idle,
    default_max_bound,
    iterate_bounds,
    resolve_solver_command,
    run_solver,
)
from tspbmc.witness import decode

from conftest import BUNDLED, ERROR_REPLY, ERROR_THEN_SAT, library_models, model_of, solver_config


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


def test_config_validation():
    with pytest.raises(SolverError):
        SolverConfig(timeout=0)
    with pytest.raises(SolverError):
        SolverConfig(max_bound=0)


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
    names = list(encode(BmcProblem(model, sat_bound)).model_symbols)
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
    # it, and closing the parked session kills and reaps it at once
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
    # limits nothing: it decides the same as the step count
    model = model_of(lib, "nspkt", scenario)
    steps = len(model.exec_steps)
    with SolverSession(BUNDLED) as session:
        statuses = [session.run(encode(BmcProblem(model, n)), 120.0).status
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
    from tspbmc.witness import replay
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
        assert names == list(encode(BmcProblem(model, bound)).model_symbols)
        # the f, t and o symbols of the encoded steps, and no counter cell
        assert names == sorted(f"{kind}_{sid}_{i}" for kind in "fto"
                               for sid, i in model.cone)
    trace = decode(verdict.result, encode(BmcProblem(model, 5)), model)
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
        assert sent_scripts(logfile) == [encode(BmcProblem(floored, b)).text
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
    # fires every exec step and past the step count
    models = list(library_models(lib)) + [stranded_model(lib)]
    assert len(models) >= 13
    for model in models:
        steps = default_max_bound(model)
        with SolverSession(BUNDLED) as session:
            for n in range(1, steps + 2):
                status = session.run(encode(BmcProblem(model, n)), 120.0).status
                oracle = explicit_reach(model, depth=n)
                assert status == ("sat" if oracle.outcome == "attack-found"
                                  else "unsat"), (model.protocol, model.scenario,
                                                  model.sessions, n)


def test_bound_n_is_sat_iff_oracle_attack_within_n_on_a_partial_cone(lib):
    # the same exactness where the goal's cone keeps 5 of the 9 steps
    model = model_of(lib, "nspkt", "mitm1_lowe", k=3)
    assert (len(model.cone), default_max_bound(model)) == (5, 9)
    with SolverSession(BUNDLED) as session:
        for n in range(1, 11):
            status = session.run(encode(BmcProblem(model, n)), 120.0).status
            oracle = explicit_reach(model, depth=n)
            assert status == ("sat" if oracle.outcome == "attack-found"
                              else "unsat"), n


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
    # answers: closing the session ends the grandchild too, at once
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
    with SolverSession((sys.executable, "-c", fake)) as session:
        first = session.run(script, 20.0)
        second = session.run(script, 20.0)
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


def test_an_exception_closes_the_session(lib, tmp_path, monkeypatch):
    def broken(*args):
        raise RuntimeError("decoder failed")

    pidfile = tmp_path / "pids"
    monkeypatch.setattr("tspbmc.solver.decode", broken)
    cfg = solver_config(command=pid_logging(pidfile, SMTLITE_BODY))
    with pytest.raises(RuntimeError):
        iterate_bounds(model_of(lib, "nspkt", "mitm1_lowe"), config=cfg)
    pids = spawned(pidfile)
    assert len(pids) == 1
    assert_reaped(pids)


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
    script = encode(BmcProblem(model, 5))
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
    # the new child is this check's own: when it ends unanswered at the
    # check's second query, the check is inconclusive (a goal floor of 1
    # makes the loop ask below the attack)
    model = replace(model_of(lib, "nspkt", "mitm1_lowe"), goal_floor=1)
    verdict = iterate_bounds(model, config=cfg)
    assert (verdict.outcome, verdict.result.status) == ("inconclusive", "error")
    assert [(b, s) for b, s, _ in verdict.per_bound_log][0] == (5, "sat")
    pids = spawned(pidfile)
    assert len(pids) == 3
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
    # no directory to match: each check runs on a child of its own
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
    assert len(pids) == 2
    assert_reaped(pids[:1])
    close_idle()
    assert_reaped(pids)
