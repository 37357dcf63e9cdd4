import os
import sys

import pytest

from tspbmc.encoder import BmcProblem, SmtScript, encode
from tspbmc.errors import SolverError
from tspbmc.solver import (
    SolverConfig,
    default_max_bound,
    iterate_bounds,
    resolve_solver_command,
    run_solver,
)

from conftest import BUNDLED, model_of, solver_config


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
    assert [(b, s) for b, s, _ in verdict.per_bound_log] == [
        (n, "unsat") for n in range(1, 4)]


def test_iterate_bounds_attack_is_minimal(lib):
    model = model_of(lib, "nspkt", "mitm1_lowe")
    verdict = iterate_bounds(model, config=solver_config(max_bound=8))
    assert verdict.outcome == "attack-found"
    assert verdict.bound == 5
    assert [s for _, s, _ in verdict.per_bound_log] == ["unsat"] * 4 + ["sat"]
    names = list(encode(BmcProblem(model, 5)).model_symbols)
    assert names and all(n.startswith(("fire_", "tau_")) for n in names)
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
    assert len(verdict.per_bound_log) == bound
    pids = spawned(pidfile)
    assert len(pids) == 1
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
    assert [b for b, _, _ in verdict.per_bound_log] == [1]
    pids = spawned(pidfile)
    assert len(pids) == 1
    assert_reaped(pids)


@pytest.mark.parametrize("scenario", ["fair", "mitm1_lowe"])
def test_bound_above_step_count_is_unsat(lib, scenario):
    # each exec step fires at most once and one fires per position
    model = model_of(lib, "nspkt", scenario)
    script = encode(BmcProblem(model, len(model.exec_steps) + 1))
    assert run_solver(script, solver_config()).status == "unsat"


def stdin_logging(logfile) -> str:
    """A solver body that copies every line it reads to ``logfile``, then
    answers as the bundled solver."""
    return ("import sys, types; from tspbmc.smtlite import main; "
            f"log = open({str(logfile)!r}, 'a'); src = sys.stdin; "
            "sys.stdin = types.SimpleNamespace(readline=lambda: "
            "(lambda line: (log.write(line), log.flush(), line)[2])(src.readline())); "
            "sys.exit(main())")


def test_get_value_requests_only_decoded_symbols(lib, tmp_path):
    from tspbmc.witness import decode, replay
    pidfile, logfile = tmp_path / "pids", tmp_path / "stdin"
    model = model_of(lib, "nspkt", "mitm1_lowe", k=2)
    cfg = solver_config(command=pid_logging(pidfile, stdin_logging(logfile)))
    verdict = iterate_bounds(model, config=cfg)
    assert (verdict.outcome, verdict.bound) == ("attack-found", 5)
    assert len(spawned(pidfile)) == 1
    requests = [line for line in logfile.read_text().splitlines()
                if line.startswith("(get-value")]
    assert len(requests) == 1
    names = requests[0][len("(get-value ("):-len("))")].split()
    script = encode(BmcProblem(model, 5))
    assert names == list(script.model_symbols)
    assert not [n for n in names if n.startswith(("done_", "t_"))]
    assert {n.split("_")[0] for n in names} == {"fire", "tau"}
    trace = decode(verdict.result, script, model)
    assert replay(trace, model) is None
