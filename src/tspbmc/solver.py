"""External SMT solver driver and the bound loop.

Each ``iterate_bounds`` call keeps one solver child for the whole check.
Every query gets a fresh full script (no incremental push/pop), and each
script after the first is preceded by the standard SMT-LIB ``(reset)``,
so any SMT-LIB2-compliant binary that accepts ``(reset)`` works. The
protocol per script is: write the script and read its first reply, which
must be ``sat``, ``unsat`` or ``unknown``. Any other first reply, such as
an ``(error ...)`` to an assertion, means the solver did not read the
whole script, so the query ends with status ``error`` and that reply as
its message, never with a verdict. On ``sat`` the driver sends one
``(get-value ...)`` for the script's ``model_symbols`` (for an encoded
script, the fire flags, times and orders the decoder reads), or for
every declared symbol when it names none. One ``sexpr.Reader`` per child
reads every reply, so a reply such as ``(error "... '(' expected")`` is
read as one expression and ends the exchange with status ``error`` at
once.

The child runs in a process group of its own, and its stderr goes to an
unnamed temporary file, which never fills, so no thread has to read it.
Closing the session kills the whole group and reaps the child: every
answer the child owes has been read by then, and a wrapper command such
as ``timeout 60 z3 -in`` ends with everything it started. A timeout or a
protocol error closes the session at once, and so does every other exit
path. Only a failed query reads stderr: what the group wrote since the
query began, read once the kill has stopped every writer.

The bound-n script asks for the goal within at most n transitions, so
the bounds are monotone and every exec step fires at most once. Every
goal run reduces to a run of the goal's cone steps, so the bound at the
cone's size covers every run. The loop queries min(cap, cone size)
first and then works down from the length of each sat model's decoded
trace, never below the goal floor L, where no goal holds.

Solver resolution order: explicit ``--solver`` command, the
``TSPBMC_SOLVER`` environment variable, ``z3 -in`` if z3 is on PATH, and
finally the bundled fallback solver (``python -m tspbmc.smtlite``).
"""

from __future__ import annotations

import os
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from .encoder import BmcProblem, SmtScript, encode
from .errors import ModelError, SolverError
from .model import TiisModel
from .sexpr import Reader, parse_value
from .witness import decode

DEFAULT_TIMEOUT = 60.0
EXIT_GRACE = 5.0  # seconds to wait for the exchange thread after the kill
STDERR_KEEP = 64 * 1024  # bytes of stderr kept from a failed query


@dataclass(frozen=True)
class SolverConfig:
    command: tuple = ()  # empty -> resolve automatically
    timeout: float = DEFAULT_TIMEOUT  # seconds per solver query
    max_bound: Optional[int] = None  # capped at, and by default, the exec-step count

    def __post_init__(self):
        # NaN fails both comparisons; join() rejects a wait past TIMEOUT_MAX
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise SolverError(
                f"timeout must be positive and at most {threading.TIMEOUT_MAX:g} s")
        if self.max_bound is not None and self.max_bound < 1:
            raise SolverError("max_bound must be >= 1")


@dataclass(frozen=True)
class RawResult:
    status: str  # sat | unsat | unknown | timeout | error
    values: dict = field(default_factory=dict)  # symbol -> bool | Fraction
    solver_stderr: str = ""
    elapsed: float = 0.0


@dataclass(frozen=True)
class Verdict:
    outcome: str  # attack-found | no-attack-up-to | inconclusive
    bound: int  # least attack bound, or the bound cap / offending bound
    result: Optional[RawResult] = None
    reason: str = ""
    per_bound_log: tuple = ()  # (bound, status, wall seconds) in query order


def resolve_solver_command(explicit: Optional[str] = None) -> tuple:
    """Pick the solver command line; see module docstring for the order."""
    for source in (explicit, os.environ.get("TSPBMC_SOLVER")):
        if source:
            try:
                parts = tuple(shlex.split(source))
            except ValueError as e:
                raise SolverError(f"solver command {source!r}: {e}") from e
            if not parts:
                raise SolverError("empty solver command")
            return parts
    z3 = shutil.which("z3")
    if z3:
        return (z3, "-in")
    return (sys.executable, "-m", "tspbmc.smtlite")


def _interact(proc, reader: Reader, script: SmtScript, reset: bool, box: dict):
    """One script's exchange, run on a worker thread so timeouts can kill it."""
    try:
        if reset:
            proc.stdin.write("(reset)\n")
        proc.stdin.write(script.text)
        proc.stdin.flush()
        item = reader.scan()
        if item is None:
            raise SolverError("solver closed its output before answering")
        status = item[1]
        if status not in ("sat", "unsat", "unknown"):
            raise SolverError(item[0])
        values = {}
        if status == "sat":
            names = script.model_symbols or sorted(script.var_index)
            proc.stdin.write("(get-value (" + " ".join(names) + "))\n")
            proc.stdin.flush()
            item = reader.scan()
            if item is None:
                raise SolverError("solver closed its output before get-value")
            text, reply = item
            if not isinstance(reply, list) or reply[:1] == ["error"]:
                raise SolverError(f"unexpected get-value reply: {text}")
            for entry in reply:
                if not (isinstance(entry, list) and len(entry) == 2):
                    raise SolverError(f"malformed model binding: {entry!r}")
                values[entry[0]] = parse_value(entry[1])
            missing = set(names) - set(values)
            if missing:
                raise SolverError(f"model is missing symbols: {sorted(missing)[:5]}")
        box["status"] = status
        box["values"] = values
    except (OSError, ValueError, SolverError) as e:
        box["exception"] = e


class SolverSession:
    """One solver child that answers a sequence of scripts.

    Use as a context manager; ``close`` kills the child's process group and
    reaps the child on every path, since every answer it owes has been read
    by then. After a timeout or an error the session is closed and takes no
    further script.
    """

    def __init__(self, command: tuple):
        self._stderr = tempfile.TemporaryFile()
        try:
            self.proc = subprocess.Popen(
                list(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._stderr,
                text=True,
                errors="replace",
                start_new_session=True,
            )
        except OSError as e:
            self._stderr.close()
            raise SolverError(f"cannot spawn solver {command!r}: {e}") from e
        self.reader = Reader(self.proc.stdout)
        self._used = False
        self._dead = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def run(self, script: SmtScript, timeout: float) -> RawResult:
        if self._dead:
            raise SolverError("solver session is closed")
        reset, self._used = self._used, True
        mark = os.fstat(self._stderr.fileno()).st_size
        start = time.monotonic()
        box: dict = {}
        worker = threading.Thread(
            target=_interact, args=(self.proc, self.reader, script, reset, box),
            daemon=True)
        worker.start()
        worker.join(timeout)
        timed_out = worker.is_alive()
        if not (timed_out or "exception" in box):
            return RawResult(box["status"], box["values"], elapsed=time.monotonic() - start)
        os.killpg(self.proc.pid, signal.SIGKILL)  # the group writes no more
        worker.join(EXIT_GRACE)
        stderr = os.pread(self._stderr.fileno(), STDERR_KEEP, mark)
        self.close()
        status, note = ("timeout", "") if timed_out else ("error", f"{box['exception']}\n")
        return RawResult(status, {}, (note + stderr.decode(errors="replace")).strip(),
                         time.monotonic() - start)

    def close(self):
        """Kill the child's process group, reap the child, close its streams."""
        if not self._dead:
            self._dead = True
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self._stderr):
            try:
                stream.close()
            except (OSError, ValueError):
                pass


def open_session(config: SolverConfig) -> SolverSession:
    return SolverSession(config.command or resolve_solver_command())


def run_solver(script: SmtScript, config: SolverConfig,
               session: Optional[SolverSession] = None) -> RawResult:
    """Answer one script on ``session``, or on a one-shot child if None."""
    if session is not None:
        return session.run(script, config.timeout)
    with open_session(config) as own:
        return own.run(script, config.timeout)


def default_max_bound(model: TiisModel) -> int:
    """The exec-step count: every run fires each exec step at most once, so
    the bound at the step count covers every run."""
    return len(model.exec_steps)


def iterate_bounds(model: TiisModel, config: Optional[SolverConfig] = None) -> Verdict:
    """Find the least bound with an attack, on one solver child.

    The cap is ``min(max_bound, exec-step count)``. The first query is at
    ``min(cap, |cone|)``: every goal run reduces to a cone run of at most
    |cone| transitions, so if it is unsat there is no attack within the
    cap, and the verdict reports the cap. The length g of a sat model's
    decoded trace (its fired steps in order, up to the first goal
    position) bounds the least attack from above, so the next query is
    at g-1, until one is unsat or g-1 is below the goal floor L
    (``model.goal_floor``), where no goal holds. The attack is reported
    at g with the sat result found there.
    """
    config = config or SolverConfig()
    steps = default_max_bound(model)
    cap = min(config.max_bound or steps, steps)
    n = max(1, min(cap, len(model.cone)))
    log = []
    attack = None  # (g, sat result) of the least bound found so far
    with open_session(config) as session:
        while n >= model.goal_floor or attack is None:
            script = encode(BmcProblem(model, n))
            result = run_solver(script, config, session)
            log.append((n, result.status, result.elapsed))
            if result.status == "unsat":
                break
            if result.status != "sat":
                reason = f"solver returned {result.status} at bound {n}"
                if attack is not None:
                    reason += f" (an attack exists within bound {attack[0]})"
                if result.solver_stderr:
                    reason += f": {result.solver_stderr.splitlines()[0]}"
                return Verdict("inconclusive", n, result, reason, tuple(log))
            try:
                attack = (len(decode(result, script, model).events), result)
            except ModelError as e:
                return Verdict("inconclusive", n, result,
                               f"solver model at bound {n} is not a run: {e}",
                               tuple(log))
            n = attack[0] - 1
    if attack is None:
        return Verdict("no-attack-up-to", cap, per_bound_log=tuple(log))
    return Verdict("attack-found", attack[0], attack[1], per_bound_log=tuple(log))
