"""External SMT solver driver and the bound loop.

``run_solver`` answers one script. Every query gets a fresh full script
(no incremental push/pop), and each script after the first one a child
answers is preceded by the standard SMT-LIB ``(reset)``, so any
SMT-LIB2-compliant binary that accepts ``(reset)`` works. The protocol
per script is: write the script and read its first reply, which must be
``sat``, ``unsat`` or ``unknown``. Any other first reply, such as an
``(error ...)`` to an assertion, means the solver did not read the whole
script, so the query ends with status ``error`` and that reply as its
message, never with a verdict. On ``sat`` the driver sends one
``(get-value ...)`` for the script's ``model_symbols`` (for an encoded
script, the fire flags, times and orders ``encoder.decode`` reads), or for
every declared symbol when it names none. One ``sexpr.Reader`` per child
reads every reply, so a reply such as ``(error "... '(' expected")`` is
read as one expression and ends the exchange with status ``error`` at
once, as does a reply the driver cannot decode. The exchange runs on
the calling thread and starts none: the driver's ends of the child's
stdin and stdout are non-blocking, and one ``poll`` over both writes the
script and reads the replies, a line at a time, against the query's
deadline. At the deadline the query ends with status ``timeout``.

A process keeps one warm child: it is parked after each answered query,
and the next query in the same process, directory and solver command
takes it over if it is still alive; a parked child that does not match
is closed. So only a process's first query pays the child's start-up.
That helps a caller that runs several checks in one process, such as
``cli.main`` called in a loop; a ``tspbmc check`` command starts one
child. A taken-over child that ends before it replies, as a wrapper
command such as ``timeout 60 z3 -in`` does whose limit ran out, is
replaced once by a new child, which is asked the same script. A
timeout, an error or an exception during the wait closes the child at
once, and it is never parked. The child runs in a process group of its
own, and its stderr goes to an unnamed temporary file, which never
fills, so nothing has to drain it. Closing a child kills the whole
group and reaps the child, so a wrapper ends with everything it
started. The parked child is closed by ``close_idle``, which runs at
interpreter exit. A process that did not spawn a child (a fork) never
writes to it, parks it or signals it. Only a failed query reads stderr:
what the group wrote since the query began, read after the group is
killed and the child reaped.

The bound-n script asks for the goal within at most n transitions, so
the bounds are monotone and every exec step fires at most once. Every
goal run reduces to a run of the goal's cone steps, so the bound at the
cone's size covers every run. The loop queries min(cap, cone size)
first and then works down from the length of each sat model's decoded
trace, never below the goal floor L, where no goal holds. Every check
asks at least once, so a first query below L sends the encoder's floor
script, ``(assert false)``.

``SolverConfig.command`` is a resolved command line. ``cli`` resolves it
once per check with ``resolve_solver_command``, in this order: explicit
``--solver`` command, ``TSPBMC_SOLVER``, ``z3 -in`` if z3 is on PATH, and
finally the bundled fallback solver (``python -m tspbmc.smtlite``), started
with this ``tspbmc``'s directory first on its ``PYTHONPATH``.
"""

from __future__ import annotations

import atexit
import os
import select
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

from .encoder import SmtScript, decode, encode
from .errors import ModelError, SolverError
from .model import TiisModel
from .sexpr import Reader, parse_value

DEFAULT_TIMEOUT = 60.0
STDERR_KEEP = 64 * 1024  # bytes of stderr kept from a failed query
_WAIT_SLICE_MS = 2**31 - 1  # poll takes a C int of milliseconds
# what a failed exchange raises: a broken pipe, a reply that is not an
# answer, a value that does not decode (ValueError, RecursionError)
_FAILURES = (SolverError, OSError, ValueError, RecursionError)
_FALLBACK = (sys.executable, "-m", "tspbmc.smtlite")
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class SolverConfig:
    command: tuple  # the solver's command line, as resolve_solver_command gives it
    timeout: float = DEFAULT_TIMEOUT  # seconds per solver query
    max_bound: Optional[int] = None  # capped at, and by default, the exec-step count

    def __post_init__(self):
        if not self.command:
            raise SolverError("empty solver command")
        # NaN fails both comparisons; a wait of up to TIMEOUT_MAX is kept
        # as the accepted range, and _Pipes waits in slices to reach it
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
    for source in (explicit, os.environ.get("TSPBMC_SOLVER") or None):
        if source is not None:
            try:
                parts = tuple(shlex.split(source))
            except ValueError as e:
                raise SolverError(f"solver command {source!r}: {e}") from e
            return parts  # SolverConfig rejects an empty one
    z3 = shutil.which("z3")
    if z3:
        return (z3, "-in")
    return _FALLBACK


def _key(command) -> tuple:
    """What a parked child must match to be taken over: its command, the
    directory that resolves the command's relative paths (by identity, so
    a removed directory matches itself) and the process that owns it."""
    cwd = os.stat(".")
    return (tuple(command), (cwd.st_dev, cwd.st_ino), os.getpid())


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the child was reaped, and nothing it started is left


class _Deadline(Exception):
    """The query's deadline passed while it waited on the child's pipes."""


class _Pipes:
    """The child's stdin and stdout, non-blocking, and one poll over both.

    ``write`` sends bytes and ``readline`` returns the next line of
    stdout, '' at its end, for the ``sexpr.Reader``. Both wait against
    ``deadline`` (a ``time.monotonic()`` value) and raise ``_Deadline``
    once it has passed. A write that waits for room keeps reading what
    the child writes meanwhile, so a child blocked on a full stdout
    cannot stall it. Each wait is a poll of at most _WAIT_SLICE_MS, the
    longest one poll takes, so any ``SolverConfig.timeout`` works.
    """

    def __init__(self, stdin, stdout):
        self._in, self._out = stdin.fileno(), stdout.fileno()
        os.set_blocking(self._in, False)
        os.set_blocking(self._out, False)
        self._poll = select.poll()
        self._poll.register(self._out, select.POLLIN)
        self._buf = bytearray()  # stdout read but not yet returned
        self._eof = False
        self.deadline = 0.0

    def write(self, data: bytes):
        view = memoryview(data)
        self._poll.register(self._in, select.POLLOUT)
        while view:
            try:
                view = view[os.write(self._in, view):]
            except BlockingIOError:
                self._wait()
        self._poll.unregister(self._in)

    def readline(self) -> str:
        end = self._buf.find(b"\n") + 1
        while not (end or self._eof):
            self._wait()
            end = self._buf.find(b"\n") + 1
        end = end or len(self._buf)  # at the end, what is left
        line = self._buf[:end].decode(errors="replace")
        del self._buf[:end]
        return line

    def _wait(self):
        """Wait until a registered pipe is ready; read stdout if it is."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise _Deadline
        for fd, _ in self._poll.poll(min(left * 1000, _WAIT_SLICE_MS)):
            if fd != self._out:
                continue
            try:
                chunk = os.read(self._out, 65536)
            except BlockingIOError:
                continue
            self._buf += chunk
            if not chunk:
                self._eof = True
                self._poll.unregister(self._out)


class _Child:
    """One solver child, its pipes and its stderr file."""

    def __init__(self, key: tuple):
        self.key = key
        self.answered = False  # whether it answered a script: send (reset) first
        self._closed = False
        command, env = key[0], None
        if command == _FALLBACK:  # import this tspbmc, from any directory
            path = os.environ.get("PYTHONPATH")
            env = {**os.environ,
                   "PYTHONPATH": _PACKAGE_ROOT + (os.pathsep + path if path else "")}
        self._stderr = tempfile.TemporaryFile()
        try:
            self.proc = subprocess.Popen(
                list(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._stderr,
                bufsize=0,
                start_new_session=True,
                env=env,
            )
        except OSError as e:
            self._stderr.close()
            raise SolverError(f"cannot spawn solver {command!r}: {e}") from e
        self.pipes = _Pipes(self.proc.stdin, self.proc.stdout)
        self.reader = Reader(self.pipes)

    def ask(self, script: SmtScript, timeout: float) -> Optional[RawResult]:
        """The child's result for ``script``. A timeout or an error closes
        the child, as does an exception during the wait, which is raised.
        None means that a child which had answered before ended without
        replying; it is closed too."""
        reset = self.answered
        mark = os.fstat(self._stderr.fileno()).st_size
        start = time.monotonic()
        self.pipes.deadline = start + timeout
        replied, failure = False, None
        try:
            self.pipes.write((b"(reset)\n" if reset else b"") + script.text.encode())
            text, status = self._reply("answering")
            replied = True
            if status not in ("sat", "unsat", "unknown"):
                raise SolverError(text)
            values = self._model(script) if status == "sat" else {}
        except _Deadline:
            pass
        except _FAILURES as e:  # an undecodable reply too ends the query
            failure = e
        except BaseException:
            self.close()
            raise
        else:
            self.answered = True
            return RawResult(status, values, elapsed=time.monotonic() - start)
        _kill_group(self.proc)
        self.proc.wait()  # the group writes no more
        stderr = os.pread(self._stderr.fileno(), STDERR_KEEP, mark)
        self.close()
        if reset and failure is not None and not replied:
            return None
        status, note = ("timeout", "") if failure is None else ("error", f"{failure}\n")
        return RawResult(status, {}, (note + stderr.decode(errors="replace")).strip(),
                         time.monotonic() - start)

    def _reply(self, before: str) -> tuple:
        item = self.reader.scan()
        if item is None:
            raise SolverError(f"solver closed its output before {before}")
        return item

    def _model(self, script: SmtScript) -> dict:
        """The values of the symbols the decoder reads, by one get-value."""
        names = script.model_symbols or sorted(script.var_index)
        self.pipes.write(("(get-value (" + " ".join(names) + "))\n").encode())
        text, reply = self._reply("get-value")
        if not isinstance(reply, list) or reply[:1] == ["error"]:
            raise SolverError(f"unexpected get-value reply: {text}")
        values = {}
        for entry in reply:
            if not (isinstance(entry, list) and len(entry) == 2
                    and isinstance(entry[0], str)):
                raise SolverError(f"malformed model binding: {entry!r}")
            values[entry[0]] = parse_value(entry[1])
        missing = set(names) - set(values)
        if missing:
            raise SolverError(f"model is missing symbols: {sorted(missing)[:5]}")
        return values

    def close(self):
        """Kill the child's process group, reap the child and close its
        streams, once. In a fork, close only this process's copies of the
        streams."""
        if self._closed:
            return
        self._closed = True
        if self.key[2] == os.getpid():
            _kill_group(self.proc)
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self._stderr):
            try:
                stream.close()
            except (OSError, ValueError):
                pass


_idle: Optional[_Child] = None  # the parked child, if any
_idle_lock = threading.Lock()


def _park(child: Optional[_Child]):
    """Put ``child`` in the slot, and close the child it displaces."""
    global _idle
    with _idle_lock:
        old, _idle = _idle, child
    if old is not None:
        old.close()


def close_idle():
    """Close the parked child, if any: kill its group and reap it."""
    _park(None)


atexit.register(close_idle)


def run_solver(script: SmtScript, config: SolverConfig) -> RawResult:
    """Answer one script on the warm child (see the module docstring)."""
    global _idle
    key = _key(config.command)
    with _idle_lock:
        child, _idle = _idle, None
    if child is not None and not (child.key == key and child.proc.poll() is None):
        child.close()
        child = None
    result = None if child is None else child.ask(script, config.timeout)
    if result is None:  # no child to take over, or it ended unanswered
        child = _Child(key)
        result = child.ask(script, config.timeout)
    if result.status in ("sat", "unsat", "unknown"):
        _park(child)
    return result


def default_max_bound(model: TiisModel) -> int:
    """The exec-step count: every run fires each exec step at most once, so
    the bound at the step count covers every run."""
    return len(model.exec_steps)


def iterate_bounds(model: TiisModel, config: SolverConfig) -> Verdict:
    """Find the least bound with an attack.

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
    steps = default_max_bound(model)
    cap = min(config.max_bound or steps, steps)
    n = max(1, min(cap, len(model.cone)))
    log = []
    attack = None  # (g, sat result) of the least bound found so far
    while n >= model.goal_floor or attack is None:
        script = encode(model, n)
        result = run_solver(script, config)
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
