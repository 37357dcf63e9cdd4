"""Span tracer for the benchmark's traced run.

The tracer wraps the program's public functions at the module attributes
where their callers look them up (``tspbmc.cli`` and ``tspbmc.solver``),
so the trace follows the program's own bound loop. Spans are kept in
memory as ``[id, parent, item, layer, name, start, end, attrs]`` and
written out when the run ends.

The solver child cannot be traced from here, so ``child_split`` feeds each
script that ``run_solver`` sent through the bundled solver's reader and
solver in-process, after the item has finished, and splits its time into
read, compile, search and model extraction.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import io
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class TraceError(RuntimeError):
    """A wrapped function is missing or a layer recorded nothing."""


# (module, attribute, layer): the call sites the traced run wraps.
WRAPPED = (
    ("tspbmc.cli", "parse_protocol", "frontend"),
    ("tspbmc.cli", "parse_scenario", "frontend"),
    ("tspbmc.cli", "build_model", "model"),
    ("tspbmc.cli", "iterate_bounds", "solver"),
    ("tspbmc.cli", "encode", "encoder"),
    ("tspbmc.cli", "decode", "witness"),
    ("tspbmc.cli", "replay", "witness"),
    ("tspbmc.cli", "explicit_reach", "oracle"),
    ("tspbmc.solver", "encode", "encoder"),
    ("tspbmc.solver", "run_solver", "solver"),
)
# Counted, not timed: called thousands of times per oracle search.
COUNTED = (
    ("tspbmc.oracle", "constructible", "oracle.constructible_calls"),
    ("tspbmc.oracle", "closure", "oracle.closure_calls"),
)
RENDERERS = ("tspbmc.cli", "_RENDERERS")

# Span names every check item must record, and the extra ones an attack
# (sat) item and an oracle item must record. A name missing here means a
# layer went untraced, which would otherwise read as zero.
REQUIRED_CHECK = ("cli.parse_protocol", "cli.parse_scenario", "cli.build_model",
                  "cli.iterate_bounds", "solver.encode", "solver.run_solver")
REQUIRED_ATTACK = ("cli.encode", "cli.decode", "cli.replay", "cli.render")
REQUIRED_ORACLE = ("cli.parse_protocol", "cli.build_model", "cli.explicit_reach")


class _ReadRecorder(dict):
    """Model values that remember which symbols were read."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None  # id shared by the spans of one item execution
        self.counts = defaultdict(lambda: defaultdict(int))  # item -> name -> n
        self.scripts = defaultdict(list)  # item -> per-bound script SHA-256
        self.sent = []  # (span id, script text, status, names) of the item
        self._stack = []
        self._undo = []
        self._model = None  # model of the running iterate_bounds call
        self._decode_values = None  # model values of the running decode call

    # ---- spans ---------------------------------------------------------

    @contextmanager
    def span(self, layer, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, parent, self.item, layer, name, perf_counter(), None, None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec[6] = perf_counter()
            self._stack.pop()

    def count(self, name, n=1):
        self.counts[self.item][name] += n

    # ---- installing wrappers ---------------------------------------------

    def install(self):
        """Wrap every call site; raise TraceError if one is missing."""
        hooks = {
            "cli.build_model": (None, self._after_build_model),
            "cli.iterate_bounds": (self._before_iterate, None),
            "cli.encode": (None, self._after_encode),
            "solver.encode": (None, self._after_encode),
            "solver.run_solver": (None, self._after_run_solver),
            "cli.decode": (self._before_decode, self._after_decode),
        }
        try:
            for modname, attr, layer in WRAPPED:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr, None)
                if not callable(fn):
                    raise TraceError(f"{modname}.{attr} is missing or not callable: "
                                     f"the {layer} layer would go untraced")
                name = f"{modname.rsplit('.', 1)[1]}.{attr}"
                before, after = hooks.get(name, (None, None))
                self._patch(mod, attr, self._timed(fn, layer, name, before, after))
            for modname, attr, counter in COUNTED:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr, None)
                if not callable(fn):
                    raise TraceError(f"{modname}.{attr} is missing or not callable: "
                                     f"{counter} would read as zero")
                self._patch(mod, attr, self._counted(fn, counter))
            modname, attr = RENDERERS
            renderers = getattr(importlib.import_module(modname), attr, None)
            if not isinstance(renderers, dict) or not renderers or not all(
                    callable(f) for f in renderers.values()):
                raise TraceError(f"{modname}.{attr} is missing or not a dict of "
                                 "renderers: the witness render span would go untraced")
            for fmt, fn in list(renderers.items()):
                self._patch_item(renderers, fmt,
                                 self._timed(fn, "witness", "cli.render", None, None))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def _patch(self, mod, attr, new):
        old = getattr(mod, attr)
        setattr(mod, attr, new)
        self._undo.append(lambda: setattr(mod, attr, old))

    def _patch_item(self, mapping, key, new):
        old = mapping[key]
        mapping[key] = new
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def _timed(self, fn, layer, name, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            if before is not None:
                args = before(args)
            with tracer.span(layer, name) as rec:
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result, rec)
            # the tracer's own time: all of this call but the wrapped one
            tracer.count("trace.overhead_s", perf_counter() - t0 - (rec[6] - rec[5]))
            return result
        return wrapper

    def _counted(self, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[tracer.item][counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ---- per-call counts ---------------------------------------------------

    def _after_build_model(self, args, model, rec):
        self.count("model.universe_terms", len(model.universe))
        self.count("model.rules", len(model.rules))
        c = self.counts[self.item]
        c["model.depth"] = max(c["model.depth"], model.depth)

    def _before_iterate(self, args):
        self._model = args[0]
        return args

    def _after_encode(self, args, script, rec):
        self.count("encoder.calls")
        self.count("encoder.script_bytes", len(script.text.encode("utf-8")))
        self.count("encoder.symbols", len(script.var_index))
        self.count("encoder.asserts", script.text.count("(assert "))

    def _after_run_solver(self, args, result, rec):
        script = args[0]
        self.count("solver.bounds")
        if script.bound > len(self._model.exec_steps):
            self.count("solver.vacuous_bounds")
        names = None
        if result.status == "sat":
            names = sorted(script.var_index)
            self.count("solver.getvalue_symbols", len(names))
        self.scripts[self.item].append(
            hashlib.sha256(script.text.encode("utf-8")).hexdigest())
        self.sent.append((rec[0], script.text, result.status, names))

    def _before_decode(self, args):
        result = args[0]
        recorder = _ReadRecorder(result.values)
        self._decode_values = recorder
        return (dataclasses.replace(result, values=recorder),) + tuple(args[1:])

    def _after_decode(self, args, trace, rec):
        recorder = self._decode_values
        self.count("solver.getvalue_used", len(recorder.read & recorder.keys()))

    # ---- the solver child's split ------------------------------------------

    def split_sent(self):
        """Replay the scripts the current item sent; clears them."""
        for parent, text, status, names in self.sent:
            split = child_split(text, names)
            if split["status"] != status:
                raise TraceError(
                    f"{self.item}: in-process solver says {split['status']}, "
                    f"the child said {status}")
            t0 = perf_counter()
            for key in ("read_s", "compile_s", "search_s", "model_s"):
                self.count(f"smtlite.{key}", split[key])
            for key in ("clauses", "vars", "atoms"):
                self.count(f"smtlite.{key}", split[key])
            self.spans.append([len(self.spans), parent, self.item, "smtlite",
                               "smtlite.replay", t0, t0 + split["smtlite_s"], split])
            if names is not None:
                self.count("sexpr.reply_parse_s", split["reply_parse_s"])
                self.spans.append([len(self.spans), parent, self.item, "sexpr",
                                   "sexpr.reply_parse", t0, t0 + split["reply_parse_s"],
                                   None])
        self.sent = []


def child_split(text: str, names):
    """Run one script through the bundled solver in-process.

    Mirrors the command loop of ``smtlite.main`` for the commands the
    encoder emits. ``names`` is the get-value request of a sat bound, or
    None. Returns the status, seconds per phase and compiled sizes.
    """
    from tspbmc.sexpr import parse_all, parse_one, parse_value, read_sexpr, render_value
    from tspbmc.smtlite import Reader, Solver

    reader = Reader(io.StringIO(text))
    solver = Solver()
    read_s = compile_s = search_s = 0.0
    status = None
    sizes = None
    while True:
        t0 = perf_counter()
        raw = reader.next_expr()
        exprs = parse_all(raw) if raw is not None else None
        t1 = perf_counter()
        read_s += t1 - t0
        if raw is None:
            break
        if not exprs or isinstance(exprs[0], str):
            continue
        cmd = exprs[0]
        head = cmd[0] if cmd else ""
        if head == "declare-const":
            solver.declare(cmd[1], cmd[2])
        elif head == "assert":
            solver.assert_formula(cmd[1])
        elif head == "check-sat":
            sizes = (len(solver.clauses), solver.nvars, len(solver.atoms))
            t1 = perf_counter()
            status = solver.status = solver.check()
            search_s += perf_counter() - t1
            continue
        elif head not in ("set-logic", "set-option", "set-info"):
            raise TraceError(f"script command {head!r} is not replayed by the tracer")
        compile_s += perf_counter() - t1
    if status is None:
        raise TraceError("script has no check-sat")

    model_s = reply_parse_s = 0.0
    if names is not None:
        t0 = perf_counter()
        reply = "(" + " ".join(
            f"({n} {render_value(solver.value_of(n))})" for n in names) + ")\n"
        t1 = perf_counter()
        entries = parse_one(read_sexpr(io.StringIO(reply)))
        values = {e[0]: parse_value(e[1]) for e in entries}
        t2 = perf_counter()
        if len(values) != len(names):
            raise TraceError("get-value reply lost symbols")
        model_s, reply_parse_s = t1 - t0, t2 - t1
    return {
        "status": status,
        "read_s": read_s,
        "compile_s": compile_s,
        "search_s": search_s,
        "model_s": model_s,
        "smtlite_s": read_s + compile_s + search_s + model_s,
        "reply_parse_s": reply_parse_s,
        "clauses": sizes[0],
        "vars": sizes[1],
        "atoms": sizes[2],
    }


def self_times(spans):
    """Seconds per layer: each span's duration minus the part of its
    interval covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append(s)
    out = defaultdict(float)
    for s in spans:
        sid, _, _, layer, _, t0, t1, _ = s
        covered = sum(max(0.0, min(c[6], t1) - max(c[5], t0)) for c in children[sid])
        out[layer] += (t1 - t0) - covered
    return dict(out)


def check_required(tracer: Tracer, item: str, kind: str, attack: bool):
    """Raise TraceError if a layer recorded no span for ``item``."""
    seen = {s[4] for s in tracer.spans if s[2] == item}
    need = REQUIRED_CHECK if kind == "check" else REQUIRED_ORACLE
    if kind == "check" and attack:
        need = need + REQUIRED_ATTACK
    missing = [n for n in need if n not in seen]
    if kind == "oracle" and not tracer.counts[item]["oracle.closure_calls"]:
        missing.append("oracle.closure (count)")
    if missing:
        raise TraceError(f"{item}: no span recorded for {', '.join(missing)}; "
                         "a wrapped function was bypassed or renamed")
