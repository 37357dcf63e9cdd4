"""Protocol and scenario frontend.

Parses the line-based Alice-Bob protocol format and the JSON scenario
(override) format, replicates protocol steps across k sessions and applies
the overrides, producing the fully instantiated execution skeleton.

Protocol file format (UTF-8, ``#`` comments)::

    name: NSPK_T
    roles: A B
    fresh: Ta by A class nonce lifetime 10
    fresh: Tb by B class nonce lifetime 10
    goal: secrecy Tb sid any
    complete: 1
    step 1: A -> B : <KB, Ta | A> delay 1
    step 2: B -> A : <KA, Ta | Tb> delay 1
    step 3: A -> B : <KB, Tb> delay 1

Scenario JSON::

    {"name": "mitm1_lowe",
     "sessions": 2,
     "overrides": [
       {"sid": 1, "step": 1, "kind": "replace", "edge": "A->I",
        "L": "<KB,Ta#1|A>"},
       ...]}

Override kinds: ``replace`` (an honest agent sends a possibly misdirected
message of its own making), ``intruder`` (the intruder injects a message,
gated on its ability to construct it), ``retime`` (adjust the minimum
delay and/or the lifetime bounds checked at that step). ``replace`` and
``intruder`` overrides may also carry ``delay`` / ``lifetime`` fields.
Optional scenario keys: ``sessions``, ``eavesdrop``, ``compromised``
(long-term keys handed to the intruder initially).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace as dc_replace
from fractions import Fraction
from typing import Optional, Union

from .errors import ProtocolError, ScenarioError, TermSyntaxError
from .terms import (
    FRESH_CLASSES,
    Cipher,
    Fresh,
    Pair,
    Term,
    instantiate,
    parse_term,
    render_term,
)

INTRUDER = "I"


def parse_rational(text: str) -> Fraction:
    """Accept integers, decimals and p/q forms."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"bad rational {text!r}") from e


@dataclass(frozen=True)
class FreshDecl:
    name: str
    owner: str
    klass: str  # nonce | timestamp | sesskey
    lifetime: Optional[Fraction]  # None = unbounded


@dataclass(frozen=True)
class Goal:
    secret: str  # fresh-atom name, instantiated per target session
    target_sid: Union[int, str]  # session index or "any"
    require_complete: Optional[frozenset] = None  # None = default rule


@dataclass(frozen=True)
class ProtocolStep:
    index: int
    sender: str
    receiver: str
    message: Term  # template: fresh atoms carry no sid
    min_delay: Fraction


@dataclass(frozen=True)
class ProtocolSpec:
    name: str
    roles: tuple
    fresh_decls: tuple
    steps: tuple
    goal: Goal

    def decl_map(self):
        return {d.name: d for d in self.fresh_decls}


@dataclass(frozen=True)
class Override:
    sid: int
    step: int
    kind: str  # replace | intruder | retime
    edge: Optional[tuple] = None  # (sender, receiver)
    message: Optional[Term] = None
    delay: Optional[Fraction] = None
    lifetime_overrides: Optional[dict] = None  # fresh name -> Fraction


@dataclass(frozen=True)
class Scenario:
    name: str
    overrides: tuple
    sessions: int = 1
    eavesdrop: bool = True
    compromised: tuple = ()  # key term texts, e.g. ("KAS",)


@dataclass(frozen=True)
class LifetimeCheck:
    term: Fresh
    bound: Fraction
    gen: tuple  # ref of the term's generation step


@dataclass(frozen=True)
class ExecStep:
    sid: int
    index: int
    sender: str
    receiver: str
    message: Term  # fully instantiated
    min_delay: Fraction
    lifetime_checks: tuple = ()
    generates: tuple = ()  # fresh terms whose generation step this is

    @property
    def ref(self):
        return (self.sid, self.index)

    @property
    def gated(self) -> bool:
        """An intruder send, fired only when the intruder can construct it."""
        return self.sender == INTRUDER


_ROLE_RE = re.compile(r"^[A-Z]$")
_FRESH_NAME_RE = re.compile(r"^[A-Z][a-z][A-Za-z0-9]*$")
_STEP_RE = re.compile(
    r"^step\s+(\d+)\s*:\s*([A-Z])\s*->\s*([A-Z])\s*:\s*(.*?)(?:\s+delay\s+(\S+))?$"
)
_EDGE_RE = re.compile(r"^([A-Z])\s*->\s*([A-Z])$")


def parse_protocol(text: str) -> ProtocolSpec:
    name = None
    roles: list = []
    decls: list = []
    steps: list = []
    goal_line = None
    complete: Optional[frozenset] = None
    keys: set = set()  # the line keys read so far

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        key = line.split(":", 1)[0]
        if key in ("name", "goal", "complete") and key in keys:
            raise ProtocolError(f"repeated {key}: line", lineno)
        keys.add(key)
        if line.startswith("name:"):
            name = line[len("name:"):].strip()
            if not name:
                raise ProtocolError("empty name: line", lineno)
        elif line.startswith("roles:"):
            for r in line[len("roles:"):].split():
                if not _ROLE_RE.match(r):
                    raise ProtocolError(f"bad role name {r!r} (single uppercase letter)", lineno)
                if r == INTRUDER:
                    raise ProtocolError("role 'I' is reserved for the intruder", lineno)
                if r in roles:
                    raise ProtocolError(f"duplicate role {r!r}", lineno)
                roles.append(r)
        elif line.startswith("fresh:"):
            m = re.match(
                r"^fresh:\s*(\S+)\s+by\s+([A-Z])\s+class\s+(\S+)\s+lifetime\s+(\S+)$", line
            )
            if not m:
                raise ProtocolError("bad fresh declaration", lineno)
            fname, owner, klass, lt = m.groups()
            if not _FRESH_NAME_RE.match(fname):
                raise ProtocolError(f"bad fresh-atom name {fname!r}", lineno)
            if klass not in FRESH_CLASSES:
                raise ProtocolError(f"unknown fresh class {klass!r}", lineno)
            if any(d.name == fname for d in decls):
                raise ProtocolError(f"duplicate fresh declaration {fname!r}", lineno)
            try:
                lifetime = None if lt == "none" else parse_rational(lt)
            except ValueError as e:
                raise ProtocolError(f"lifetime: {e}", lineno)
            if lifetime is not None and lifetime <= 0:
                raise ProtocolError("lifetime must be positive or 'none'", lineno)
            decls.append(FreshDecl(fname, owner, klass, lifetime))
        elif line.startswith("goal:"):
            goal_line = (line, lineno)
        elif line.startswith("complete:"):
            body = line[len("complete:"):].split()
            try:
                complete = frozenset(int(s) for s in body)
            except ValueError:
                raise ProtocolError("bad session index in complete:", lineno)
            if any(s < 1 for s in complete):
                raise ProtocolError("complete: session indices must be >= 1", lineno)
        elif line.startswith("step"):
            m = _STEP_RE.match(line)
            if not m:
                raise ProtocolError("bad step line", lineno)
            idx, sender, receiver, msg_text, delay = m.groups()
            if sender == receiver:
                raise ProtocolError("sender and receiver must differ", lineno)
            try:
                msg = parse_term(msg_text)
            except TermSyntaxError as e:
                raise ProtocolError(f"bad message term: {e}", lineno)
            try:
                min_delay = parse_rational(delay) if delay else Fraction(0)
            except ValueError as e:
                raise ProtocolError(f"delay: {e}", lineno)
            steps.append(ProtocolStep(int(idx), sender, receiver, msg, min_delay))
        else:
            raise ProtocolError(f"unrecognized line {line!r}", lineno)

    if name is None:
        raise ProtocolError("missing name:")
    if not roles:
        raise ProtocolError("missing roles:")
    if goal_line is None:
        raise ProtocolError("missing goal:")

    line, lineno = goal_line
    m = re.match(r"^goal:\s*secrecy\s+(\S+)\s+sid\s+(\S+)$", line)
    if not m:
        raise ProtocolError("bad goal (expected: goal: secrecy <fresh> sid <n|any>)", lineno)
    secret, target = m.groups()
    try:
        target_sid: Union[int, str] = "any" if target == "any" else int(target)
    except ValueError:
        raise ProtocolError(f"bad goal sid {target!r} (a session index or 'any')", lineno)
    decl_names = {d.name for d in decls}
    if secret not in decl_names:
        raise ProtocolError(f"goal secret {secret!r} is not a declared fresh atom", lineno)
    goal = Goal(secret, target_sid, complete)

    spec = ProtocolSpec(name, tuple(roles), tuple(decls), tuple(steps), goal)
    _validate_spec(spec)
    return spec


def _fresh_atoms(t: Term):
    """The fresh atoms of ``t`` left to right, with repeats, each paired
    with whether it is a cipher key there."""
    if isinstance(t, Fresh):
        yield t, False
    elif isinstance(t, Pair):
        yield from _fresh_atoms(t.left)
        yield from _fresh_atoms(t.right)
    elif isinstance(t, Cipher):
        if isinstance(t.key, Fresh):
            yield t.key, True
        yield from _fresh_atoms(t.body)


def _validate_spec(spec: ProtocolSpec):
    for i, st in enumerate(spec.steps, start=1):
        if st.index != i:
            raise ProtocolError(f"step index gap or disorder at step {st.index}")
        for ag in (st.sender, st.receiver):
            if ag not in spec.roles:
                raise ProtocolError(f"step {st.index}: {ag!r} is not a declared role")
        if st.min_delay < 0:
            raise ProtocolError(f"step {st.index}: negative delay")

    decl_map = spec.decl_map()
    for d in spec.fresh_decls:
        if d.owner not in spec.roles:
            raise ProtocolError(f"fresh {d.name!r}: owner {d.owner!r} is not a role")

    seen: set = set()
    for st in spec.steps:
        for atom, is_key in _fresh_atoms(st.message):
            decl = decl_map.get(atom.name)
            if decl is None:
                raise ProtocolError(f"step {st.index}: undeclared fresh atom {atom.name!r}")
            if atom.name not in seen:
                if st.sender != decl.owner:
                    raise ProtocolError(
                        f"fresh {atom.name!r} first sent by {st.sender!r}, "
                        f"not its owner {decl.owner!r}"
                    )
                seen.add(atom.name)
            if is_key and decl.klass != "sesskey":
                raise ProtocolError(
                    f"step {st.index}: cipher key {atom.name!r} is not a session key"
                )


_OVERRIDE_KEYS = {"sid", "step", "kind", "edge", "L", "delay", "lifetime"}
_SCENARIO_KEYS = {"name", "overrides", "sessions", "eavesdrop", "compromised"}


def parse_scenario(json_text: str) -> Scenario:
    try:
        data = json.loads(json_text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"malformed JSON: {e}")
    except RecursionError:
        raise ScenarioError("malformed JSON: nested too deeply")
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    unknown = set(data) - _SCENARIO_KEYS
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    if not isinstance(data.get("name"), str) or not data["name"].strip():
        raise ScenarioError("'name' must be a non-empty string")
    if not isinstance(data.get("overrides"), list):
        raise ScenarioError("'overrides' must be a list")
    overrides = []
    seen: set = set()
    for i, ov in enumerate(data["overrides"]):
        if not isinstance(ov, dict):
            raise ScenarioError(f"override {i}: must be an object")
        unknown = set(ov) - _OVERRIDE_KEYS
        if unknown:
            raise ScenarioError(f"override {i}: unknown keys {sorted(unknown)}")
        sid, step = ov.get("sid"), ov.get("step")
        if not (_is_int(sid) and _is_int(step)):
            raise ScenarioError(f"override {i}: bad or missing sid/step")
        if sid < 1 or step < 1:
            raise ScenarioError(f"override {i}: sid and step must be >= 1")
        if (sid, step) in seen:
            raise ScenarioError(f"override {i}: duplicate (sid, step) = ({sid}, {step})")
        seen.add((sid, step))

        kind = ov.get("kind")
        if kind not in ("replace", "intruder", "retime"):
            raise ScenarioError(f"override {i}: unknown kind {kind!r}")

        edge = None
        message = None
        if kind in ("replace", "intruder"):
            if not isinstance(ov.get("edge"), str) or not isinstance(ov.get("L"), str):
                raise ScenarioError(f"override {i}: {kind} needs string 'edge' and 'L'")
            m = _EDGE_RE.match(ov["edge"])
            if not m:
                raise ScenarioError(f"override {i}: bad edge syntax {ov['edge']!r}")
            edge = (m.group(1), m.group(2))
            if kind == "intruder" and edge[0] != INTRUDER:
                raise ScenarioError(f"override {i}: intruder override must have sender 'I'")
            if kind == "replace" and edge[0] == INTRUDER:
                raise ScenarioError(f"override {i}: replace override cannot have sender 'I'")
            if edge[0] == edge[1]:
                raise ScenarioError(f"override {i}: edge sender and receiver must differ")
            try:
                message = parse_term(ov["L"])
            except TermSyntaxError as e:
                raise ScenarioError(f"override {i}: bad term in L: {e}")
        else:
            if "edge" in ov or "L" in ov:
                raise ScenarioError(f"override {i}: retime takes no 'edge' or 'L'")
            if "delay" not in ov and "lifetime" not in ov:
                raise ScenarioError(f"override {i}: retime needs 'delay' and/or 'lifetime'")

        delay = None
        if "delay" in ov:
            delay = _override_rational(ov["delay"], i)
            if delay < 0:
                raise ScenarioError(f"override {i}: negative delay")
        lifetime_overrides = None
        if "lifetime" in ov:
            if not isinstance(ov["lifetime"], dict):
                raise ScenarioError(f"override {i}: 'lifetime' must map fresh names to bounds")
            lifetime_overrides = {
                str(k): _override_rational(v, i) for k, v in ov["lifetime"].items()
            }
            if any(b <= 0 for b in lifetime_overrides.values()):
                raise ScenarioError(f"override {i}: lifetime must be positive")

        overrides.append(Override(sid, step, kind, edge, message, delay, lifetime_overrides))

    sessions = data.get("sessions", 1)
    if not _is_int(sessions) or sessions < 1:
        raise ScenarioError("'sessions' must be an integer >= 1")
    eavesdrop = data.get("eavesdrop", True)
    if not isinstance(eavesdrop, bool):
        raise ScenarioError("'eavesdrop' must be true or false")
    compromised = data.get("compromised", [])
    if not isinstance(compromised, list) or not all(isinstance(c, str) for c in compromised):
        raise ScenarioError("'compromised' must be a list of key terms")
    compromised = tuple(compromised)
    return Scenario(data["name"], tuple(overrides), sessions, eavesdrop, compromised)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _override_rational(value, i: int) -> Fraction:
    try:
        return parse_rational(str(value))
    except ValueError as e:
        raise ScenarioError(f"override {i}: {e}")


def compute_generation(steps, decl_map) -> dict:
    """Map each fresh term occurring in the steps to its generation step.

    ``steps`` are in (sid, index) order. The generation step is the first
    step whose message contains the term and whose sender is the declared
    owner; if the owner's send was overridden away, the first intruder step
    containing it. A term only honest non-owners send has none.
    """
    gen: dict = {}
    injected: dict = {}
    for st in steps:
        for t, _ in _fresh_atoms(st.message):
            if st.sender == INTRUDER:
                injected.setdefault(t, st)
            elif t not in gen and st.sender == decl_map[t.name].owner:
                gen[t] = st
    return {**injected, **gen}


def apply_overrides(spec: ProtocolSpec, scenario: Scenario, k: int):
    """Replicate steps over k sessions and substitute the overrides in place.

    This is the only code that builds exec steps. It returns the k x n grid
    of them, for the protocol's n steps, in (sid, index) order: step (sid,
    i) at position (sid - 1) * n + i - 1. Each step lists the fresh terms it
    generates (``compute_generation``), and carries a lifetime check, naming
    the generation step, for every lifetime-bounded fresh term it uses
    outside that step. An honest sender sends only fresh terms its step
    generates or that it sent or received earlier in the same session.
    """
    if k < 1:
        raise ScenarioError("session count must be >= 1")
    decl_map = spec.decl_map()
    nsteps = len(spec.steps)

    steps = [ExecStep(sid, st.index, st.sender, st.receiver,
                      instantiate(st.message, sid), st.min_delay)
             for sid in range(1, k + 1) for st in spec.steps]

    lifetime_adjust: dict = {}  # (sid, step) -> {fresh name: bound}
    for ov in scenario.overrides:
        if not (1 <= ov.sid <= k and 1 <= ov.step <= nsteps):
            raise ScenarioError(
                f"override ({ov.sid},{ov.step}) out of range for k={k}, {nsteps} steps"
            )
        at = (ov.sid - 1) * nsteps + ov.step - 1
        cur = steps[at]
        if ov.kind in ("replace", "intruder"):
            sender, receiver = ov.edge
            for ag in (sender, receiver):
                if ag != INTRUDER and ag not in spec.roles:
                    raise ScenarioError(f"override edge names undeclared agent {ag!r}")
            msg = instantiate(ov.message, ov.sid)
            for atom, is_key in _fresh_atoms(msg):
                decl = decl_map.get(atom.name)
                if decl is None:
                    raise ScenarioError(
                        f"override message uses undeclared fresh atom {atom.name!r}")
                if atom.sid > k:  # the term parser rejects an index below 1
                    raise ScenarioError(f"override ({ov.sid},{ov.step}): fresh value "
                                        f"{render_term(atom)} is not of sessions 1..{k}")
                if is_key and decl.klass != "sesskey":
                    raise ScenarioError(
                        f"override cipher key {atom.name!r} is not a declared session key")
            cur = dc_replace(cur, sender=sender, receiver=receiver, message=msg)
        if ov.delay is not None:
            cur = dc_replace(cur, min_delay=ov.delay)
        if ov.lifetime_overrides:
            for fname in ov.lifetime_overrides:
                if fname not in decl_map:
                    raise ScenarioError(f"lifetime override for undeclared fresh {fname!r}")
            lifetime_adjust[(ov.sid, ov.step)] = dict(ov.lifetime_overrides)
        steps[at] = cur

    gen = {t: st.ref for t, st in compute_generation(steps, decl_map).items()}

    out = []
    seen = set()  # (sid, agent, fresh term) of the messages an agent sent or received
    for st in steps:
        fresh = dict.fromkeys(t for t, _ in _fresh_atoms(st.message))
        generates = tuple(t for t in fresh if gen.get(t) == st.ref)
        for t in fresh:
            if not (st.gated or t in generates or (st.sid, st.sender, t) in seen):
                raise ScenarioError(
                    f"step ({st.sid},{st.index}): {st.sender} sends {render_term(t)} "
                    "before it generates or receives it")
            seen |= {(st.sid, st.sender, t), (st.sid, st.receiver, t)}
        # the loop above leaves only terms that have a generation step
        adjust = lifetime_adjust.get(st.ref, {})
        checks = []
        for t in sorted(fresh, key=lambda f: (f.name, f.sid)):
            bound = adjust.get(t.name, decl_map[t.name].lifetime)
            # generation itself is unconstrained
            if gen[t] != st.ref and bound is not None:
                checks.append(LifetimeCheck(t, bound, gen[t]))
        unused = sorted(set(adjust) - {c.term.name for c in checks})
        if unused:
            raise ScenarioError(
                f"override ({st.sid},{st.index}): lifetime for {unused[0]!r} is never "
                f"checked: the step sends no {unused[0]} it does not generate")
        out.append(dc_replace(st, lifetime_checks=tuple(checks), generates=generates))
    return out


def effective_require_complete(spec: ProtocolSpec, steps, k: int) -> frozenset:
    """Sessions whose final step must fire for the goal's completion part.

    An explicit ``complete:`` line wins (clipped to the sessions that
    exist); otherwise every session that retains at least one step with an
    honest receiver is required.
    """
    if spec.goal.require_complete is not None:
        return frozenset(s for s in spec.goal.require_complete if 1 <= s <= k)
    required = set()
    for st in steps:
        if st.receiver != INTRUDER:
            required.add(st.sid)
    return frozenset(required)
