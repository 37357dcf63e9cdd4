"""Verification-model construction.

Combines the instantiated execution steps with a finite term universe,
per-agent initial knowledge, compiled Dolev-Yao derivation rules, the
intruder's minimal root supports (``labels``, exact, in the manner of de
Kleer's ATMS labels, AIJ 1986) and the timing structure. The resulting
TiisModel is immutable and shared by the SMT encoder, the witness
replayer and the explicit-state oracle.

``gate_table`` names, once, the deliverers that can open each gate.
``goal_analysis`` reads it for two static facts that the encoder and the
bound loop use and the oracle does not: the goal's cone of influence (the
steps a goal run can need, as in Clarke, Grumberg & Peled, *Model
Checking*, 1999) and the goal floor L (no goal holds before position L).

``Run`` is the one concrete semantics of a model: session order,
delivery to ``receivers`` with knowledge closure, a sender's knowledge
of the fresh terms its step generates, and the goal test; a step's
knowledge deltas are the runs before and after it, compared.
``witness.trace_of`` (``encoder.decode``, replay), the oracle and
``adequacy_warnings`` step through it. The timing rules are
``step_constraints``, which read a run: its pcs and its last fired step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Optional

from .dbm import ZERO
from .errors import ModelError, ScenarioError, TermSyntaxError
from .frontend import (
    INTRUDER,
    ProtocolSpec,
    Scenario,
    apply_overrides,
    effective_require_complete,
)
from .terms import (
    Cipher,
    Fresh,
    Ident,
    Pair,
    PrivKey,
    PubKey,
    SymKey,
    Term,
    TermUniverse,
    inverse_key,
    is_key_form,
    parse_term,
    render_term,
    subterms,
)


@dataclass(frozen=True)
class DerivationRule:
    kind: str  # split-left | split-right | decrypt | pair | encrypt
    premises: tuple  # term ids
    conclusion: int  # term id


@dataclass(frozen=True)
class TiisModel:
    """The verification model. ``exec_steps`` is the k x n grid that
    ``frontend.apply_overrides`` builds, so a step is found by its ref."""
    protocol: str
    scenario: str
    sessions: int
    agents: tuple  # roles + intruder
    exec_steps: tuple  # k x n, in (sid, index) order
    universe: TermUniverse
    rules: tuple
    depth: int  # universe nesting depth (at least 1)
    initial_knowledge: dict  # agent -> frozenset of term ids
    require_complete: frozenset
    goal_secret_ids: tuple  # term ids the intruder must learn (disjunction)
    eavesdrop: bool
    labels: tuple  # term id -> minimal root supports (sorted id tuples)
    gates: dict  # gated step ref, None for the goal -> the gate (gate_table)
    cone: frozenset  # refs of the steps a goal run can need
    goal_floor: int  # L: no goal holds at a position before it

    def steps_per_session(self) -> int:
        return len(self.exec_steps) // self.sessions

    def step_at(self, sid: int, index: int):
        n = self.steps_per_session()
        if not (1 <= sid <= self.sessions and 1 <= index <= n):
            raise KeyError((sid, index))
        return self.exec_steps[(sid - 1) * n + index - 1]


def build_universe(steps, roles, compromised) -> TermUniverse:
    """Deterministic subterm-closed universe for the given exec steps.

    Contains all step messages with their subterms, every agent identity,
    the intruder's key pair, the long-term keys implied by the messages,
    the compromised keys, and the inverse of every key member.
    """
    members = set(subterms(*(st.message for st in steps)))

    agents = list(roles) + [INTRUDER]
    for a in agents:
        members.add(Ident(a))
    members.add(PubKey(INTRUDER))

    if any(isinstance(t, (PubKey, PrivKey)) for t in members):
        for a in agents:
            members.add(PubKey(a))
    members.update(compromised)

    for t in list(members):
        if is_key_form(t):
            members.add(inverse_key(t))

    return TermUniverse(members)


def _check_compromised(spec: ProtocolSpec, compromised, k: int) -> list:
    """The key term of each compromised entry.

    Each entry names only declared roles or the intruder, a fresh atom in
    it is a declared session key of one of the k sessions, and it is a key
    the intruder does not know initially.
    """
    sesskeys = {d.name for d in spec.fresh_decls if d.klass == "sesskey"}
    keys = []
    for text in compromised:
        try:
            key = parse_term(text)
        except TermSyntaxError as e:
            raise ScenarioError(f"compromised entry {text!r}: {e}") from e
        if isinstance(key, Fresh) and not (key.name in sesskeys and key.sid and key.sid <= k):
            raise ScenarioError(f"compromised entry {text!r} is not a declared "
                                f"session key of sessions 1..{k}")
        # the agents a key names: two for a symmetric key, one for a public or
        # private key, and none (INTRUDER, always declared) for other terms
        named = (key.a, key.b) if isinstance(key, SymKey) else (getattr(key, "agent", INTRUDER),)
        for agent in named:
            if agent not in spec.roles + (INTRUDER,):
                raise ScenarioError(
                    f"compromised entry {text!r}: {agent!r} is not a declared role")
        if not is_key_form(key):
            raise ScenarioError(f"compromised entry {text!r} is not a key")
        if _known_initially(INTRUDER, key):
            raise ScenarioError(
                f"compromised entry {text!r} is a key the intruder knows initially")
        keys.append(key)
    return keys


def _known_initially(agent: str, t: Term) -> bool:
    """Whether ``agent`` knows ``t`` before any step: an identity, a public
    key, or one of its own private or shared long-term keys."""
    return (isinstance(t, (Ident, PubKey))
            or (isinstance(t, PrivKey) and t.agent == agent)
            or (isinstance(t, SymKey) and agent in (t.a, t.b)))


def initial_knowledge(agent: str, universe: TermUniverse) -> FrozenSet[int]:
    """Initial Dolev-Yao knowledge: the universe members ``_known_initially``.

    Fresh protocol atoms are never initially known; they enter the model at
    their generation step. ``build_model`` adds the compromised keys to the
    intruder's.
    """
    return frozenset(universe.id_of(t) for t in universe if _known_initially(agent, t))


def compile_rules(universe: TermUniverse):
    """Instantiate the Dolev-Yao rule schemas over the universe members.

    Pairs yield split-left, split-right and pair rules; ciphers yield an
    encrypt rule and, when the inverse key is a universe member, a decrypt
    rule. Composition targets universe members only.
    """
    rules = []
    for t in universe:
        tid = universe.id_of(t)
        if isinstance(t, Pair):
            left, right = universe.id_of(t.left), universe.id_of(t.right)
            rules.append(DerivationRule("split-left", (tid,), left))
            rules.append(DerivationRule("split-right", (tid,), right))
            rules.append(DerivationRule("pair", (left, right), tid))
        elif isinstance(t, Cipher):
            key, body = universe.id_of(t.key), universe.id_of(t.body)
            inv = inverse_key(t.key)
            if inv in universe:
                rules.append(DerivationRule("decrypt", (tid, universe.id_of(inv)), body))
            rules.append(DerivationRule("encrypt", (key, body), tid))
    return tuple(rules)


# Most minimal root sets one label may hold before build_model gives up.
LABEL_CAP = 64


def closure(known, rules) -> FrozenSet[int]:
    """Least fixpoint of rule application starting from ``known``."""
    out = set(known)
    changed = True
    while changed:
        changed = False
        for r in rules:
            if r.conclusion not in out and out.issuperset(r.premises):
                out.add(r.conclusion)
                changed = True
    return frozenset(out)


def constructible(known, t: Term, universe: TermUniverse) -> bool:
    """Can the intruder produce ``t`` from the closed knowledge ``known``?

    The rules hold pair and encrypt for every universe member, and the
    universe is subterm-closed, so this is membership in the closure; the
    minimal root supports of ``t`` are its label.
    """
    return universe.id_of(t) in known


def step_constraints(run, step) -> list:
    """The timing constraints that firing ``step`` in ``run`` adds, as
    ``dbm`` constraints over (sid, index) nodes, each tagged "delay" or
    "lifetime".

    The step fires at least its minimum delay after its session
    predecessor (or after time 0), no earlier than ``run.last``, and within
    each lifetime bound of a generation step (s, i) that has already fired:
    ``run.pc[s - 1] > i``. Only fired steps get times: every constraint on
    an unfired step is a lower bound, and unfired steps form session
    suffixes, so firing them late meets those constraints; a generation
    step that fires after the use is no earlier than it, and lifetimes are
    positive.
    """
    node = step.ref
    pred = (step.sid, step.index - 1) if step.index > 1 else ZERO
    out = [(node, pred, -step.min_delay, "delay"), (node, run.last, Fraction(0), "delay")]
    for check in step.lifetime_checks:
        sid, i = check.gen
        if run.pc[sid - 1] > i:
            out.append((check.gen, node, check.bound, "lifetime"))
    return out


def build_model(spec: ProtocolSpec, scenario: Scenario,
                k: Optional[int] = None) -> TiisModel:
    """Compose the frontend and knowledge machinery into a TiisModel."""
    k = scenario.sessions if k is None else k

    steps = apply_overrides(spec, scenario, k)
    compromised = _check_compromised(spec, scenario.compromised, k)
    universe = build_universe(steps, spec.roles, compromised)
    agents = tuple(spec.roles) + (INTRUDER,)
    init = {a: initial_knowledge(a, universe) for a in agents}
    init[INTRUDER] |= {universe.id_of(key) for key in compromised}
    rules = compile_rules(universe)

    secret_ids = []
    goal = spec.goal
    sids = [goal.target_sid] if goal.target_sid != "any" else list(range(1, k + 1))
    for sid in sids:
        t = Fresh(goal.secret, sid)
        if t in universe:
            secret_ids.append(universe.id_of(t))
    if not secret_ids:
        raise ModelError(
            f"goal secret {goal.secret!r} (sid {goal.target_sid}) appears in no step"
        )

    require = effective_require_complete(spec, steps, k)
    deliveries = intruder_deliveries(steps, universe, scenario.eavesdrop)
    labels = tuple(_sorted_label(lab) for lab in
                   support_labels(universe, rules, init[INTRUDER], deliveries))
    gates = gate_table(steps, universe, labels, deliveries, secret_ids)
    if not require and () in gates[None]:
        secret = next(universe.term_of(tid) for tid in secret_ids if () in labels[tid])
        raise ModelError(f"the goal holds before any step: the intruder knows goal secret "
                         f"{render_term(secret)} initially and no session must complete")
    cone, goal_floor = goal_analysis(steps, gates, require)

    return TiisModel(
        protocol=spec.name,
        scenario=scenario.name,
        sessions=k,
        agents=agents,
        exec_steps=tuple(steps),
        universe=universe,
        rules=rules,
        depth=max(universe.depth, 1),
        initial_knowledge=init,
        require_complete=require,
        goal_secret_ids=tuple(secret_ids),
        eavesdrop=scenario.eavesdrop,
        labels=labels,
        gates=gates,
        cone=cone,
        goal_floor=goal_floor,
    )


def _antichain(sets, universe: TermUniverse, tid: int) -> list:
    """The inclusion-minimal members of ``sets``; ModelError past LABEL_CAP."""
    out = []
    for s in sorted(set(sets), key=len):
        if not any(t <= s for t in out):
            out.append(s)
    if len(out) > LABEL_CAP:
        raise ModelError(
            f"intruder knowledge of {render_term(universe.term_of(tid))} has more "
            f"than {LABEL_CAP} minimal root supports")
    return out


def _unions(left, right):
    return [a | b for a in left for b in right]


def _sorted_label(sets) -> tuple:
    return tuple(sorted((tuple(sorted(s)) for s in sets), key=lambda s: (len(s), s)))


def support_labels(universe: TermUniverse, rules, init, roots) -> list:
    """Per term id, the minimal root-id sets S with the term in
    ``closure(init ∪ S)``, as lists of frozensets; empty if none.

    Least fixpoint over the Horn rules: a rule's conclusion gets the
    minimized unions of one label member from each premise.
    """
    labels = [[] for _ in range(len(universe))]
    for r in roots:
        labels[r] = [frozenset((r,))]
    for t in init:
        labels[t] = [frozenset()]
    changed = True
    while changed:
        changed = False
        for rule in rules:
            derived = [frozenset()]
            for p in rule.premises:
                derived = _unions(derived, labels[p])
            c = rule.conclusion
            merged = _antichain(labels[c] + derived, universe, c)
            if set(merged) != set(labels[c]):
                labels[c] = merged
                changed = True
    return labels


def receivers(step, eavesdrop: bool) -> set:
    """Agents that learn ``step``'s message when it fires."""
    return {step.receiver, INTRUDER} if eavesdrop else {step.receiver}


def intruder_deliveries(steps, universe: TermUniverse, eavesdrop: bool) -> dict:
    """Root id -> the exec steps that deliver it to the intruder, in the
    order of ``steps``; the keys are the intruder's roots."""
    out = {}
    for st in steps:
        if INTRUDER in receivers(st, eavesdrop):
            out.setdefault(universe.id_of(st.message), []).append(st)
    return out


def gate_table(steps, universe: TermUniverse, labels, deliveries: dict, secret_ids) -> dict:
    """Gated step ref, and None for the goal -> its gate: per support of the
    label (the message's, or the goal secrets' in turn), in label order and
    unusable ones kept, per root, the deliverers that can fire before the
    step: all but the step and its session's later steps (the goal: all)."""
    def gate(label, st):
        return tuple(tuple(tuple(d for d in deliveries[m] if st is None or d.sid != st.sid
                                 or d.index < st.index) for m in sup) for sup in label)

    table = {st.ref: gate(labels[universe.id_of(st.message)], st) for st in steps if st.gated}
    table[None] = gate([sup for tid in secret_ids for sup in labels[tid]], None)
    return table


def goal_analysis(steps, gates: dict, require):
    """The goal's cone of influence and the goal floor L, as (cone refs, L).

    Both close a set of steps under session prefix and, for each gated
    step, under the deliverers its gate lists (``gate_table``). The cone
    starts from every step of each required session and every deliverer
    the goal's gate lists. Dropping the steps outside it from a goal run
    leaves a run: session order, every gate and the goal see the same
    deliveries, times are kept, and a lifetime binds only after its
    generation step has fired. So a run reaching the goal within n
    transitions has a cone run that does too.

    L is the size of a set of steps that every goal run fires by its goal
    position. The set starts and closes the same way, but a gate adds
    only a step d that every usable support needs: some root of the
    support has d as its one listed deliverer. L is also no less than the
    required sessions' step count plus, for the cheapest goal support,
    the longest session prefix outside them that a root needs. So no goal
    holds before position L. If the goal, or a gated step of the set, has
    no usable support, no goal run exists and L is past every run: the
    step count plus one.
    """
    last = steps[-1].index  # steps are the k x n grid

    def at(sid, i):
        return steps[(sid - 1) * last + i - 1]

    def may(gate):  # every listed deliverer
        return [d for sup in gate for ds in sup for d in ds]

    def must(gate):  # the steps every usable support needs; None if none is usable
        sole = [{ds[0].ref for ds in sup if len(ds) == 1} for sup in gate if all(sup)]
        return [at(*ref) for ref in sorted(set.intersection(*sole))] if sole else None

    def closed(needed):
        """The required sessions' steps and ``needed(gates[None])``, closed
        under session prefix and ``needed`` of each gate; None where it is."""
        out = set()
        todo = needed(gates[None])
        if todo is None:
            return None
        todo += [st for st in steps if st.sid in require]
        while todo:
            st = todo.pop()
            if st.ref not in out:
                out.add(st.ref)
                todo += [at(st.sid, i) for i in range(1, st.index)]
                if st.gated:
                    more = needed(gates[st.ref])
                    if more is None:
                        return None
                    todo += more
        return out

    outside = min((max((min(0 if d.sid in require else d.index for d in ds)
                        for ds in sup), default=0) for sup in gates[None]), default=0)
    core = closed(must)
    floor = (len(steps) + 1 if core is None
             else max(1, len(core), len(require) * last + outside))
    return frozenset(closed(may)), floor


@dataclass(frozen=True, eq=False, slots=True)
class Run:
    """The concrete state of an interleaving of ``model``'s exec steps: for
    each session the index of its next step, for each agent its knowledge,
    closed under the rules, and the last fired step, which the timing rules
    read. ``witness.trace_of``, the oracle and the adequacy check step
    through it: the concrete semantics is written once.
    """
    model: TiisModel
    pc: tuple  # sid - 1 -> index of the session's next step
    known: dict  # agent -> frozenset of term ids
    last: object  # ref of the last fired step; dbm.ZERO before any step

    @classmethod
    def start(cls, model: TiisModel) -> "Run":
        return cls(model, (1,) * model.sessions,
                   {a: closure(model.initial_knowledge[a], model.rules)
                    for a in model.agents}, ZERO)

    def then(self, step) -> "Run":
        """Fire ``step``: its message goes to ``receivers(step,
        model.eavesdrop)``, and an honest sender knows the fresh terms the
        step generates. Returns the next run, in which an agent that
        learns nothing keeps the same knowledge set object."""
        model = self.model
        id_of = model.universe.id_of
        new = {a: {id_of(step.message)} for a in receivers(step, model.eavesdrop)}
        if step.sender != INTRUDER:
            new[step.sender] = {id_of(t) for t in step.generates}
        known = dict(self.known)
        for a, ids in new.items():
            if not ids <= known[a]:  # closed knowledge holding them is unchanged
                known[a] = closure(known[a] | ids, model.rules)
        pc = self.pc[:step.sid - 1] + (step.index + 1,) + self.pc[step.sid:]
        return Run(model, pc, known, step.ref)

    def goal(self) -> Optional[int]:
        """A goal-secret id the intruder knows once every required session
        has fired its last step; None before that or if it knows none."""
        last = self.model.steps_per_session()
        if any(self.pc[sid - 1] <= last for sid in self.model.require_complete):
            return None
        return next((tid for tid in self.model.goal_secret_ids
                     if tid in self.known[INTRUDER]), None)


def adequacy_warnings(model: TiisModel):
    """Protocol well-formedness: honest receivers should be able to read
    the ciphers addressed to them when steps run in declaration order."""
    warnings = []
    run = Run.start(model)
    for st in model.exec_steps:
        run = run.then(st)
        if st.receiver != INTRUDER and isinstance(st.message, Cipher):
            body_id = model.universe.id_of(st.message.body)
            if body_id not in run.known[st.receiver]:
                warnings.append(
                    f"step ({st.sid},{st.index}): receiver {st.receiver} cannot decrypt "
                    f"{render_term(st.message)}"
                )
    return warnings


def model_to_json(model: TiisModel) -> dict:
    """Debug serialization (CLI dump-model); deterministic."""
    return {
        "protocol": model.protocol,
        "scenario": model.scenario,
        "sessions": model.sessions,
        "agents": list(model.agents),
        "eavesdrop": model.eavesdrop,
        "depth": model.depth,
        "universe": [render_term(t) for t in model.universe],
        "rules": [
            {"kind": r.kind, "premises": list(r.premises), "conclusion": r.conclusion}
            for r in model.rules
        ],
        "exec_steps": [
            {
                "sid": st.sid,
                "step": st.index,
                "sender": st.sender,
                "receiver": st.receiver,
                "message": render_term(st.message),
                "min_delay": str(st.min_delay),
                "gated": st.gated,
                "lifetime_checks": [
                    {"term": render_term(c.term), "bound": str(c.bound), "gen": list(c.gen)}
                    for c in st.lifetime_checks
                ],
                "generates": [render_term(t) for t in st.generates],
            }
            for st in model.exec_steps
        ],
        "initial_knowledge": {
            a: sorted(model.initial_knowledge[a]) for a in model.agents
        },
        "require_complete": sorted(model.require_complete),
        "goal_secrets": [render_term(model.universe.term_of(i)) for i in model.goal_secret_ids],
        "cone": [{"sid": sid, "step": i} for sid, i in sorted(model.cone)],
        "goal_floor": model.goal_floor,
        "warnings": adequacy_warnings(model),
    }
