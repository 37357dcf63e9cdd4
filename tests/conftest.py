import json
import sys

import pytest

from tspbmc import library
from tspbmc.frontend import parse_protocol, parse_scenario
from tspbmc.model import build_model, closure, constructible
from tspbmc.errors import TspbmcError
from tspbmc.frontend import INTRUDER
from tspbmc.solver import SolverConfig

# the bundled solver keeps the suite hermetic regardless of what's on PATH
BUNDLED = (sys.executable, "-m", "tspbmc.smtlite")


@pytest.fixture(scope="session")
def lib():
    return library.entries()


# answers the first assertion with an error and then every check-sat with
# sat, as a solver that read only part of a script might
ERROR_REPLY = """(error "unsupported: operator '='")"""
ERROR_THEN_SAT = (
    "import sys\n"
    "said = False\n"
    "for line in sys.stdin:\n"
    "    if '(assert' in line and not said:\n"
    f"        print({ERROR_REPLY!r}, flush=True)\n"
    "        said = True\n"
    "    if 'check-sat' in line: print('sat', flush=True)\n"
    "    if 'get-value' in line: print('((x true))', flush=True)\n")


def sat_then(reply) -> str:
    """A solver body that answers every script sat, and get-value with
    ``reply``, or ends its output there when ``reply`` is None."""
    answer = "sys.exit()" if reply is None else f"print({reply!r}, flush=True)"
    return ("import sys\n"
            "for line in sys.stdin:\n"
            "    if 'check-sat' in line: print('sat', flush=True)\n"
            f"    if 'get-value' in line: {answer}\n")


# a protocol whose receiver never learns the key of the cipher it receives
UNREADABLE = """
name: UNREADABLE
roles: A B
fresh: Na by A class nonce lifetime none
fresh: Kab by A class sesskey lifetime none
goal: secrecy Na sid any
step 1: A -> B : <Kab, Na>
"""


def replay_chain(k: int, lifetime) -> str:
    """The replay chain, a scenario for the wmf protocol: KBS is
    compromised, and each session 2..k replays session 1's first message to
    S, as replay_tight's session 2 does, with ``lifetime`` on Ta. It is safe
    at lifetime 3, and has an attack at bound 3k at lifetime 100."""
    overrides = []
    for sid in range(2, k + 1):
        overrides += [
            {"sid": sid, "step": 1, "kind": "intruder", "edge": "I->S",
             "L": "<KAS,Ta#1|B|Kab#1>"},
            {"sid": sid, "step": 2, "kind": "replace", "edge": "S->B",
             "L": "<KBS,Ta#1|A|Kab#1>", "delay": 8, "lifetime": {"Ta": lifetime}},
            {"sid": sid, "step": 3, "kind": "replace", "edge": "B->A",
             "L": "<Kab#1,Ta#1>", "lifetime": {"Ta": lifetime}},
        ]
    return json.dumps({"name": f"replay_chain_{lifetime}", "sessions": k,
                       "compromised": ["KBS"], "overrides": overrides})


def load(lib, protocol: str, scenario: str):
    entry = lib[protocol]
    return (parse_protocol(entry.protocol),
            parse_scenario(entry.scenarios[scenario]))


def model_of(lib, protocol: str, scenario: str, k=None):
    spec, scen = load(lib, protocol, scenario)
    return build_model(spec, scen, k=k)


def library_models(lib, ks=(1, 2)):
    """Every (protocol, scenario, k) model the frontend accepts."""
    for name, entry in sorted(lib.items()):
        for scen in sorted(entry.scenarios):
            for k in ks:
                try:
                    yield model_of(lib, name, scen, k=k)
                except TspbmcError:
                    continue  # overrides reference sessions beyond k


def assert_labels_exact(model, rng, samples: int):
    """The minimal root supports agree with concrete closure: on random
    subsets S of the intruder's roots, the messages of the honest sends it
    sees (plus the empty and the full set), a term is in closure(init[I] |
    S) iff some support is a subset of S, and a gated message is
    constructible iff some support of its label is. Every support is
    minimal."""
    rules, universe = model.rules, model.universe
    init = model.initial_knowledge[INTRUDER]
    roots = sorted({universe.id_of(st.message) for st in model.exec_steps
                    if not st.gated and (st.receiver == INTRUDER or model.eavesdrop)})
    subsets = [frozenset(), frozenset(roots)] + [
        frozenset(rng.sample(roots, rng.randrange(len(roots) + 1)))
        for _ in range(samples)]
    gated = {universe.id_of(st.message): st.message
             for st in model.exec_steps if st.gated}
    for s in subsets:
        known = closure(init | s, rules)
        for tid in range(len(universe)):
            assert (tid in known) == any(set(sup) <= s for sup in model.labels[tid])
        for tid, message in gated.items():
            assert constructible(known, message, universe) == any(
                set(sup) <= s for sup in model.labels[tid])
    for tid, label in enumerate(model.labels):
        for sup in label:
            assert tid in closure(init | set(sup), rules)
            for m in sup:
                assert tid not in closure(init | (set(sup) - {m}), rules)


def naive_closure(known, rules) -> frozenset:
    """The reference knowledge closure: sweep every rule until a sweep adds
    nothing. It shares no code with ``model.closure``."""
    out = set(known)
    changed = True
    while changed:
        changed = False
        for r in rules:
            if r.conclusion not in out and out.issuperset(r.premises):
                out.add(r.conclusion)
                changed = True
    return frozenset(out)


def naive_labels(size: int, rules, init, roots) -> list:
    """The reference minimal root supports, per term id below ``size``: sweep
    every rule, giving its conclusion the minimal unions of one support of
    each premise, until a sweep changes no label. Each label is a sorted
    tuple of sorted id tuples, as ``TiisModel.labels`` holds it."""
    labels = [set() for _ in range(size)]
    for r in roots:
        labels[r] = {frozenset((r,))}
    for t in init:
        labels[t] = {frozenset()}
    changed = True
    while changed:
        changed = False
        for rule in rules:
            derived = {frozenset()}
            for p in rule.premises:
                derived = {a | b for a in derived for b in labels[p]}
            both = labels[rule.conclusion] | derived
            minimal = {s for s in both if not any(t < s for t in both)}
            if minimal != labels[rule.conclusion]:
                labels[rule.conclusion] = minimal
                changed = True
    return [tuple(sorted((tuple(sorted(s)) for s in label), key=lambda s: (len(s), s)))
            for label in labels]


def solver_config(**kw) -> SolverConfig:
    kw.setdefault("command", BUNDLED)
    kw.setdefault("timeout", 120.0)
    return SolverConfig(**kw)
