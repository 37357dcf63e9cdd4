"""Seeded sweep over goal variants of the library at two sessions.

A variant rewrites a library protocol's goal: any fresh atom as the goal
secret, goal sid any/1/2, no ``complete:`` line, an empty one, ``1`` or
``2``, and eavesdropping on or off. The sweep checks a fixed sample of
the variants the frontend accepts against the explicit-state oracle.
"""

import random
from dataclasses import replace

import pytest

from tspbmc.encoder import decode, encode
from tspbmc.errors import TspbmcError
from tspbmc.frontend import parse_protocol, parse_scenario
from tspbmc.model import build_model
from tspbmc.oracle import explicit_reach
from tspbmc.solver import default_max_bound, iterate_bounds
from tspbmc.witness import replay

from conftest import solver_config

SAMPLE = 40
SIDS = ("any", "1", "2")
COMPLETES = (None, "", "1", "2")  # None: no complete: line


def variants(lib):
    """(name, model) of every goal variant at k=2 the frontend accepts."""
    out = []
    for name, entry in sorted(lib.items()):
        lines = [line for line in entry.protocol.splitlines()
                 if not line.startswith(("goal:", "complete:"))]
        spec = parse_protocol(entry.protocol)
        for scen_name, scen_text in sorted(entry.scenarios.items()):
            scen = parse_scenario(scen_text)
            for atom in sorted(d.name for d in spec.fresh_decls):
                for sid in SIDS:
                    for complete in COMPLETES:
                        extra = [f"goal: secrecy {atom} sid {sid}"]
                        if complete is not None:
                            extra.append(f"complete: {complete}".rstrip())
                        text = "\n".join(lines + extra) + "\n"
                        for eav in (True, False):
                            key = (name, scen_name, atom, sid, complete, eav)
                            try:
                                out.append((key, build_model(
                                    parse_protocol(text), replace(scen, eavesdrop=eav), k=2)))
                            except TspbmcError:
                                continue
    return out


@pytest.fixture(scope="module")
def sample(lib):
    return random.Random(0).sample(variants(lib), SAMPLE)


def test_sample_covers_every_variant_dimension(lib, sample):
    keys = [key for key, _ in sample]
    assert {(k[0], k[2]) for k in keys} == {
        (name, d.name) for name, entry in lib.items()
        for d in parse_protocol(entry.protocol).fresh_decls}
    assert {k[3] for k in keys} == set(SIDS)
    assert {k[4] for k in keys} == set(COMPLETES)
    assert {k[5] for k in keys} == {True, False}
    assert {k[1] for k in keys if k[5]} and {k[1] for k in keys if not k[5]}


def test_verdict_and_minimal_bound_match_the_oracle(sample):
    attacks = 0
    for key, model in sample:
        verdict = iterate_bounds(model, config=solver_config())
        oracle = explicit_reach(model, depth=default_max_bound(model))
        if oracle.outcome == "attack-found":
            attacks += 1
            # a bound below the goal floor is answered by (assert false)
            assert oracle.depth >= model.goal_floor, key
            assert (verdict.outcome, verdict.bound) == ("attack-found", oracle.depth), key
            trace = decode(verdict.result, encode(model, verdict.bound), model)
            assert replay(trace, model) is None, key
        else:
            assert (verdict.outcome, verdict.bound) == (
                "no-attack-up-to", default_max_bound(model)), key
    assert 0 < attacks < len(sample)
