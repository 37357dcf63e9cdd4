"""Acceptance suite: one test per release criterion.

Each test prints an `ACCEPTANCE CRITERION n PASS/FAIL` line on the real
terminal (bypassing capture) so the verdicts are visible in any log.
"""

import random
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import replace

import pytest

from tspbmc.cli import main
from tspbmc.encoder import decode, encode
from tspbmc.errors import TspbmcError
from tspbmc.model import build_model, closure, model_to_json
from tspbmc.oracle import explicit_reach
from tspbmc.solver import iterate_bounds
from tspbmc.terms import parse_term, render_term
from tspbmc.witness import parse_json, render_json, replay

from conftest import (
    BUNDLED,
    assert_labels_exact,
    library_models,
    load,
    model_of,
    solver_config,
)
from test_terms import _random_term

BUNDLED_CMD = " ".join(BUNDLED)


@contextmanager
def criterion(capsys, num, title):
    try:
        yield
    except BaseException:
        _line(capsys, num, title, "FAIL")
        raise
    _line(capsys, num, title, "PASS")


def _line(capsys, num, title, status):
    with capsys.disabled():
        print(f"ACCEPTANCE CRITERION {num} {status}: {title}", flush=True)


def check_cli(*args) -> int:
    return main(["check", *args, "--solver", BUNDLED_CMD])


@pytest.fixture(scope="module")
def sweep(lib):
    """Every (protocol, scenario, k<=2) combination the frontend accepts,
    verified both by bounded SMT and by the explicit-state oracle."""
    rows = []
    for name, entry in sorted(lib.items()):
        for scen in sorted(entry.scenarios):
            for k in (1, 2):
                spec, scn = load(lib, name, scen)
                try:
                    model = build_model(spec, scn, k=k)
                except TspbmcError:
                    continue  # overrides reference sessions beyond k
                verdict = iterate_bounds(
                    model, config=solver_config(max_bound=8))
                oracle = explicit_reach(model, depth=8)
                rows.append((name, scen, k, model, verdict, oracle))
    return rows


def test_criterion_1_fair_run_safety(capsys, lib):
    with criterion(capsys, 1, "fair NSPK-T run is safe (SMT and oracle)"):
        assert check_cli("nspkt", "fair", "--sessions", "1",
                         "--max-bound", "6") == 0
        oracle = explicit_reach(model_of(lib, "nspkt", "fair", k=1), depth=6)
        assert oracle.outcome == "no-attack-up-to"


def test_criterion_2_mitm_reproduction(capsys, lib):
    with criterion(capsys, 2, "MITM attack found at oracle-minimal bound "
                              "with a replay-valid witness"):
        model = model_of(lib, "nspkt", "mitm1_lowe", k=2)
        oracle = explicit_reach(model, depth=8)
        assert (oracle.outcome, oracle.depth) == ("attack-found", 5)
        verdict = iterate_bounds(model, config=solver_config(max_bound=8))
        assert (verdict.outcome, verdict.bound) == ("attack-found", 5)
        trace = decode(verdict.result, encode(model, 5), model)
        assert replay(trace, model) is None
        # the goal: the intruder learns the secret and the required
        # sessions run to completion
        assert trace.secret == parse_term("Tb#2")
        assert any(trace.secret in ev.deltas.get("I", ())
                   for ev in trace.events)
        assert set(trace.completed_sessions) >= set(model.require_complete)
        assert check_cli("nspkt", "mitm1_lowe", "--sessions", "2") == 10


def test_criterion_3_fix_resists_attack(capsys):
    with criterion(capsys, 3, "Lowe-fixed protocol resists the adapted MITM"):
        assert check_cli("nspkt_lowe_fixed", "mitm1_lowe_adapted",
                         "--sessions", "2", "--max-bound", "8") == 0


def test_criterion_4_lifetime_gated_replay(capsys):
    with criterion(capsys, 4, "WMF replay decided solely by the lifetime"):
        assert check_cli("wmf", "replay_generous", "--max-bound", "8") == 10
        assert check_cli("wmf", "replay_tight", "--max-bound", "8") == 0


def test_criterion_5_smt_oracle_equivalence(capsys, sweep):
    with criterion(capsys, 5, "SMT and oracle verdicts agree on the whole "
                              "library sweep (k in {1,2}, bound <= 8)"):
        assert len(sweep) >= 12
        for name, scen, k, model, verdict, oracle in sweep:
            label = (name, scen, k)
            assert verdict.outcome == oracle.outcome, label
            if verdict.outcome == "attack-found":
                assert verdict.bound == oracle.depth, label
        assert any(v.outcome == "attack-found" for *_, v, _ in sweep)
        assert any(v.outcome == "no-attack-up-to" for *_, v, _ in sweep)


def test_criterion_6_closure_properties(capsys, lib):
    with criterion(capsys, 6, "closure laws hold on randomized sets and the "
                              "minimal root supports are exact"):
        models = [model_of(lib, p, s) for p, s in [
            ("nspkt", "mitm1_lowe"), ("wmf", "replay_generous"),
            ("dsp", "key_compromise"), ("nspkt_lowe_fixed", "fair")]]
        rng = random.Random(20240824)
        pools = [(m, [m.universe.id_of(t) for t in m.universe]) for m in models]
        for _ in range(1000):
            model, ids = rng.choice(pools)
            a = frozenset(rng.sample(ids, rng.randrange(len(ids))))
            b = a | frozenset(rng.sample(ids, rng.randrange(3)))
            ca = closure(a, model.rules)
            assert a <= ca                              # extensivity
            assert closure(ca, model.rules) == ca       # idempotence
            assert ca <= closure(b, model.rules)        # monotonicity
        for model in library_models(lib):
            assert_labels_exact(model, rng, samples=20)


def test_criterion_7_witness_soundness(capsys, sweep):
    with criterion(capsys, 7, "every sat result decodes to a replay-valid "
                              "trace; mutated traces are rejected"):
        attacks = []
        for name, scen, k, model, verdict, _ in sweep:
            if verdict.outcome != "attack-found":
                continue
            script = encode(model, verdict.bound)
            trace = decode(verdict.result, script, model)
            assert replay(trace, model) is None, (name, scen, k)
            attacks.append((model, trace))
        assert attacks
        model, trace = next((m, t) for m, t in attacks if len(t.events) >= 3)
        events = list(trace.events)
        events[0], events[1] = (replace(events[1], position=1),
                                replace(events[0], position=2))
        swapped = replay(replace(trace, events=tuple(events)), model)
        assert swapped is not None
        assert swapped.kind in ("session order", "gating")
        truncated = replay(replace(trace, events=trace.events[:1]), model)
        assert truncated is not None and truncated.kind == "goal"


def test_criterion_8_determinism(capsys, lib, tmp_path):
    with criterion(capsys, 8, "encode and dump-model output is byte-identical "
                              "across runs and processes"):
        model = model_of(lib, "wmf", "replay_generous")
        assert encode(model, 6).text == encode(model, 6).text
        assert model_to_json(model) == model_to_json(
            model_of(lib, "wmf", "replay_generous"))
        outputs = []
        for argv in (["encode", "nspkt", "mitm1_lowe", "--bound", "5"],
                     ["dump-model", "nspkt", "mitm1_lowe"]):
            runs = [subprocess.run(
                [sys.executable, "-m", "tspbmc.cli", *argv],
                capture_output=True, text=True, timeout=120)
                for _ in range(2)]
            assert all(r.returncode == 0 for r in runs)
            assert runs[0].stdout == runs[1].stdout
            outputs.append(runs[0].stdout)
        assert encode(model_of(lib, "nspkt", "mitm1_lowe"), 5).text == outputs[0]


def test_criterion_9_round_trips(capsys, sweep):
    with criterion(capsys, 9, "term parse/render and witness JSON round-trips "
                              "are lossless"):
        rng = random.Random(20260824)
        for _ in range(1000):
            t = _random_term(rng, 4)
            assert parse_term(render_term(t)) == t
        for name, scen, k, model, verdict, oracle in sweep:
            if verdict.outcome != "attack-found":
                continue
            trace = decode(verdict.result,
                           encode(model, verdict.bound), model)
            assert parse_json(render_json(trace)) == trace
            assert parse_json(render_json(oracle.trace)) == oracle.trace
