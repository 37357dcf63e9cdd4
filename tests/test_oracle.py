import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tspbmc import oracle
from tspbmc.oracle import OracleResult, explicit_reach
from tspbmc.terms import parse_term
from tspbmc.witness import replay

from conftest import model_of

SRC = Path(__file__).resolve().parent.parent / "src"


# pinned regression values; produced by this oracle and asserted against
# the SMT path in the acceptance suite
PINNED = {
    ("nspkt", "fair", None): ("no-attack-up-to", None),
    ("nspkt", "mitm1_lowe", None): ("attack-found", 5),
    ("nspkt_lowe_fixed", "fair", None): ("no-attack-up-to", None),
    ("nspkt_lowe_fixed", "mitm1_lowe_adapted", None): ("no-attack-up-to", None),
    ("wmf", "fair", None): ("no-attack-up-to", None),
    ("wmf", "replay_generous", None): ("attack-found", 6),
    ("wmf", "replay_tight", None): ("no-attack-up-to", None),
    ("dsp", "fair", None): ("no-attack-up-to", None),
    ("dsp", "key_compromise", None): ("attack-found", 3),
}


@pytest.mark.parametrize("proto,scen,k", sorted(PINNED, key=str))
def test_pinned_library_verdicts(lib, proto, scen, k):
    model = model_of(lib, proto, scen, k=k)
    result = explicit_reach(model, depth=8)
    outcome, depth = PINNED[(proto, scen, k)]
    assert result.outcome == outcome
    if depth is not None:
        assert result.depth == depth
    else:
        assert result.depth == 8


def test_underivable_secret_skips_interleavings(lib, monkeypatch):
    # nspkt fair: no goal secret is in the closure of every message the
    # intruder can receive, so no interleaving is explored
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "solve", lambda *a: pytest.fail("explored"))
        for k in (1, 2, 3):
            model = model_of(lib, "nspkt", "fair", k=k)
            depth = len(model.exec_steps)
            assert explicit_reach(model, depth=depth) == OracleResult(
                "no-attack-up-to", depth)
    result = explicit_reach(model_of(lib, "nspkt", "mitm1_lowe"), depth=6)
    assert (result.outcome, result.depth) == ("attack-found", 5)


def test_depth_boundary(lib):
    model = model_of(lib, "nspkt", "fair")
    with pytest.raises(ValueError):
        explicit_reach(model, depth=0)
    # just below the attack depth: exhaustion, not attack
    mitm = model_of(lib, "nspkt", "mitm1_lowe")
    assert explicit_reach(mitm, depth=4).outcome == "no-attack-up-to"


def test_attack_trace_replays_valid(lib):
    for proto, scen in [("nspkt", "mitm1_lowe"), ("wmf", "replay_generous"),
                        ("dsp", "key_compromise")]:
        model = model_of(lib, proto, scen)
        result = explicit_reach(model, depth=8)
        assert result.outcome == "attack-found"
        assert replay(result.trace, model) is None, (proto, scen)


def test_mitm_trace_shape(lib):
    model = model_of(lib, "nspkt", "mitm1_lowe")
    trace = explicit_reach(model, depth=8).trace
    first = trace.events[0]
    assert (first.sid, first.index, first.sender, first.receiver) == (1, 1, "A", "I")
    assert first.message == parse_term("<KI,Ta#1|A>")
    assert parse_term("<KB,Ta#1|A>") in first.deltas["I"]
    assert trace.secret == parse_term("Tb#2")
    assert trace.completed_sessions == (1,)
    # intruder gains the secret at the final event
    assert trace.secret in trace.events[-1].deltas["I"]


def test_times_respect_delays_and_monotonicity(lib):
    model = model_of(lib, "wmf", "replay_generous")
    trace = explicit_reach(model, depth=8).trace
    times = {}
    prev = Fraction(0)
    for ev in trace.events:
        assert ev.time >= prev
        prev = ev.time
        st = model.step_at(ev.sid, ev.index)
        floor = times.get((ev.sid, ev.index - 1), Fraction(0)) + st.min_delay
        assert ev.time >= floor
        times[(ev.sid, ev.index)] = ev.time
    # the delayed replayed step really is 8 apart from its predecessor
    assert times[(2, 2)] - times[(2, 1)] >= 8


def test_timing_infeasibility_prunes(lib):
    # replay_tight differs from replay_generous only in lifetime bounds;
    # the gating order forces t(2,2) >= t(1,1) + 8 > t(1,1) + 3
    tight = model_of(lib, "wmf", "replay_tight")
    generous = model_of(lib, "wmf", "replay_generous")
    assert explicit_reach(tight, depth=8).outcome == "no-attack-up-to"
    assert explicit_reach(generous, depth=8).outcome == "attack-found"


def test_gating_blocks_unconstructible_injections(lib):
    model = model_of(lib, "nspkt_lowe_fixed", "mitm1_lowe_adapted")
    # session 1 cannot advance past step 1: the intruder cannot build
    # <KA,Ta#1|Tb#2|I> (wrong identity inside an unopenable cipher)
    result = explicit_reach(model, depth=8)
    assert result.outcome == "no-attack-up-to"


@pytest.mark.parametrize("module", ["tspbmc.oracle", "tspbmc.witness"])
def test_the_ground_truth_loads_no_module_of_the_encoding(module):
    # the oracle and the witness share no code with the SMT path, so the two
    # semantics check each other
    code = (f"import sys, {module}; print(sorted({{'tspbmc.encoder', 'tspbmc.sexpr', "
            "'tspbmc.solver'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120, check=True)
    assert proc.stdout == "[]\n"
