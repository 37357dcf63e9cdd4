"""Workload item lists and their expected verdicts.

An item is (protocol, scenario, k). Every item has an independently known
answer in ``expected.json``; ``verify.py verdicts`` re-derives each one.

Why these workloads (cost profiles measured on 2 cores, Python 3.11):

- ``library``: the nine embedded pairs at their own session count. About
  60 small per-bound scripts, so process start per bound, the bound count
  and the sat path (get-value, decode, replay, render) dominate.
- ``sessions``: ``nspkt fair`` at k=2 and k=3, both safe, with 30 bounds
  and 11 MB of scripts in all, so the child's read and Tseitin
  compile and ``build_model``'s adequacy probe dominate; the witness path
  never runs.
- ``timing``: k=3 versions of library scenarios. ``wmf replay_tight`` is
  safe only through its 3-unit lifetime and is the one item where
  difference-logic search is a large share; the two attacks carry
  get-value replies of thousands of symbols.
- ``sessions_k4``: ``nspkt fair`` at k=4 alone (about 21-28 s, of which
  ``build_model`` takes about 3.7 s), the largest item of the family.

``wmf fair`` at k=3 (about 19 s) and ``dsp key_compromise`` at k=3
(timing, about 6 s) were left out so that a run of every workload fits
the time a full comparison of two commits may take; each repeats a cost
profile another item of its workload already has.

``BENCHMARK.json`` lists ``library`` and ``sessions`` only; the others
run by name. On the 2-core host the benchmark was tuned on, the speed
of the machine drifts by up to 1.6-fold over minutes, so a run must
time every item several times for its medians to hold still.
``sessions_k4`` is one item too long to time more than twice in a run
(one 32 s pass of k=3 and k=4 a run spread by 0.20-0.26 over ten runs),
and ``timing`` spread by 0.15-0.22 (check time) and 0.30-0.40 (oracle)
over ten seeds when timed with one pass a run.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

WORKLOADS = {
    "library": [
        ("dsp", "fair", 1),
        ("dsp", "key_compromise", 1),
        ("nspkt", "fair", 1),
        ("nspkt", "mitm1_lowe", 2),
        ("nspkt_lowe_fixed", "fair", 1),
        ("nspkt_lowe_fixed", "mitm1_lowe_adapted", 2),
        ("wmf", "fair", 1),
        ("wmf", "replay_generous", 2),
        ("wmf", "replay_tight", 2),
    ],
    "sessions": [
        ("nspkt", "fair", 2),
        ("nspkt", "fair", 3),
    ],
    "sessions_k4": [
        ("nspkt", "fair", 4),
    ],
    "timing": [
        ("wmf", "replay_tight", 3),
        ("wmf", "replay_generous", 3),
        ("nspkt", "mitm1_lowe", 3),
    ],
}

# The oracle runs on every check item except these: the explicit-state
# search takes minutes on them (about 511 s for nspkt fair at k=4).
ORACLE_SKIP = {("nspkt", "fair", 4)}

# One small item per workload, for a quick end-to-end run of the harness.
SMOKE = {
    "library": [("dsp", "key_compromise", 1)],
    "sessions": [("nspkt", "fair", 2)],
    "sessions_k4": [("nspkt", "fair", 2)],
    "timing": [("wmf", "replay_generous", 2)],
}


def item_id(item) -> str:
    protocol, scenario, k = item
    return f"{protocol}/{scenario}/k{k}"


def items_for(workload: str, smoke: bool = False):
    """(check items, oracle items) of a workload, in their fixed order."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"choose from {', '.join(WORKLOADS)}")
    check = list(SMOKE[workload] if smoke else WORKLOADS[workload])
    oracle = [it for it in check if it not in ORACLE_SKIP]
    return check, oracle


def load_expected() -> dict:
    """item -> {"verdict": "attack"|"no-attack", "bound": int|None, ...}"""
    data = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    out = {}
    for entry in data["items"]:
        item = (entry["protocol"], entry["scenario"], entry["k"])
        if item in out:
            raise ValueError(f"duplicate expected entry {item_id(item)}")
        if entry["verdict"] not in ("attack", "no-attack"):
            raise ValueError(f"{item_id(item)}: bad verdict {entry['verdict']!r}")
        if (entry["verdict"] == "attack") != isinstance(entry.get("bound"), int):
            raise ValueError(f"{item_id(item)}: an attack needs its minimal bound, "
                             "and only an attack has one")
        out[item] = entry
    return out


def all_items():
    """Every item any workload or smoke run can execute."""
    seen = []
    for w in WORKLOADS:
        for smoke in (False, True):
            for it in items_for(w, smoke)[0]:
                if it not in seen:
                    seen.append(it)
    return seen
