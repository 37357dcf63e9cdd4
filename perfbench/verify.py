"""Checks of the benchmark's ground truth and of its exact counts.

    python3 perfbench/verify.py verdicts
        Re-derive every entry of expected.json without the SMT path: the
        explicit-state oracle (``explicit_reach`` to twice the step count,
        which covers every run since each step fires at most once), and for
        every item whether the goal secret lies outside the Dolev-Yao
        closure of the intruder's initial knowledge and all the scenario's
        messages. Items in ``ORACLE_SKIP`` rely on that second argument.

    python3 perfbench/verify.py counts [--smoke] [WORKLOAD ...]
        Run the traced benchmark twice per workload, in fresh processes and
        with different seeds, and require the exact counts (per-bound
        script SHA-256, script bytes, symbols, bounds, clauses) to repeat.

Both print a JSON summary as the last stdout line and exit 1 on a mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import (  # noqa: E402
    ORACLE_SKIP,
    WORKLOADS,
    all_items,
    item_id,
    load_expected,
)

from tspbmc import library  # noqa: E402
from tspbmc.frontend import INTRUDER, parse_protocol, parse_scenario  # noqa: E402
from tspbmc.model import build_model, closure  # noqa: E402
from tspbmc.oracle import explicit_reach  # noqa: E402
from tspbmc.solver import default_max_bound  # noqa: E402


def verdicts() -> int:
    expected = load_expected()
    rows, bad = [], []
    missing = [item_id(it) for it in all_items() if it not in expected]
    if missing:
        bad.append(f"no expected entry for {', '.join(missing)}")
    for item, want in expected.items():
        protocol, scenario, k = item
        entry = library.get(protocol)
        model = build_model(parse_protocol(entry.protocol),
                            parse_scenario(entry.scenarios[scenario]), k=k)
        roots = {model.universe.id_of(st.message) for st in model.exec_steps}
        reachable = closure(set(model.initial_knowledge[INTRUDER]) | roots, model.rules)
        underivable = not any(t in reachable for t in model.goal_secret_ids)
        row = {"item": item_id(item), "expected": want["verdict"],
               "expected_bound": want.get("bound"), "underivable": underivable}
        if underivable and want["verdict"] == "attack":
            bad.append(f"{item_id(item)}: expected an attack on an underivable secret")
        if item in ORACLE_SKIP:
            row["oracle"] = "skipped"
            if not underivable:
                bad.append(f"{item_id(item)}: oracle skipped and the secret is "
                           "derivable, so the expected verdict is unsupported")
        else:
            depth = default_max_bound(model)
            t0 = perf_counter()
            result = explicit_reach(model, None, depth)
            row["oracle_s"] = round(perf_counter() - t0, 3)
            row["oracle"] = result.outcome
            row["oracle_depth"] = result.depth
            got = "attack" if result.outcome == "attack-found" else "no-attack"
            if got != want["verdict"] or (got == "attack" and result.depth != want["bound"]):
                bad.append(f"{item_id(item)}: oracle says {got} at {result.depth}, "
                           f"expected {want['verdict']} {want.get('bound') or ''}")
        rows.append(row)
        print(" ".join(f"{k}={v}" for k, v in row.items()), flush=True)
    for b in bad:
        print(f"MISMATCH {b}")
    print(json.dumps({"ok": not bad, "items": rows, "mismatches": bad}))
    return 0 if not bad else 1


def counts(workloads, smoke: bool) -> int:
    bad, summary = [], {}
    for w in workloads:
        records = []
        for seed in (1, 2):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", "1", "--trace", "1"]
            if smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
                bad.append(f"{w} seed {seed}: run.py exited {proc.returncode}")
                break
            tag = f"{w}-seed{seed}-trace1{'-smoke' if smoke else ''}"
            records.append(json.loads((HERE / "out" / f"{tag}.json").read_text()))
        if len(records) != 2:
            continue
        a, b = (r["exact_counts"] for r in records)
        if a != b:
            for item in sorted(set(a) | set(b)):
                if a.get(item) != b.get(item):
                    bad.append(f"{w} {item}: exact counts differ between runs")
        summary[w] = a
        print(f"{w}: {len(a)} items, {sum(len(c['scripts_sha256']) for c in a.values())} "
              f"scripts, counts {'repeat' if a == b else 'DIFFER'}", flush=True)
    for x in bad:
        print(f"MISMATCH {x}")
    print(json.dumps({"ok": not bad, "exact_counts": summary, "mismatches": bad}))
    return 0 if not bad else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark ground-truth checks")
    sub = ap.add_subparsers(dest="what", required=True)
    sub.add_parser("verdicts")
    p = sub.add_parser("counts")
    p.add_argument("workloads", nargs="*", metavar="WORKLOAD")
    p.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if args.what == "verdicts":
        return verdicts()
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        ap.error(f"unknown workload(s) {', '.join(sorted(unknown))}")
    return counts(args.workloads or list(WORKLOADS), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
