"""Summarise recorded runs into a baseline file.

    python3 perfbench/baseline.py --seeds 101-110 --traced-seed 1 > perfbench/results/baseline.json

Reads ``perfbench/out/<workload>-seed<n>-trace0.json`` for every seed and
``<workload>-seed<traced-seed>-trace1.json`` for every workload that
``BENCHMARK.json`` lists, or for those named with ``--workloads``. For each end-to-end metric, oracle_s included, it gives the median,
quartiles and relative spread over the seeds, next to the metric's bound
in ``BENCHMARK.json`` (null where it has none),
and it keeps the first run's check rows and per-item oracle medians, and
the traced run's per-layer metrics, per-item layer counts and exact
counts, and its check pass minus the untraced check_wall_s median. Spans are
left out.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import median, per_item, quartiles, relative_spread  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, required=True, metavar="A-B")
    ap.add_argument("--traced-seed", type=int, required=True)
    ap.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                    help="default: the workloads BENCHMARK.json lists")
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    out = HERE / "out"

    def load(name):
        return json.loads((out / name).read_text(encoding="utf-8"))

    doc = {"seeds": args.seeds, "traced_seed": args.traced_seed, "workloads": {}}
    for w in workloads:
        runs = [load(f"{w}-seed{s}-trace0.json") for s in args.seeds]
        traced = load(f"{w}-seed{args.traced_seed}-trace1.json")
        doc["env"] = runs[0]["env"]
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        e2e = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            q1, _, q3 = quartiles(values)
            e2e[name] = {"median": median(values), "q1": q1, "q3": q3,
                         "spread": relative_spread(values),
                         "bound": bounds.get(name), "values": values}
        doc["workloads"][w] = {
            "untraced": {
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": e2e,
                "first_run_check_passes": runs[0]["check_passes"],
                "first_run_oracle_item_medians": per_item(runs[0]["oracle_passes"]),
                "first_run_oracle_passes": len(runs[0]["oracle_passes"]),
            },
            "traced": {
                "check_s_minus_untraced_wall_median": (
                    traced["metrics"]["trace.check_s"] - e2e["check_wall_s"]["median"]),
                "attempted": traced["attempted"],
                "failed": traced["failed"],
                "metrics": {m["name"]: traced["metrics"][m["name"]]
                            for m in spec["per_layer"]},
                "layers_by_item": traced["layers_by_item"],
                "exact_counts": traced["exact_counts"],
            },
        }
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
