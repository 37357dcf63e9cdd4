"""One workload run in a fresh process; started by ``run.py``.

Runs ``check`` passes over the workload's items in the time budget (at
least one whole pass), each check item of the first pass followed by
``oracle`` runs of the same item. Every item goes through ``tspbmc.cli.main`` in-process
with its output captured; verdicts are judged against ``expected.json``
and every witness is replayed. With ``--trace 1`` it instead runs one
traced check pass and one traced oracle pass, and reports per-layer
numbers.

Prints one JSON document on its last stdout line. Kept apart from
``run.py`` so that its high-water RSS is the driver's alone and its
solver children are the only processes it starts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import shlex
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from reference import reference_seconds, scale  # noqa: E402
from rss import ChildPeak, vm_hwm_kib  # noqa: E402
from stats import fastest, geomean, median, pass_estimate, pass_seconds, per_item  # noqa: E402
from tracer import Tracer, check_required, self_times  # noqa: E402
from workloads import item_id, items_for, load_expected  # noqa: E402

from tspbmc import cli  # noqa: E402
from tspbmc.encoder import SmtScript  # noqa: E402
from tspbmc.frontend import parse_protocol, parse_scenario  # noqa: E402
from tspbmc.library import get as library_get  # noqa: E402
from tspbmc.model import build_model  # noqa: E402
from tspbmc.solver import SolverConfig, run_solver  # noqa: E402
from tspbmc.witness import parse_json, replay  # noqa: E402

# the bundled solver, whatever z3 or TSPBMC_SOLVER the machine has
SOLVER = f"{shlex.quote(sys.executable)} -m tspbmc.smtlite"
# After each check item of the first pass the oracle runs on that item
# until this much oracle time is spent (at least once); later passes
# leave it out, to time the check more often. oracle_s sums each item's
# fastest oracle time: the host switches for seconds at a time into a
# state that slows the oracle up to 2-fold, which moves a median between
# the states.
ORACLE_AFTER_ITEM_S = 0.25
# Before each check item, the reference work runs until it has run once
# per this many seconds of the run (at least once), so that its median
# samples the machine's speed over the whole run.
REF_EVERY_S = 3.0
SPAWN_PROBES = 5


class Runner:
    """Runs single items through the CLI and judges their verdicts."""

    def __init__(self, expected: dict, tmpdir: Path):
        self.expected = expected
        self.witness = tmpdir / "witness.json"
        self._models = {}

    def run(self, kind: str, item, tracer=None) -> dict:
        protocol, scenario, k = item
        argv = [kind, protocol, scenario, "--sessions", str(k),
                "--format", "json", "--out", str(self.witness)]
        if kind == "check":
            argv += ["--solver", SOLVER]
        self.witness.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        rc, problem = None, None
        # garbage left by the previous item is not this item's cost
        gc.collect()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with tracer.span("cli", "cli.main"):
                        rc = cli.main(argv)
        except Exception as e:  # an item failure, never a benchmark crash
            problem = f"exception {type(e).__name__}: {e}"
        seconds = perf_counter() - t0
        verdict, bound = None, None
        if problem is None:
            verdict, bound, problem = self._judge(item, rc, err.getvalue())
        self.witness.unlink(missing_ok=True)
        solver_calls = sum(line.startswith("bound ")
                           for line in err.getvalue().splitlines())
        return {"kind": kind, "item": item_id(item), "ok": problem is None,
                "seconds": seconds if problem is None else None,
                "verdict": verdict, "bound": bound, "solver_calls": solver_calls,
                "problem": problem}

    def _judge(self, item, rc, stderr: str):
        """(verdict, bound, problem) of one finished CLI call."""
        if rc == cli.EXIT_NO_ATTACK:
            verdict, bound = "no-attack", None
        elif rc == cli.EXIT_ATTACK:
            try:
                trace = parse_json(self.witness.read_text(encoding="utf-8"))
            except (OSError, ValueError, KeyError) as e:
                return "attack", None, f"unreadable witness: {e}"
            verdict, bound = "attack", trace.bound
            violation = replay(trace, self._model(item))
            if violation is not None:
                return verdict, bound, (f"witness fails replay at position "
                                        f"{violation.position}: {violation.kind}")
        else:
            last = stderr.strip().splitlines()[-1:] or [""]
            return None, None, f"exit code {rc}: {last[0]}"
        want = self.expected.get(item)
        if want is None:
            return verdict, bound, "no expected verdict for this item"
        if verdict != want["verdict"]:
            return verdict, bound, f"verdict {verdict}, expected {want['verdict']}"
        if verdict == "attack" and bound != want["bound"]:
            return verdict, bound, f"attack bound {bound}, expected {want['bound']}"
        return verdict, bound, None

    def _model(self, item):
        if item not in self._models:
            protocol, scenario, k = item
            entry = library_get(protocol)
            self._models[item] = build_model(
                parse_protocol(entry.protocol),
                parse_scenario(entry.scenarios[scenario]), k=k)
        return self._models[item]


def run_pass(runner, kind, items, rng, tracer=None, after_item=None):
    order = list(items)
    rng.shuffle(order)
    rows = []
    for item in order:
        if tracer is not None:
            tracer.item = f"{kind}:{item_id(item)}"
        row = runner.run(kind, item, tracer)
        rows.append(row)
        if tracer is not None:
            tracer.split_sent()
            if row["ok"]:
                check_required(tracer, tracer.item, kind, row["verdict"] == "attack")
        if after_item is not None:
            after_item()
    return rows


def spawn_seconds():
    """Median time of one solver call on a trivial script."""
    config = SolverConfig(command=tuple(shlex.split(SOLVER)))
    script = SmtScript("(check-sat)\n", {}, (), 1)
    times = []
    for _ in range(SPAWN_PROBES):
        t0 = perf_counter()
        result = run_solver(script, config)
        times.append(perf_counter() - t0)
        if result.status != "sat":
            raise RuntimeError(f"trivial script gave {result.status}: "
                               f"{result.solver_stderr}")
    return median(times)


def untraced(runner, check_items, oracle_items, rng, seconds):
    """Check passes in shuffled order until ``seconds`` are spent, each
    check item of the first pass followed by its oracle runs. The first
    pass always runs whole; after it an item runs again only if its last
    check time still fits, so the last pass may be partial. ``check_s``
    is the sum of per-item medians, i.e. the time of one pass, in
    reference seconds (see ``reference.py``); the ``*_wall_s`` metrics
    are the unscaled wall times."""
    start = perf_counter()
    deadline = start + seconds
    checks, oracles, cost, refs = [], [], {}, []
    while True:
        order = list(check_items)
        rng.shuffle(order)
        rows = []
        for item in order:
            if checks and perf_counter() + cost[item] > deadline:
                continue
            refs.append(reference_seconds())
            while len(refs) < (perf_counter() - start) / REF_EVERY_S:
                refs.append(reference_seconds())
            t0 = perf_counter()
            rows.append(runner.run("check", item))
            if item in oracle_items and not checks:
                t1 = perf_counter()
                oracles.append([runner.run("oracle", item)])
                while perf_counter() - t1 < ORACLE_AFTER_ITEM_S:
                    oracles.append([runner.run("oracle", item)])
            cost[item] = perf_counter() - t0
        if not rows:
            break
        checks.append(rows)
    wall = {
        "check_wall_s": pass_estimate(checks),
        "check_geomean_wall_s": geomean(list(per_item(checks).values())),
        "oracle_wall_s": pass_estimate(oracles, fastest),
    }
    metrics = {name.replace("_wall", ""): scale(value, refs)
               for name, value in wall.items()}
    return checks, oracles, {**metrics, **wall}, refs


def traced(runner, check_items, oracle_items, rng, trace_path: Path):
    spawn_s = spawn_seconds()
    tracer = Tracer()
    tracer.install()
    try:
        checks = run_pass(runner, "check", check_items, rng, tracer)
        oracles = run_pass(runner, "oracle", oracle_items, rng, tracer)
    finally:
        tracer.uninstall()

    check_spans = [s for s in tracer.spans if s[2].startswith("check:")]
    oracle_spans = [s for s in tracer.spans if s[2].startswith("oracle:")]

    def total(counter, prefix="check:"):
        return sum(c.get(counter, 0) for item, c in tracer.counts.items()
                   if item.startswith(prefix))

    def span_s(name, spans=check_spans):
        return sum(s[6] - s[5] for s in spans if s[4] == name)

    run_s = span_s("solver.run_solver")
    bounds = total("solver.bounds")
    requested = total("solver.getvalue_symbols")
    selfs = self_times(check_spans)
    oracle_selfs = self_times(oracle_spans)
    metrics = {
        "frontend.parse_s": span_s("cli.parse_protocol") + span_s("cli.parse_scenario"),
        "model.build_s": span_s("cli.build_model"),
        "model.universe_terms": total("model.universe_terms"),
        "model.rules": total("model.rules"),
        "model.depth": max((c.get("model.depth", 0) for item, c in tracer.counts.items()
                            if item.startswith("check:")), default=0),
        "encoder.encode_s": span_s("solver.encode") + span_s("cli.encode"),
        "encoder.calls": total("encoder.calls"),
        "encoder.script_bytes": total("encoder.script_bytes"),
        "encoder.symbols": total("encoder.symbols"),
        "encoder.asserts": total("encoder.asserts"),
        "solver.run_s": run_s,
        "solver.bounds": bounds,
        "solver.spawn_s": spawn_s,
        "solver.spawn_share": bounds * spawn_s / run_s if run_s else 0.0,
        "solver.vacuous_bound_frac": total("solver.vacuous_bounds") / bounds if bounds else 0.0,
        "solver.getvalue_symbols": requested,
        "solver.getvalue_used_frac": total("solver.getvalue_used") / requested
        if requested else 0.0,
        "smtlite.read_s": total("smtlite.read_s"),
        "smtlite.compile_s": total("smtlite.compile_s"),
        "smtlite.search_s": total("smtlite.search_s"),
        "smtlite.model_s": total("smtlite.model_s"),
        "smtlite.clauses": total("smtlite.clauses"),
        "smtlite.vars": total("smtlite.vars"),
        "smtlite.atoms": total("smtlite.atoms"),
        "sexpr.reply_parse_s": total("sexpr.reply_parse_s"),
        "witness.decode_s": span_s("cli.decode"),
        "witness.replay_s": span_s("cli.replay"),
        "witness.render_s": span_s("cli.render"),
        "oracle.reach_s": span_s("cli.explicit_reach", oracle_spans),
        "oracle.constructible_calls": total("oracle.constructible_calls", "oracle:"),
        "oracle.closure_calls": total("oracle.closure_calls", "oracle:"),
        "trace.check_s": pass_seconds(checks),
        "trace.overhead_s": total("trace.overhead_s"),
    }
    for layer in ("cli", "frontend", "model", "encoder", "solver", "witness"):
        metrics[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    metrics["oracle.self_s"] = oracle_selfs.get("oracle", 0.0)

    exact = {}
    for item, shas in tracer.scripts.items():
        c = tracer.counts[item]
        exact[item] = {
            "scripts_sha256": shas,
            "encoder.script_bytes": c["encoder.script_bytes"],
            "encoder.symbols": c["encoder.symbols"],
            "solver.bounds": c["solver.bounds"],
            "smtlite.clauses": c["smtlite.clauses"],
        }
    layers = {item: dict(c) for item, c in tracer.counts.items()}
    trace_path.write_text(json.dumps({"spans": tracer.spans}) + "\n", encoding="utf-8")
    return [checks], [oracles], metrics, exact, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace-out", type=Path, required=True)
    args = ap.parse_args(argv)

    check_items, oracle_items = items_for(args.workload, args.smoke)
    expected = load_expected()
    rng = random.Random(args.seed)
    out_dir = args.trace_out.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp, \
            ChildPeak(b"tspbmc.smtlite") as solver_peak:
        runner = Runner(expected, Path(tmp))
        exact, layers, refs = {}, {}, []
        if args.trace:
            checks, oracles, metrics, exact, layers = traced(
                runner, check_items, oracle_items, rng, args.trace_out)
        else:
            checks, oracles, metrics, refs = untraced(
                runner, check_items, oracle_items, rng, args.seconds)
    metrics["driver_peak_rss_mb"] = vm_hwm_kib() / 1024
    metrics["solver_peak_rss_mb"] = solver_peak.peak_kib / 1024 or None
    result = {
        "solver": SOLVER,
        "solver_children_sampled": solver_peak.children,
        "reference_s_samples": refs,
        "check_passes": checks,
        "oracle_passes": oracles,
        "metrics": metrics,
        "exact_counts": exact,
        "layers_by_item": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
