"""tspbmc benchmark: time to verdict of ``tspbmc check`` and ``tspbmc oracle``.

    python3 perfbench/run.py --workload library --seed 1 --seconds 55 --trace 0

Run from the repository root; stdlib only, nothing to build. One closed-loop
client: one CLI call at a time and at most one solver child, the bundled
``smtlite`` pinned as the solver. ``--seed`` only shuffles the item order
within a pass. ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``, timings in reference seconds (see ``reference.py``);
``--trace 1`` runs a separate traced pass and prints the per-layer ones. ``--smoke`` runs one small item instead of the workload.

The report goes to stdout, one row per item, and the last stdout line is
the JSON result. The full record (environment, rows, metrics, exact counts)
goes to ``perfbench/out/``. Exit 0 when every verdict is right, 1 when
an item failed, 2 on a usage or layout error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from stats import (  # noqa: E402
    failed_frac,
    median,
    pass_seconds,
    quartiles,
    relative_spread,
    tail_percentile,
)
from reference import reference_seconds, scale  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# setup_s probes, half before and half after the worker, so that they
# sample the machine's speed over the whole run
SETUP_PROBES = 16
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def child_env() -> dict:
    """Environment of every child: the package under test on the path
    (solver children inherit it) and no ``TSPBMC_SOLVER`` override."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("TSPBMC_SOLVER", None)
    return env


def measure_setup(n: int, warm: bool):
    """Wall seconds of ``n`` fresh ``python -m tspbmc.cli list`` processes,
    after one uncounted one (which may compile bytecode) if ``warm``, each
    followed by a run of the reference work: (probe times, reference
    times)."""
    times, refs = [], []
    for i in range(n + warm):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "tspbmc.cli", "list"],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=60)
        dt = perf_counter() - t0
        if proc.returncode != 0 or "nspkt" not in proc.stdout:
            raise BenchError(f"'tspbmc list' failed ({proc.returncode}): "
                             f"{proc.stderr.strip()[-300:]}")
        if i or not warm:
            times.append(dt)
            refs.append(reference_seconds())
    return times, refs


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def run_worker(args, trace_path: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-out", str(trace_path)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def fmt(v) -> str:
    if v is None:
        return "missing"
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def report(args, env, setup, setup_refs, res, wanted, attempted, failed):
    print(f"tspbmc benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds}{' smoke' if args.smoke else ''}")
    print(f"env: python {env['python']}, nproc {env['nproc']}, commit "
          f"{env['git_commit'] or 'unknown'}, src sha256 {env['src_sha256'][:16]}, "
          f"solver {res['solver']!r}")
    passes = res["check_passes"]
    calls = sum(r["solver_calls"] for rows in passes for r in rows)
    print(f"check passes {len(passes)}, oracle runs {len(res['oracle_passes'])}; "
          f"solver calls {calls}, solver children sampled for RSS "
          f"{res['solver_children_sampled']}")
    print(f"{'kind':6} {'item':42} {'verdict':9} {'bound':>5} "
          f"{'median_s':>9} {'n':>3}  status")
    for kind, groups in (("check", passes), ("oracle", res["oracle_passes"])):
        by_item = {}
        for rows in groups:
            for r in rows:
                by_item.setdefault(r["item"], []).append(r)
        for item, rows in sorted(by_item.items()):
            bad = [r["problem"] for r in rows if not r["ok"]]
            secs = [r["seconds"] for r in rows]
            print(f"{kind:6} {item:42} {str(rows[0]['verdict']):9} "
                  f"{str(rows[0]['bound'] or '-'):>5} {fmt(median(secs)):>9} "
                  f"{len(rows):>3}  {'FAIL ' + bad[0] if bad else 'ok'}")
    samples = {
        "check pass wall": [pass_seconds(rows) for rows in passes
                            if len(rows) == len(passes[0])],
        "setup wall": setup,
        "reference work (worker)": res["reference_s_samples"],
        "reference work (setup)": setup_refs,
    }
    for what, values in samples.items():
        q = quartiles(values)
        if q is None:
            continue
        tail = tail_percentile(values)
        spread = relative_spread(values)
        print(f"{what} seconds: n={len(values)} q1={fmt(q[0])} median={fmt(q[1])} "
              f"q3={fmt(q[2])} spread={fmt(spread)}"
              + (f" p{tail[0]}={fmt(tail[1])}" if tail and tail[0] > 50 else ""))
    title = "per-layer (traced run)" if args.trace else "end-to-end (untraced)"
    print(title + ":")
    for m in wanted:
        print(f"  {m['name']:28} {fmt(res['metrics'].get(m['name'])):>14} {m['unit']}")
    print("also measured, not in BENCHMARK.json:")
    print(f"  {'failed_frac':28} {fmt(failed_frac(failed, attempted)):>14} ratio "
          f"({failed}/{attempted})")
    names = {m["name"] for m in wanted}
    for name, value in res["metrics"].items():
        if name not in names:
            print(f"  {name:28} {fmt(value):>14} {'MiB' if name.endswith('_mb') else 's'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tspbmc benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="one small item per workload, for a quick check")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "tspbmc" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: run from a tspbmc checkout: {ROOT / 'src' / 'tspbmc'} "
              "or BENCHMARK.json is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    try:
        env = environment(args.seed)
        setup, setup_refs = measure_setup(SETUP_PROBES // 2, warm=True)
        res = run_worker(args, OUT / f"{tag}-spans.json")
        more, more_refs = measure_setup(SETUP_PROBES - SETUP_PROBES // 2, warm=False)
    except (BenchError, RuntimeError, subprocess.SubprocessError, OSError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setup, setup_refs = setup + more, setup_refs + more_refs
    res["metrics"]["setup_wall_s"] = median(setup)
    res["metrics"]["setup_s"] = scale(median(setup), setup_refs)

    rows = [r for group in (res["check_passes"], res["oracle_passes"])
            for rows in group for r in rows]
    attempted = len(rows)
    failed = sum(not r["ok"] for r in rows)
    metrics = {}
    for m in wanted:
        if m["name"] not in res["metrics"]:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": res["metrics"][m["name"]], "unit": m["unit"]}
    correct = failed == 0 and all(v["value"] is not None for v in metrics.values())

    record = {"env": env, "setup_s_samples": setup,
              "setup_reference_s_samples": setup_refs, "failed": failed,
              "attempted": attempted, **res}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    report(args, env, setup, setup_refs, res, wanted, attempted, failed)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
