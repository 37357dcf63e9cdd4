"""Command-line entry point.

Subcommands wire the pipeline end to end::

    tspbmc check <protocol> <scenario> [--sessions K] [--max-bound N] ...
    tspbmc encode <protocol> <scenario> --bound N [--out FILE]
    tspbmc oracle <protocol> <scenario> [--depth N]
    tspbmc list [--export DIR]
    tspbmc dump-model <protocol> <scenario> [--sessions K]

Protocol/scenario arguments accept either a file path or the name of an
embedded library entry (see ``tspbmc list``). Exit codes: 0 no attack up
to the bound (all runs covered when the bound is the exec-step count), 10
attack found (witness written), 2 usage/input error, 3 solver
inconclusive.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import library
from .errors import TspbmcError

EXIT_NO_ATTACK = 0
EXIT_ATTACK = 10
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

FORMATS = ("html", "json", "text")  # the keys of _RENDERERS

_bound = False  # whether _pipeline has bound the pipeline's names


def _pipeline():
    """Bind the pipeline's names as module globals, once.

    ``list``, ``--help`` and usage errors need none of them, so a process
    that runs only those imports no pipeline layer. The commands look each
    name up in the module's globals when they call it, so a wrapper set on
    the module attribute (the benchmark's tracer) is the one that runs.
    Binding overwrites a name set before it, so such a wrapper reads the
    name first, which binds it.
    """
    global _bound, _RENDERERS, BmcProblem, encode, parse_protocol, parse_scenario
    global adequacy_warnings, build_model, model_to_json, explicit_reach
    global DEFAULT_TIMEOUT, SolverConfig, default_max_bound, iterate_bounds
    global resolve_solver_command, render_term, decode, replay
    if _bound:
        return
    from .encoder import BmcProblem, encode
    from .frontend import parse_protocol, parse_scenario
    from .model import adequacy_warnings, build_model, model_to_json
    from .oracle import explicit_reach
    from .solver import (
        DEFAULT_TIMEOUT,
        SolverConfig,
        default_max_bound,
        iterate_bounds,
        resolve_solver_command,
    )
    from .terms import render_term
    from .witness import decode, render_html, render_json, render_text, replay

    _RENDERERS = {"text": render_text, "json": render_json, "html": render_html}
    _bound = True


def __getattr__(name):
    """Bind the pipeline on the first outside lookup of one of its names.

    Once it is bound, a missing name (one deleted since) stays missing.
    Dunder names never bind it: they are probes, such as the import
    system's ``__path__`` lookup for ``from tspbmc.cli import main``.
    """
    if not _bound and not name.startswith("__"):
        _pipeline()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    pass


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise UsageError(f"{what} {path!r}: not UTF-8 text (byte {e.start})") from e


def _load_inputs(protocol_arg: str, scenario_arg: str):
    """Resolve each argument as a file path first, then as a library name."""
    entry = None
    if Path(protocol_arg).is_file():
        protocol_text = _read_text(protocol_arg, "protocol")
    else:
        try:
            entry = library.get(protocol_arg)
        except KeyError:
            raise UsageError(
                f"protocol {protocol_arg!r}: no such file or library entry")
        protocol_text = entry.protocol

    if Path(scenario_arg).is_file():
        scenario_text = _read_text(scenario_arg, "scenario")
    elif entry is not None and scenario_arg in entry.scenarios:
        scenario_text = entry.scenarios[scenario_arg]
    else:
        raise UsageError(
            f"scenario {scenario_arg!r}: no such file"
            + (f" or scenario of library entry {entry.name!r}" if entry else ""))

    return parse_protocol(protocol_text), parse_scenario(scenario_text)


def _write_out(text: str, out_path, fmt: str):
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    elif fmt == "json":
        sys.stdout.write(text)


def _report_attack(trace, model, fmt: str, out_path, origin: str) -> int:
    violation = replay(trace, model)
    if violation is not None:
        print(
            f"internal error: {origin} witness failed replay at position "
            f"{violation.position}: {violation.kind}: {violation.detail}",
            file=sys.stderr)
        return EXIT_INCONCLUSIVE
    rendered = _RENDERERS[fmt](trace)
    verdict = (f"attack found: {model.protocol}/{model.scenario} "
               f"k={model.sessions} at {origin} bound {trace.bound}")
    print(verdict, file=sys.stderr if fmt == "json" and not out_path else sys.stdout)
    _write_out(rendered, out_path, fmt)
    if out_path:
        print(f"witness written to {out_path}",
              file=sys.stderr if fmt == "json" else sys.stdout)
    elif fmt != "json":
        sys.stdout.write(rendered)
    return EXIT_ATTACK


def cmd_check(args) -> int:
    config = SolverConfig(
        command=resolve_solver_command(args.solver),
        timeout=DEFAULT_TIMEOUT if args.timeout is None else args.timeout,
        max_bound=args.max_bound,
    )
    spec, scenario = _load_inputs(args.protocol, args.scenario)
    model = build_model(spec, scenario, k=args.sessions)
    for w in adequacy_warnings(model):
        print(f"warning: {w}", file=sys.stderr)
    if not any(model.labels[tid] for tid in model.goal_secret_ids):
        for tid in model.goal_secret_ids:
            print(f"note: goal secret {render_term(model.universe.term_of(tid))} is "
                  "not derivable from any message of this scenario", file=sys.stderr)
    verdict = iterate_bounds(model, config)
    for bound, status, wall in verdict.per_bound_log:
        print(f"bound {bound}: {status} ({wall:.2f}s)", file=sys.stderr)
    if verdict.outcome == "no-attack-up-to":
        covered = ""
        if verdict.bound == len(model.exec_steps):
            covered = f": all runs of this {model.sessions}-session scenario covered"
        print(f"no attack up to bound {verdict.bound}{covered}")
        return EXIT_NO_ATTACK
    if verdict.outcome == "inconclusive":
        print(f"inconclusive: {verdict.reason}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    script = encode(BmcProblem(model, verdict.bound))
    trace = decode(verdict.result, script, model)
    return _report_attack(trace, model, args.format, args.out, "SMT")


def cmd_encode(args) -> int:
    spec, scenario = _load_inputs(args.protocol, args.scenario)
    if args.bound < 1:
        raise UsageError("--bound must be >= 1")
    model = build_model(spec, scenario, k=args.sessions)
    script = encode(BmcProblem(model, args.bound))
    if args.out:
        Path(args.out).write_text(script.text, encoding="utf-8")
    else:
        sys.stdout.write(script.text)
    return EXIT_NO_ATTACK


def cmd_oracle(args) -> int:
    spec, scenario = _load_inputs(args.protocol, args.scenario)
    if args.depth is not None and args.depth < 1:
        raise UsageError("--depth must be >= 1")
    model = build_model(spec, scenario, k=args.sessions)
    depth = args.depth or default_max_bound(model)
    result = explicit_reach(model, spec.goal, depth)
    if result.outcome == "no-attack-up-to":
        print(f"no attack up to depth {result.depth}")
        return EXIT_NO_ATTACK
    return _report_attack(result.trace, model, args.format, args.out, "oracle")


def cmd_list(args) -> int:
    for entry in library.entries().values():
        print(f"{entry.name}: scenarios {', '.join(sorted(entry.scenarios))}")
        if entry.notes:
            for line in entry.notes.splitlines():
                print(f"    {line}")
    if args.export:
        written = library.export(args.export)
        print(f"exported {len(written)} files to {args.export}")
    return EXIT_NO_ATTACK


def cmd_dump_model(args) -> int:
    import json

    spec, scenario = _load_inputs(args.protocol, args.scenario)
    model = build_model(spec, scenario, k=args.sessions)
    json.dump(model_to_json(model), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_NO_ATTACK


def _add_io_args(p):
    p.add_argument("protocol", help="protocol file path or library entry name")
    p.add_argument("scenario", help="scenario JSON path or library scenario name")
    p.add_argument("--sessions", type=int, default=None, metavar="K",
                   help="session count (default: scenario's 'sessions')")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tspbmc",
        description="Bounded model checking of timed security protocols via SMT.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the full BMC pipeline")
    _add_io_args(p)
    p.add_argument("--max-bound", type=int, default=None, metavar="N",
                   help="bound cap (default and ceiling: the exec-step count, "
                        "which covers every run)")
    p.add_argument("--solver", default=None, metavar="CMD",
                   help="solver command (default: $TSPBMC_SOLVER, z3 -in, "
                        "or the bundled fallback)")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="timeout in seconds for each solver query")
    p.add_argument("--format", choices=FORMATS, default="text")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the witness report to PATH")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("encode", help="emit the SMT-LIB2 script for one bound")
    _add_io_args(p)
    p.add_argument("--bound", type=int, required=True, metavar="N",
                   help="ask for the goal within at most N transitions")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("oracle", help="explicit-state search (ground truth)")
    _add_io_args(p)
    p.add_argument("--depth", type=int, default=None, metavar="N",
                   help="search depth cap (default: the exec-step count)")
    p.add_argument("--format", choices=FORMATS, default="text")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("list", help="list the embedded library")
    p.add_argument("--export", default=None, metavar="DIR",
                   help="also write all library files under DIR")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("dump-model", help="emit the verification model as JSON")
    _add_io_args(p)
    p.set_defaults(func=cmd_dump_model)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    if args.func is not cmd_list:
        _pipeline()
    try:
        return args.func(args)
    except (UsageError, TspbmcError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
