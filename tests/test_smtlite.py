import io
import itertools
import operator
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from tspbmc.dbm import ZERO, solve
from tspbmc.encoder import encode
from tspbmc.sexpr import (
    Reader,
    parse_all,
    parse_one,
    parse_value,
    read_sexpr,
    render_value,
    string_value,
)
from tspbmc.smtlite import Solver

from conftest import library_models

SRC = Path(__file__).resolve().parent.parent / "src"


def run_script(text: str) -> list:
    proc = subprocess.run(
        [sys.executable, "-m", "tspbmc.smtlite"],
        input=text, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def model_values(reply_line: str) -> dict:
    return {entry[0]: parse_value(entry[1]) for entry in parse_one(reply_line)}


def test_trivial_sat_and_model():
    out = run_script(
        "(set-logic QF_LRA)(declare-const x Bool)(assert x)(check-sat)"
        "(get-value (x))")
    assert out[0] == "sat"
    assert model_values(out[1]) == {"x": True}


def test_trivial_unsat():
    out = run_script(
        "(declare-const x Bool)(assert (and x (not x)))(check-sat)")
    assert out == ["unsat"]


def test_difference_logic_sat_with_exact_rationals():
    out = run_script(
        "(set-logic QF_LRA)\n"
        "(declare-const x Real)(declare-const y Real)\n"
        "(assert (>= x (/ 7.0 2.0)))\n"
        "(assert (>= y (+ x 2.0)))\n"
        "(assert (<= y 6.0))\n"
        "(check-sat)\n(get-value (x y))\n")
    assert out[0] == "sat"
    vals = model_values(out[1])
    assert vals["x"] >= Fraction(7, 2)
    assert vals["y"] >= vals["x"] + 2
    assert vals["y"] <= 6


def test_equality_over_reals():
    out = run_script(
        "(declare-const t Real)(declare-const tau Real)(declare-const f Bool)\n"
        "(assert f)(assert (=> f (and (<= t tau) (>= t tau))))\n"
        "(assert (<= tau 3.0))(assert (>= tau 3.0))\n"
        "(check-sat)(get-value (t tau))")
    assert out[0] == "sat"
    vals = model_values(out[1])
    assert vals["t"] == vals["tau"] == 3


def test_boolean_structure():
    out = run_script(
        "(declare-const a Bool)(declare-const b Bool)(declare-const c Bool)\n"
        "(assert (=> a (or b c)))(assert (=> (or b c) a))\n"
        "(assert (not b))(assert (not c))(assert a)\n"
        "(check-sat)")
    assert out == ["unsat"]
    out = run_script(
        "(declare-const a Bool)(declare-const b Bool)\n"
        "(assert (=> a b))(assert a)(check-sat)(get-value (a b))")
    assert out[0] == "sat"
    assert model_values(out[1]) == {"a": True, "b": True}


def test_theory_propagation_through_booleans():
    # choosing p forces an infeasible timing; the solver must flip to q
    out = run_script(
        "(declare-const p Bool)(declare-const q Bool)\n"
        "(declare-const x Real)\n"
        "(assert (or p q))\n"
        "(assert (=> p (and (<= x 1.0) (>= x 2.0))))\n"
        "(assert (=> q (and (<= x 7.0) (>= x 7.0))))\n"
        "(assert (or (not p) (not q)))\n"
        "(check-sat)(get-value (p q x))")
    assert out[0] == "sat"
    vals = model_values(out[1])
    assert vals == {"p": False, "q": True, "x": 7}


@pytest.mark.parametrize("command, message", [
    ("(assert (xor p p))", "operator 'xor'"),
    ("(assert (ite p p p))", "operator 'ite'"),
    ("(assert (<= (* 2.0 x) 1.0))", "arithmetic term ['*', '2.0', 'x']"),
    ("(declare-fun f () Bool)", "command 'declare-fun'"),
    ("(assert (< x 1.0))", "operator '<'"),
    ("(assert (> x (+ x 1.0)))", "operator '>'"),
    ("(assert (not (<= x 5.0)))", "theory atom in negative polarity"),
    ("(assert (=> (>= x 1.0) p))", "theory atom in negative polarity"),
    ("(assert (=> p (not (>= x 1.0))))", "theory atom in negative polarity"),
    ("(assert (= x 1.0))", "operator '='"),
    ("(assert (= p p))", "operator '='"),
    ("(assert (<= (+ x y) 1.0))", "arithmetic term ['+', 'x', 'y']"),
    ("(assert (<= x (- true)))", "arithmetic term ['-', 'true']"),
    ("(assert (<= x (/ 1.0 0.0)))", "arithmetic term ['/', '1.0', '0.0']"),
])
def test_outside_the_fragment_is_an_error(command, message):
    out = run_script(
        "(declare-const p Bool)(declare-const x Real)(declare-const y Real)\n"
        f"{command}\n(assert p)(check-sat)")
    assert [string_value(parse_one(out[0])[1]), out[1]] == [f"unsupported: {message}", "sat"]


def test_every_library_script_is_in_the_fragment(lib):
    # a script with a strict or a negated theory atom raises Unsupported
    scripts = 0
    for model in library_models(lib, ks=(1, 2, 3)):
        model = replace(model, goal_floor=1)  # every bound encoded in full
        for bound in range(1, len(model.exec_steps) + 1):
            solver = Solver()
            for cmd in parse_all(encode(model, bound).text):
                if cmd[0] == "declare-const":
                    solver.declare(cmd[1], cmd[2])
                elif cmd[0] == "assert":
                    solver.assert_formula(cmd[1])
            scripts += 1
    assert scripts == 150


# ---- random formulas against brute force ------------------------------------

BOOLS = ("b0", "b1", "b2", "b3")
REALS = ("x", "y")
RELATIONS = ("<=", ">=")
# the dbm constraint (a, b, w), x_b - x_a <= w, of u - v op c
CONSTRAINT = {
    "<=": lambda u, v, c: (v, u, c),
    ">=": lambda u, v, c: (u, v, -c),
}
COMPARE = {"<=": operator.le, ">=": operator.ge}


def _random_atom(rng):
    """``(op u (+ v c))``, or ``(op u c)`` when v is ZERO, and (op, u, v, c)."""
    op, c = rng.choice(RELATIONS), rng.randint(-3, 3)
    u = rng.choice(REALS)
    v = rng.choice([w for w in REALS if w != u] + [ZERO])
    const = ["-", f"{-c}.0"] if c < 0 else f"{c}.0"
    return [op, u, const if v is ZERO else ["+", v, const]], (op, u, v, c)


def _random_formula(rng, depth, atoms, positive=True):
    """A formula over BOOLS and difference atoms; ``atoms`` maps each
    atom's ``str`` to its (op, u, v, c). An atom stands only in positive
    polarity: a leaf under ``not`` or in the antecedent of ``=>`` is a Bool
    symbol instead."""
    if depth == 0 or rng.random() < 0.3:
        pick = rng.random()
        if pick < 0.45 or (pick >= 0.5 and not positive):
            return rng.choice(BOOLS)
        if pick < 0.5:
            return rng.choice(("true", "false"))
        ast, atom = _random_atom(rng)
        atoms[str(ast)] = atom
        return ast
    op = rng.choice(("and", "or", "not", "=>"))
    arity = {"not": 1, "=>": 2}.get(op) or rng.randint(2, 3)
    args = [_random_formula(rng, depth - 1, atoms,
                            positive and (op in ("and", "or") or (op, i) == ("=>", 1)))
            for i in range(arity)]
    return [op, *args]


def _holds(ast, bools, truth):
    """The formula's value under Bool values and atom truth values."""
    if isinstance(ast, str):
        return {"true": True, "false": False}.get(ast, bools.get(ast))
    op = ast[0]
    if op in RELATIONS:
        return truth[str(ast)]
    v = [_holds(a, bools, truth) for a in ast[1:]]
    if op == "and":
        return all(v)
    if op == "or":
        return any(v)
    if op == "not":
        return not v[0]
    return not v[0] or v[1]


def _brute_force(ast, atoms):
    """sat iff some set of atoms that dbm.solve finds feasible, taken as
    true and every other atom as false, and some Bool assignment make the
    formula true. Atoms stand only in positive polarity, so a false atom
    needs no constraint: were it true, the formula would still hold."""
    keys = sorted(atoms)
    for signs in itertools.product((True, False), repeat=len(keys)):
        constraints = [CONSTRAINT[atoms[key][0]](*atoms[key][1:])
                       for key, sign in zip(keys, signs) if sign]
        if not solve(constraints)[0]:
            continue
        truth = dict(zip(keys, signs))
        for values in itertools.product((True, False), repeat=len(BOOLS)):
            if _holds(ast, dict(zip(BOOLS, values)), truth):
                return "sat"
    return "unsat"


def _guarded_formula(rng, atoms):
    """A conjunction of 3-6 atoms, each guarded by a Bool symbol as
    ``(or b atom)`` or ``(=> b atom)``, and one random formula: the
    guards pick which atoms hold, so many assignments are infeasible."""
    parts = []
    for _ in range(rng.randint(3, 6)):
        ast, atom = _random_atom(rng)
        atoms[str(ast)] = atom
        parts.append([rng.choice(("or", "=>")), rng.choice(BOOLS), ast])
    return ["and", *parts, _random_formula(rng, 2, atoms)]


def _solve_as_brute_force(ast, atoms):
    """smtlite's status of ``ast``, asserted equal to the brute force's,
    and whether the search learned a blocking clause."""
    solver = Solver()
    for name in BOOLS:
        solver.declare(name, "Bool")
    for name in REALS:
        solver.declare(name, "Real")
    solver.assert_formula(ast)
    asserted = len(solver.clauses)
    status = solver.check()
    assert status == _brute_force(ast, atoms), ast
    if status == "sat":
        # the model itself satisfies the formula
        reals = {r: solver.value_of(r) for r in REALS}
        reals[ZERO] = 0
        truth = {key: COMPARE[op](reals[u] - reals[v], c)
                 for key, (op, u, v, c) in atoms.items()}
        bools = {b: solver.value_of(b) for b in BOOLS}
        assert _holds(ast, bools, truth), ast
    # a blocking clause joins two or more atoms, since no one atom is
    # infeasible, so it is stored
    return status, len(solver.clauses) > asserted


def test_random_formulas_match_brute_force():
    rng = random.Random(7)
    statuses = set()
    for _ in range(1000):
        atoms = {}
        ast = _random_formula(rng, 3, atoms)
        statuses.add(_solve_as_brute_force(ast, atoms)[0])
    assert statuses == {"sat", "unsat"}


def test_guarded_atoms_match_brute_force():
    # the theory path: many of these searches learn a blocking clause
    rng = random.Random(7)
    results = []
    for _ in range(400):
        atoms = {}
        ast = _guarded_formula(rng, atoms)
        results.append(_solve_as_brute_force(ast, atoms))
    assert {status for status, _ in results} == {"sat", "unsat"}
    assert sum(learned for _, learned in results) >= 50


def test_error_reply_keeps_pipe_alive():
    out = run_script(
        "(frobnicate)\n(declare-const x Bool)(assert x)(check-sat)")
    assert out[0].startswith("(error")
    assert out[-1] == "sat"


@pytest.mark.parametrize("script, expected", [
    ('(echo "a)b")(check-sat)', ["a)b", "sat"]),
    ('(echo "say ""hi""")(check-sat)', ['say "hi"', "sat"]),
    ("(declare-const |x)y| Bool)(assert |x)y|)(check-sat)(get-value (|x)y|))",
     ["sat", "((|x)y| true))"]),
    ("(assert ; c )\n true)(check-sat)", ["sat"]),
])
def test_reader_lexical_rules(script, expected):
    # a ')' in a string literal, a quoted symbol or a comment closes nothing
    assert run_script(script) == expected


def test_error_reply_is_one_expression():
    out = run_script("(assert |a\"b|)(check-sat)")
    # the '"' in the message is escaped, so the reply reads as one expression
    error = parse_one(out[0])
    assert len(error) == 2 and error[0] == "error"
    assert string_value(error[1]) == "unsupported: unknown symbol '|a\"b|'"
    assert out[1] == "sat"


def test_solver_child_loads_only_sexpr_and_smtlite():
    # the child, without site, loads the reader and the timing core, none of
    # the pipeline, and not typing unless the stdlib's fractions loads it
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fractions; "
            "by_stdlib = 'typing' in sys.modules; import tspbmc.smtlite; "
            "print(by_stdlib, 'typing' in sys.modules, "
            "*sorted(m for m in sys.modules if m.split('.')[0] == 'tspbmc'))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    by_stdlib, typing_loaded, *modules = proc.stdout.split()
    assert modules == ["tspbmc", "tspbmc.dbm", "tspbmc.sexpr", "tspbmc.smtlite"]
    assert typing_loaded == by_stdlib


def test_get_value_before_check_is_error():
    out = run_script("(declare-const x Bool)(get-value (x))")
    assert out[0].startswith("(error")


# ---- sexpr helpers ----------------------------------------------------------


def test_parse_value_rational_forms():
    for text, expected in [
        ("5", Fraction(5)), ("5.0", Fraction(5)), ("0.25", Fraction(1, 4)),
        ("(/ 7.0 2.0)", Fraction(7, 2)), ("(- 3.0)", Fraction(-3)),
        ("(- (/ 1.0 3.0))", Fraction(-1, 3)), ("true", True), ("false", False),
    ]:
        assert parse_value(parse_one(text)) == expected


@pytest.mark.parametrize("text", ["(- true)", "(/ false 2.0)", "-5", "1e3", "1/2", "x",
                                  "(/ 1.0 0.0)"])
def test_parse_value_rejects_what_is_not_a_rational(text):
    with pytest.raises(ValueError):
        parse_value(parse_one(text))


def test_render_parse_value_round_trip():
    grid = [Fraction(n, d) for n in range(-8, 9) for d in range(1, 7)]
    for q in grid:
        assert parse_value(parse_one(render_value(q))) == q
    assert parse_value(parse_one(render_value(True))) is True


def test_read_sexpr_stream():
    stream = io.StringIO("sat\n((x 1.0) (y (/ 1.0 2.0)))\n")
    assert read_sexpr(stream) == "sat"
    assert parse_one(read_sexpr(stream)) == [["x", "1.0"], ["y", ["/", "1.0", "2.0"]]]


def test_reader_expression_spans_lines():
    # the escaped quote before the line break does not end the literal
    reader = Reader(io.StringIO('sat\n((x 1.0)\n (y "a""\nb")) ; c\n'))
    assert reader.scan() == ("sat", "sat")
    assert reader.scan() == ('((x 1.0)\n (y "a""\nb"))',
                             [["x", "1.0"], ["y", '"a""\nb"']])
    assert reader.scan() is None


def test_parse_all_comments_and_strings():
    exprs = parse_all('(echo "hi there") ; comment (ignored)\n(check-sat)')
    assert exprs == [["echo", '"hi there"'], ["check-sat"]]


def test_reset_starts_a_fresh_context():
    out = run_script(
        "(declare-const x Bool)(declare-const y Bool)\n"
        "(assert (and x (not x)))(check-sat)\n"
        "(reset)\n"
        "(declare-const x Bool)(assert x)(check-sat)\n"
        "(get-value (x))\n"
        "(get-value (y))\n")
    assert out[:2] == ["unsat", "sat"]
    assert model_values(out[2]) == {"x": True}
    assert out[3].startswith("(error") and "unknown symbol 'y'" in out[3]
