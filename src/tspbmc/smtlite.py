"""Fallback SMT-LIB2 solver for QF_LRA difference constraints.

``python -m tspbmc.smtlite`` speaks enough of the SMT-LIB2 pipe protocol
(``declare-const``, ``assert``, ``check-sat``, ``get-value``, ``reset``,
``exit``, ``echo``) to stand in for ``z3 -in`` on the scripts this tool
generates, for environments without a real SMT solver. Commands are read
with ``sexpr.Reader``, the reader the driver uses for the replies, and the
child imports no ``tspbmc`` module but ``sexpr`` and ``dbm``. It is a lazy
DPLL(T): a small watched-literal SAT core over the Tseitin CNF of the
assertions. Each theory atom becomes difference edges once, when it is
interned; at a full assignment the edges of the assigned literals go to
``dbm.solve``, and a negative cycle becomes a blocking clause.

Supported theory atoms are linear (in)equalities that normalize to at most
two real variables with opposite coefficients (x - y <= c, x <= c,
x = c, ...). That covers step-delay, clock-monotonicity and lifetime
constraints; anything richer, or a real equality under negation, is
reported as an error.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .dbm import ZERO, solve
from .sexpr import Reader, render_value, string_literal, string_value

_BOOL_OPS = {"and", "or", "not", "=>", "xor"}
_REL_OPS = {"<=", "<", ">=", ">", "="}


class Unsupported(Exception):
    pass


def _edge(coeffs, const, strict, block):
    """The dbm constraint of sum(a*x) <= const (< when strict), tagged
    with the literal ``block``."""
    items = list(coeffs.items())
    if not items:
        return (ZERO, ZERO, const, strict, block)
    x, a = items[0]
    if len(items) == 1:
        u, v = (ZERO, x) if a > 0 else (x, ZERO)
    elif len(items) == 2 and a == -items[1][1]:
        y = items[1][0]
        u, v = (y, x) if a > 0 else (x, y)
    else:
        raise Unsupported("non-difference linear constraint")
    scale = abs(a)
    return (u, v, const if scale == 1 else const / scale, strict, block)


class Solver:
    def __init__(self):
        self.sorts = {}  # declared symbol -> "Bool" | "Real"
        self.nvars = 0
        self.var_of_name = {}
        self.clauses = []
        self.watches = {}  # literal -> clause indices watching it
        self.val = [0]  # 1-indexed: 0 unassigned, 1 true, -1 false
        self.trail = []
        self.decisions = []  # (trail_len, var, tried_both)
        self.order = []  # decision order: first occurrence in a clause
        self.in_order = set()
        self.default_pol = [True]
        self.atoms = {}  # canonical key -> var
        self.edges = {}  # atom literal -> its dbm constraints
        self.status = None
        self.real_values = {}
        self.unsat_at_root = False

    # ---- variables and clauses -------------------------------------

    def new_var(self, default_pol=True) -> int:
        self.nvars += 1
        self.val.append(0)
        self.default_pol.append(default_pol)
        return self.nvars

    def declare(self, name: str, sort: str):
        self.sorts[name] = sort
        if sort == "Bool":
            self.var_of_name[name] = self.new_var()

    def _note_order(self, lits):
        for lit in lits:
            v = abs(lit)
            if v not in self.in_order:
                self.in_order.add(v)
                self.order.append(v)

    def add_clause(self, lits) -> bool:
        """Add a clause valid at decision level 0. Returns False on conflict."""
        lits = sorted(set(lits), key=abs)
        if any(-l in lits for l in lits):
            return True
        self._note_order(lits)
        if len(lits) == 1:
            if not self._enqueue(lits[0]):
                self.unsat_at_root = True
                return False
            return True
        idx = len(self.clauses)
        self.clauses.append(lits)
        for l in lits[:2]:
            self.watches.setdefault(l, []).append(idx)
        return True

    def attach_learned(self, lits) -> bool:
        """Add a clause under the current partial assignment."""
        lits = list(dict.fromkeys(lits))
        self._note_order(lits)
        if len(lits) == 1:
            return self._enqueue(lits[0])
        # move two non-false literals (or the deepest false ones) up front
        lits.sort(key=lambda l: (self._litval(l) == -1, 0))
        idx = len(self.clauses)
        self.clauses.append(lits)
        for l in lits[:2]:
            self.watches.setdefault(l, []).append(idx)
        if self._litval(lits[0]) == -1:
            return False  # conflicting right now
        if self._litval(lits[1]) == -1 and self._litval(lits[0]) == 0:
            return self._enqueue(lits[0])
        return True

    def _litval(self, lit: int) -> int:
        v = self.val[abs(lit)]
        return v if lit > 0 else -v

    def _enqueue(self, lit: int) -> bool:
        cur = self._litval(lit)
        if cur == 1:
            return True
        if cur == -1:
            return False
        self.val[abs(lit)] = 1 if lit > 0 else -1
        self.trail.append(lit)
        return True

    # ---- search ------------------------------------------------------

    def _propagate(self, head: int):
        """Propagate from trail position ``head``; returns False on conflict."""
        while head < len(self.trail):
            lit = self.trail[head]
            head += 1
            falsified = -lit
            watchlist = self.watches.get(falsified)
            if not watchlist:
                continue
            keep = []
            i = 0
            while i < len(watchlist):
                ci = watchlist[i]
                i += 1
                clause = self.clauses[ci]
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                other = clause[0]
                if self._litval(other) == 1:
                    keep.append(ci)
                    continue
                moved = False
                for j in range(2, len(clause)):
                    if self._litval(clause[j]) != -1:
                        clause[1], clause[j] = clause[j], clause[1]
                        self.watches.setdefault(clause[1], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(ci)
                if not self._enqueue(other):
                    keep.extend(watchlist[i:])
                    self.watches[falsified] = keep
                    return False
            self.watches[falsified] = keep
        return True

    def _backtrack(self) -> bool:
        """Undo to the last unflipped decision and flip it."""
        while self.decisions:
            trail_len, var, tried_both = self.decisions.pop()
            old = self.val[var]
            for lit in self.trail[trail_len:]:
                self.val[abs(lit)] = 0
            del self.trail[trail_len:]
            if not tried_both:
                self.decisions.append((trail_len, var, True))
                self.val[var] = -old
                self.trail.append(var if old < 0 else -var)
                return True
        return False

    def _decide(self) -> bool:
        for v in self.order:
            if self.val[v] == 0:
                self.decisions.append((len(self.trail), v, False))
                lit = v if self.default_pol[v] else -v
                self._enqueue(lit)
                return True
        for v in range(1, self.nvars + 1):
            if self.val[v] == 0:
                self.decisions.append((len(self.trail), v, False))
                lit = v if self.default_pol[v] else -v
                self._enqueue(lit)
                return True
        return False

    def check(self) -> str:
        if self.unsat_at_root:
            return "unsat"
        head = 0
        while True:
            if not self._propagate(head):
                if not self._backtrack():
                    return "unsat"
                head = len(self.trail) - 1
                continue
            head = len(self.trail)
            if not self._decide():
                ok, payload = self._theory_check()
                if ok:
                    self.real_values = payload
                    return "sat"
                # backtrack until the blocking clause is no longer conflicting
                while all(self._litval(l) == -1 for l in payload):
                    if not self._backtrack():
                        return "unsat"
                self.attach_learned(payload)
                head = 0

    # ---- theory ------------------------------------------------------

    def _theory_check(self):
        """Feasibility of the assigned difference constraints.

        Returns (True, values) or (False, blocking clause literals).
        """
        constraints = []
        for var in self.atoms.values():
            constraints += self.edges.get(var if self.val[var] == 1 else -var, ())
        ok, payload = solve(constraints)
        if ok:
            return True, payload
        return False, sorted({constraints[i][4] for i in payload}, key=abs)

    # ---- compilation ---------------------------------------------------

    def _is_real_expr(self, ast) -> bool:
        if isinstance(ast, str):
            if self.sorts.get(ast) == "Real":
                return True
            try:
                Fraction(ast)
                return True
            except ValueError:
                return False
        return ast and ast[0] in ("+", "-", "*", "/")

    def _linear(self, ast):
        """Normalize an arithmetic expression to (coeffs, const)."""
        if isinstance(ast, str):
            if self.sorts.get(ast) == "Real":
                return {ast: Fraction(1)}, Fraction(0)
            return {}, Fraction(ast)
        op, args = ast[0], ast[1:]
        if op == "+":
            coeffs, const = {}, Fraction(0)
            for a in args:
                c2, k2 = self._linear(a)
                for x, a2 in c2.items():
                    coeffs[x] = coeffs.get(x, Fraction(0)) + a2
                const += k2
            return {x: a for x, a in coeffs.items() if a != 0}, const
        if op == "-":
            if len(args) == 1:
                c, k = self._linear(args[0])
                return {x: -a for x, a in c.items()}, -k
            coeffs, const = self._linear(args[0])
            coeffs = dict(coeffs)
            for a in args[1:]:
                c2, k2 = self._linear(a)
                for x, a2 in c2.items():
                    coeffs[x] = coeffs.get(x, Fraction(0)) - a2
                const -= k2
            return {x: a for x, a in coeffs.items() if a != 0}, const
        if op == "*":
            if len(args) != 2:
                raise Unsupported("n-ary multiplication")
            c1, k1 = self._linear(args[0])
            c2, k2 = self._linear(args[1])
            if c1 and c2:
                raise Unsupported("nonlinear multiplication")
            if c1:
                return {x: a * k2 for x, a in c1.items()}, k1 * k2
            return {x: a * k1 for x, a in c2.items()}, k1 * k2
        if op == "/":
            c1, k1 = self._linear(args[0])
            c2, k2 = self._linear(args[1])
            if c2:
                raise Unsupported("division by a variable")
            return {x: a / k2 for x, a in c1.items()}, k1 / k2
        raise Unsupported(f"arithmetic operator {op!r}")

    def _atom_var(self, ast, negative: bool) -> int:
        """Intern a theory atom; returns its propositional variable.

        The difference edges of its true literal, and of its false literal
        once the atom occurs negatively, are made here, each tagged with
        the literal that blocks it.
        """
        op = ast[0]
        lc, lk = self._linear(ast[1])
        rc, rk = self._linear(ast[2])
        coeffs = dict(lc)
        for x, a in rc.items():
            coeffs[x] = coeffs.get(x, Fraction(0)) - a
        coeffs = {x: a for x, a in coeffs.items() if a != 0}
        const = rk - lk  # expr <= const form
        if op in (">=", ">"):
            coeffs = {x: -a for x, a in coeffs.items()}
            const = -const
            op = "<=" if op == ">=" else "<"
        if op == "=" and coeffs:
            first = min(coeffs)
            if coeffs[first] < 0:
                coeffs = {x: -a for x, a in coeffs.items()}
                const = -const
        if op == "=" and negative:
            raise Unsupported("negated equality over reals")
        key = (op, tuple(sorted(coeffs.items())), const)
        v = self.atoms.get(key)
        if v is None:
            v = self.atoms[key] = self.new_var(default_pol=False)
            edge = _edge(coeffs, const, op == "<", -v)
            self.edges[v] = [edge]
            if op == "=":
                self.edges[v].append((edge[1], edge[0], -edge[2], False, -v))
        if negative and -v not in self.edges:
            # the reversed edge: not(x_b - x_a <= w) is x_a - x_b < -w, and
            # not(x_b - x_a < w) is x_a - x_b <= -w
            a, b, w, strict, _ = self.edges[v][0]
            self.edges[-v] = [(b, a, -w, not strict, v)]
        return v

    def _literal(self, ast, negative: bool):
        """Literal for an atomic formula, or None if ``ast`` is compound."""
        if isinstance(ast, str):
            if ast == "true":
                return self._true_lit()
            if ast == "false":
                return -self._true_lit()
            v = self.var_of_name.get(ast)
            if v is None:
                raise Unsupported(f"unknown symbol {ast!r}")
            return v
        op = ast[0]
        if op == "not":
            inner = self._literal(ast[1], not negative)
            return None if inner is None else -inner
        if op in _REL_OPS:
            if op == "=" and not self._is_real_expr(ast[1]):
                return None  # boolean equivalence, handled structurally
            return self._atom_var(ast, negative)
        return None

    def _true_lit(self) -> int:
        if not hasattr(self, "_tl"):
            self._tl = self.new_var()
            self.add_clause([self._tl])
        return self._tl

    def _compile(self, ast, negative: bool) -> int:
        lit = self._literal(ast, negative)
        if lit is not None:
            return lit
        op, args = ast[0], ast[1:]
        if op == "not":
            return -self._compile(args[0], not negative)
        if op == "=>":
            # right-associative implication chain
            cur = self._compile(args[-1], negative)
            for a in reversed(args[:-1]):
                cur = self._mk_or([-self._compile(a, not negative), cur])
            return cur
        if op == "and":
            return -self._mk_or([-self._compile(a, negative) for a in args])
        if op == "or":
            return self._mk_or([self._compile(a, negative) for a in args])
        if op in ("=", "xor"):
            lits = [self._compile(a, True) for a in args]  # both polarities used
            out = None
            for x, y in zip(lits, lits[1:]):
                if op == "xor":
                    eq = -self._mk_iff(x, y)
                else:
                    eq = self._mk_iff(x, y)
                out = eq if out is None else -self._mk_or([-out, -eq])
            return out
        if op == "ite":
            c = self._compile(args[0], True)
            t = self._compile(args[1], negative)
            e = self._compile(args[2], negative)
            return self._mk_and2(self._mk_or([-c, t]), self._mk_or([c, e]))
        raise Unsupported(f"operator {op!r}")

    def _mk_and2(self, x: int, y: int) -> int:
        return -self._mk_or([-x, -y])

    def _mk_or(self, lits) -> int:
        v = self.new_var()
        for l in lits:
            self.add_clause([v, -l])
        self.add_clause([-v] + list(lits))
        return v

    def _mk_iff(self, x: int, y: int) -> int:
        v = self.new_var()
        self.add_clause([-v, -x, y])
        self.add_clause([-v, x, -y])
        self.add_clause([v, x, y])
        self.add_clause([v, -x, -y])
        return v

    def assert_formula(self, ast):
        # peephole the dominant generated shapes to avoid Tseitin variables
        if isinstance(ast, list) and ast:
            op = ast[0]
            if op == "or":
                lits = [self._literal(a, False) for a in ast[1:]]
                if all(l is not None for l in lits):
                    self.add_clause(lits)
                    return
            if op == "=>" and len(ast) == 3:
                lhs = self._literal(ast[1], True)
                if lhs is not None:
                    rhs = ast[2]
                    rl = self._literal(rhs, False)
                    if rl is not None:
                        self.add_clause([-lhs, rl])
                        return
                    if isinstance(rhs, list) and rhs[0] == "and":
                        parts = [self._literal(a, False) for a in rhs[1:]]
                        if all(p is not None for p in parts):
                            for p in parts:
                                self.add_clause([-lhs, p])
                            return
                    if isinstance(rhs, list) and rhs[0] == "or":
                        parts = [self._literal(a, False) for a in rhs[1:]]
                        if all(p is not None for p in parts):
                            self.add_clause([-lhs] + parts)
                            return
            if op == "=" and len(ast) == 3 and not self._is_real_expr(ast[1]):
                lhs = self._literal(ast[1], True)
                rhs = ast[2]
                if lhs is not None:
                    if isinstance(rhs, list) and rhs and rhs[0] == "or":
                        parts = [self._literal(a, True) for a in rhs[1:]]
                        if all(p is not None for p in parts):
                            self.add_clause([-lhs] + parts)
                            for p in parts:
                                self.add_clause([lhs, -p])
                            return
                    rl = self._literal(rhs, True)
                    if rl is not None:
                        self.add_clause([-lhs, rl])
                        self.add_clause([lhs, -rl])
                        return
        lit = self._compile(ast, False)
        self.add_clause([lit])

    # ---- values ----------------------------------------------------------

    def value_of(self, name: str):
        sort = self.sorts.get(name)
        if sort == "Bool":
            return self.val[self.var_of_name[name]] == 1
        if sort == "Real":
            return self.real_values.get(name, Fraction(0))
        raise Unsupported(f"unknown symbol {name!r}")


def main(argv=None) -> int:
    reader = Reader(sys.stdin)
    solver = Solver()
    out = sys.stdout
    while True:
        try:
            item = reader.scan()
            if item is None:
                return 0
            cmd = item[1]
            if isinstance(cmd, str):
                continue  # stray token
            head = cmd[0] if cmd else ""
            if head in ("set-logic", "set-option", "set-info"):
                pass
            elif head == "declare-const":
                solver.declare(cmd[1], cmd[2])
            elif head == "declare-fun":
                if cmd[2] != []:
                    raise Unsupported("only constants are supported")
                solver.declare(cmd[1], cmd[3])
            elif head == "assert":
                solver.assert_formula(cmd[1])
            elif head == "check-sat":
                solver.status = solver.check()
                print(solver.status, file=out, flush=True)
            elif head == "get-value":
                if solver.status != "sat":
                    print('(error "model is not available")', file=out, flush=True)
                    continue
                parts = [
                    f"({name} {render_value(solver.value_of(name))})" for name in cmd[1]
                ]
                print("(" + " ".join(parts) + ")", file=out, flush=True)
            elif head == "reset":
                solver = Solver()
            elif head == "exit":
                return 0
            elif head == "echo":
                print(string_value(cmd[1]), file=out, flush=True)
            else:
                raise Unsupported(f"command {head!r}")
        except Unsupported as e:
            print(f"(error {string_literal(f'unsupported: {e}')})", file=out, flush=True)
        except Exception as e:  # keep the pipe protocol alive
            print(f"(error {string_literal(f'{type(e).__name__}: {e}')})",
                  file=out, flush=True)


if __name__ == "__main__":
    sys.exit(main())
