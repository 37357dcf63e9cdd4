"""Fallback SMT-LIB2 solver for QF_LRA difference constraints.

``python -m tspbmc.smtlite`` speaks enough of the SMT-LIB2 pipe protocol
(``declare-const``, ``assert``, ``check-sat``, ``get-value``, ``reset``,
``exit``, ``echo``) to stand in for ``z3 -in`` on the scripts this tool
generates, for environments without a real SMT solver. Commands are read
with ``sexpr.Reader``, the reader the driver uses for the replies, and the
child imports no ``tspbmc`` module but ``sexpr`` and ``dbm``.

Assertions become clauses along one path, ``Solver._clauses``, a
polarity-aware clause builder. The accepted fragment is what the encoder
emits: ``and``, ``or``, ``not``, ``=>``, ``true``, ``false``, Bool
symbols, and the theory atoms ``(<= a b)`` and ``(>= a b)``, where each
operand is a Real symbol, a constant or ``(+ x c)``, in positive polarity
only. A theory atom under ``not`` or as the antecedent of ``=>`` is
outside it, and so are ``=``, ``<``, ``>``, sums of several Reals and
scaled terms. Anything else is answered with an ``(error "unsupported:
...")`` reply, written before the script's ``check-sat`` answer; a
driver takes any first reply to a script that is not ``sat``, ``unsat``
or ``unknown`` as a solver error, so a script the solver read only in
part never gets a verdict.

The search is a lazy DPLL(T): a watched-literal SAT core that decides
variables false first (MiniSat's default phase), in order of first
occurrence in the clauses, and backtracks chronologically. A sat model
thus fires the encoded steps the goal and the gates need, not the cone.
Each theory atom is one non-strict difference edge, its key when it is
interned, and each distinct constant is parsed once per ``Solver``; at a
full assignment the edges of the atoms assigned true go
to ``dbm.solve``, and the negations of a negative cycle's atoms become a
blocking clause, added by the same ``add_clause`` as every other clause.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .dbm import ZERO, solve
from .sexpr import Reader, parse_real, render_value, string_literal, string_value


_NIL = Fraction(0)


class Unsupported(Exception):
    pass


def _minus(a: Fraction, b: Fraction) -> Fraction:
    """a - b, with no Fraction arithmetic when a side is 0."""
    if not b:
        return a
    return a - b if a else -b


class Solver:
    def __init__(self):
        self.sorts = {}  # declared symbol -> "Bool" | "Real"
        self.nvars = 0
        self.var_of_name = {}
        self.clauses = []
        self.watches = {}  # literal -> clause indices watching it
        self.val = [0]  # 1-indexed: 0 unassigned, 1 true, -1 false
        self.trail = []
        self.decisions = []  # trail position of each decision literal
        self.order = []  # decision order: first occurrence in a clause
        self.atoms = {}  # theory atom's dbm constraint (u, v, w) -> var
        self.constants = {}  # a constant's text -> its Fraction
        self.status = None
        self.real_values = {}
        self.unsat_at_root = False

    # ---- variables and clauses -------------------------------------

    def new_var(self) -> int:
        self.nvars += 1
        self.val.append(0)
        return self.nvars

    def declare(self, name: str, sort: str):
        if sort not in ("Bool", "Real"):
            raise Unsupported(f"sort {sort!r}")
        self.sorts[name] = sort
        if sort == "Bool":
            self.var_of_name[name] = self.new_var()

    def add_clause(self, lits) -> bool:
        """Add a clause under the current assignment.

        Non-false literals go first and the first two are watched; a
        clause with one non-false literal left enqueues it. Returns False
        when every literal is false.
        """
        lits = sorted(set(lits), key=abs)
        if any(-l in lits for l in lits):
            return True
        lits.sort(key=lambda l: self._litval(l) == -1)
        if len(lits) > 1:
            idx = len(self.clauses)
            self.clauses.append(lits)
            for l in lits[:2]:
                self.watches.setdefault(l, []).append(idx)
        if not lits or self._litval(lits[0]) == -1:
            return False
        if len(lits) == 1 or self._litval(lits[1]) == -1:
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
                for j in range(2, len(clause)):
                    if self._litval(clause[j]) != -1:
                        clause[1], clause[j] = clause[j], clause[1]
                        self.watches.setdefault(clause[1], []).append(ci)
                        break
                else:
                    keep.append(ci)
                    if not self._enqueue(other):
                        keep.extend(watchlist[i:])
                        self.watches[falsified] = keep
                        return False
            self.watches[falsified] = keep
        return True

    def _backtrack(self) -> bool:
        """Undo the last decision and enqueue its negation, which belongs
        to the decision before it; False when there is no decision left."""
        if not self.decisions:
            return False
        pos = self.decisions.pop()
        lit = self.trail[pos]
        for l in self.trail[pos:]:
            self.val[abs(l)] = 0
        del self.trail[pos:]
        return self._enqueue(-lit)

    def _decide(self) -> bool:
        for v in self.order:
            if self.val[v] == 0:
                self.decisions.append(len(self.trail))
                self._enqueue(-v)
                return True
        return False

    def check(self) -> str:
        if self.unsat_at_root:
            return "unsat"
        # unit clauses are not stored, but their variables are set at the root
        self.order = list(dict.fromkeys(abs(l) for c in self.clauses for l in c))
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
                self.add_clause(payload)
                head = 0

    # ---- theory ------------------------------------------------------

    def _theory_check(self):
        """Feasibility of the assigned difference constraints.

        Returns (True, values) or (False, blocking clause literals).
        """
        edges = [e for e, var in self.atoms.items() if self.val[var] == 1]
        ok, payload = solve(edges)
        if ok:
            return True, payload
        return False, sorted({-self.atoms[edges[i]] for i in payload}, key=abs)

    # ---- compilation ---------------------------------------------------

    def _operand(self, ast):
        """(x, c) of an operand x + c: a Real symbol (c = 0), a constant
        (x = ``ZERO``) or ``(+ x c)``."""
        if isinstance(ast, str) and self.sorts.get(ast) == "Real":
            return ast, _NIL
        x, c = ZERO, ast
        if isinstance(ast, list) and len(ast) == 3 and ast[0] == "+" \
                and self.sorts.get(ast[1]) == "Real":
            x, c = ast[1], ast[2]
        text = c if isinstance(c, str) else repr(c)
        q = self.constants.get(text)
        if q is None:
            try:
                q = self.constants[text] = parse_real(c)
            except ValueError:
                raise Unsupported(f"arithmetic term {ast!r}") from None
        return x, q

    def _theory_lit(self, ast) -> int:
        """Intern ``(<= a b)`` or ``(>= a b)``, keyed by its one
        difference edge; returns its variable."""
        if len(ast) != 3:
            raise Unsupported(f"{ast[0]!r} takes two arguments")
        (x, c), (y, d) = self._operand(ast[1]), self._operand(ast[2])
        # x + c <= y + d is x - y <= d - c; x + c >= y + d is y - x <= c - d
        key = (y, x, _minus(d, c)) if ast[0] == "<=" else (x, y, _minus(c, d))
        v = self.atoms.get(key)
        if v is None:
            v = self.atoms[key] = self.new_var()
        return v

    def _clauses(self, ast, positive: bool = True) -> list:
        """The clauses of ``ast``, or of its negation when not ``positive``.

        ``true`` is no clause and ``false`` the empty clause. A Bool symbol
        or a theory atom is a unit clause; ``not`` flips the polarity.
        """
        if isinstance(ast, str):
            if ast in ("true", "false"):
                return [] if (ast == "true") == positive else [[]]
            v = self.var_of_name.get(ast)
            if v is None:
                raise Unsupported(f"unknown symbol {ast!r}")
            return [[v if positive else -v]]
        op, args = ast[0], ast[1:]
        if op == "not" and len(args) == 1:
            return self._clauses(args[0], not positive)
        if op in ("<=", ">="):
            if not positive:
                raise Unsupported("theory atom in negative polarity")
            return [[self._theory_lit(ast)]]
        if op == "=>" and len(args) == 2:
            # (=> a b) is (or (not a) b)
            parts = [self._clauses(args[0], not positive), self._clauses(args[1], positive)]
        elif op in ("and", "or") and args:
            parts = [self._clauses(a, positive) for a in args]
        else:
            raise Unsupported(f"operator {op!r}")
        if (op == "and") == positive:
            return [c for part in parts for c in part]
        return self._disjunction(parts)

    def _disjunction(self, parts) -> list:
        """The clauses of the disjunction of clause sets ``parts``.

        One clause, distributed over the first part of several clauses;
        each later such part is replaced by a fresh literal that implies
        it (Plaisted & Greenbaum, J. Symbolic Computation 2(3), 1986).
        """
        if [] in parts:
            return []  # a true disjunct
        out, defs, distributed = [[]], [], False
        for part in parts:
            if len(part) == 1:
                for c in out:
                    c.extend(part[0])
            elif not distributed:
                out = [c + d for c in out for d in part]
                distributed = True
            else:
                fresh = self.new_var()
                for c in out:
                    c.append(fresh)
                defs += [[-fresh] + d for d in part]
        return out + defs

    def assert_formula(self, ast):
        for clause in self._clauses(ast):
            if not self.add_clause(clause):
                self.unsat_at_root = True

    # ---- values ----------------------------------------------------------

    def value_of(self, name: str):
        sort = self.sorts.get(name)
        if sort == "Bool":
            return self.val[self.var_of_name[name]] == 1
        if sort == "Real":
            return self.real_values.get(name, Fraction(0))
        raise Unsupported(f"unknown symbol {name!r}")


def main() -> int:
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
