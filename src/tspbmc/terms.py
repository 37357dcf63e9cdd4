"""Cryptographic term algebra and its textual syntax.

Terms are the currency of the pipeline: protocol messages, scenario
payloads and witness reports all use the same text form, e.g.
``<KB,Ta#1|A>`` for a pair of the nonce Ta (session 1) and the identity A
encrypted under B's public key.

Terms are interned: constructing a term returns the one object that has
that value, so ``==`` is identity and a term hashes in O(1) however deep
it is. The table of terms lives as long as the process and is never
emptied: a process keeps every distinct term it has built, so a
long-lived caller that builds ever new terms grows without bound. Terms
are read-only, and copying or unpickling one gives back the same object.

Surface conventions (single-letter agent names):
  A           identity
  KA          public key of A
  KA'         private key of A (apostrophe suffix)
  KAB         symmetric key shared by A and B (unordered, rendered sorted)
  Ta, Kab     fresh atoms (nonce / timestamp / session key), optionally
              suffixed with a session index: Ta#2
  x|y         concatenation, right-associative: x|y|z == x|(y|z)
  <k,m>       encryption of m under k

Grammar: ``term := unit ['|' term]``, ``unit := '<' term ',' term '>' |
atom``, so a cipher may head a pair (``<KAS,Kab>|<KBS,Kab>``) and a pair
whose left part is a pair has no text form. Whitespace may separate tokens.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional, Union

from .errors import TermError, TermSyntaxError, quote

Term = Union["Ident", "PubKey", "PrivKey", "SymKey", "Fresh", "Pair", "Cipher"]

FRESH_CLASSES = ("nonce", "timestamp", "sesskey")


# (class, *field values) -> the one term with that value. It lives as long
# as the process, and setdefault publishes each new term exactly once.
_TABLE: dict = {}


def _intern(cls, *values):
    key = (cls, *values)
    term = _TABLE.get(key)
    if term is None:
        term = object.__new__(cls)
        for field, value in zip(cls.__slots__, values):
            object.__setattr__(term, field, value)
        term = _TABLE.setdefault(key, term)
    return term


class _Term:
    """An interned, read-only term: equality is identity, and the hash is
    the object's own. ``_text`` holds the rendered text once rendered."""

    __slots__ = ("_text",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {value!r} to field {name!r} of a term")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a term")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the term through its
        # constructor, which returns the interned object
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


class Ident(_Term):
    __slots__ = ("agent",)

    def __new__(cls, agent: str):
        return _intern(cls, agent)


class PubKey(_Term):
    __slots__ = ("agent",)

    def __new__(cls, agent: str):
        return _intern(cls, agent)


class PrivKey(_Term):
    __slots__ = ("agent",)

    def __new__(cls, agent: str):
        return _intern(cls, agent)


class SymKey(_Term):
    __slots__ = ("a", "b")

    def __new__(cls, a: str, b: str):
        # canonical form: agent pair sorted
        return _intern(cls, a, b) if a <= b else _intern(cls, b, a)


class Fresh(_Term):
    __slots__ = ("name", "sid")

    def __new__(cls, name: str, sid: Optional[int] = None):
        return _intern(cls, name, sid)


class Pair(_Term):
    __slots__ = ("left", "right")

    def __new__(cls, left: Term, right: Term):
        return _intern(cls, left, right)


class Cipher(_Term):
    __slots__ = ("key", "body")

    def __new__(cls, key: Term, body: Term):
        return _intern(cls, key, body)


_KEY_FORMS = (PubKey, PrivKey, SymKey, Fresh)
MAX_DEPTH = 256  # pairs and ciphers a parsed term may nest

# One token after any whitespace; group 1 is empty where no token starts.
_TOKEN = re.compile(r"""\s*(
    ([<,>|])                                      # 2 punctuation
  | ([A-Z])(?![A-Za-z0-9])                        # 3 identity A
  | K([A-Z])(?![A-Za-z0-9])(\s*')?                # 4 public key KA, 5 private KA'
  | K([A-Z])([A-Z])(?![A-Za-z0-9])                # 6, 7 symmetric key KAB
  | ([A-Z][a-z][A-Za-z0-9]*)(?:\s*\#([0-9]*))?    # 8 fresh Ta, 9 its session Ta#2
  | [A-Z][A-Za-z0-9]*                             # any other name
  |)""", re.VERBOSE)


def is_key_form(t: Term) -> bool:
    """True for terms allowed in the key position of a cipher; the frontend
    checks that a fresh atom there is a declared session key."""
    return isinstance(t, _KEY_FORMS)


def parse_term(text: str) -> Term:
    """Parse term text into its canonical Term (grammar: module docstring)."""
    if not text or not text.strip():
        raise TermSyntaxError("empty term", 0)
    m = _TOKEN.match(text)  # the next token

    def expect(ch: str):
        nonlocal m
        if m[1] != ch:
            raise TermSyntaxError(f"expected {ch!r}", m.start(1))
        m = _TOKEN.match(text, m.end())

    def term(depth: int) -> Term:
        """A term inside ``depth`` pairs and ciphers, or one more if a pair follows."""
        nonlocal m
        if depth > MAX_DEPTH:
            raise TermSyntaxError(f"term nested more than {MAX_DEPTH} levels deep", m.start())
        if m[1] == "<":
            key_pos = m.start(1)
            expect("<")
            key = term(depth + 1)
            if not is_key_form(key):
                raise TermSyntaxError("cipher key must be a key-form term", key_pos)
            expect(",")
            unit = Cipher(key, term(depth + 1))
            expect(">")
        else:
            unit = _atom(m)
            m = _TOKEN.match(text, m.end())
        if m[1] != "|":
            return unit
        expect("|")
        if isinstance(unit, Cipher) and depth + 1 + term_depth(unit) > MAX_DEPTH:
            raise TermSyntaxError(f"term nested more than {MAX_DEPTH} levels deep", m.start())
        return Pair(unit, term(depth + 1))

    t = term(0)
    if m.start(1) != len(text):
        raise TermSyntaxError("trailing input after term", m.start(1))
    return t


def _atom(m) -> Term:
    if m[3]:
        return Ident(m[3])
    if m[4]:
        return PrivKey(m[4]) if m[5] else PubKey(m[4])
    if m[6]:
        return SymKey(m[6], m[7])
    if m[8]:
        try:
            sid = None if m[9] is None else int(m[9])
        except ValueError:  # no digit, or more than int() converts
            raise TermSyntaxError("malformed session suffix", m.start(9)) from None
        if sid is not None and sid < 1:
            raise TermSyntaxError("session index must be >= 1", m.end())
        return Fresh(m[8], sid)
    if m[1] and not m[2]:
        raise TermSyntaxError(f"unrecognized atom {quote(m[1])}", m.end(1))
    raise TermSyntaxError("expected an atom", m.start(1))


def render_term(t: Term) -> str:
    """Canonical text form, which parses back to t unless a pair of t has a
    pair on its left. Each distinct term is rendered once, then stored."""""
    text = getattr(t, "_text", None)
    if text is None:
        text = _render(t)
        object.__setattr__(t, "_text", text)
    return text


def _render(t: Term) -> str:
    if isinstance(t, Ident):
        return t.agent
    if isinstance(t, PubKey):
        return "K" + t.agent
    if isinstance(t, PrivKey):
        return "K" + t.agent + "'"
    if isinstance(t, SymKey):
        return "K" + t.a + t.b
    if isinstance(t, Fresh):
        return t.name if t.sid is None else f"{t.name}#{t.sid}"
    if isinstance(t, Pair):
        return render_term(t.left) + "|" + render_term(t.right)
    if isinstance(t, Cipher):
        return f"<{render_term(t.key)},{render_term(t.body)}>"
    raise TermError(f"not a term: {t!r}")


def subterms(*terms: Term) -> frozenset:
    """The given terms plus all transitive components of pairs and ciphers."""
    out = set()
    stack = list(terms)
    while stack:
        cur = stack.pop()
        if cur in out:
            continue
        out.add(cur)
        if isinstance(cur, Pair):
            stack.append(cur.left)
            stack.append(cur.right)
        elif isinstance(cur, Cipher):
            stack.append(cur.key)
            stack.append(cur.body)
    return frozenset(out)


def instantiate(template: Term, sid: int) -> Term:
    """Attach ``sid`` to every fresh atom that does not carry one yet."""
    if sid < 1:
        raise TermError("session index must be >= 1")
    if isinstance(template, Fresh):
        if template.sid is None:
            return Fresh(template.name, sid)
        return template
    if isinstance(template, Pair):
        return Pair(instantiate(template.left, sid), instantiate(template.right, sid))
    if isinstance(template, Cipher):
        return Cipher(instantiate(template.key, sid), instantiate(template.body, sid))
    return template


def inverse_key(k: Term) -> Term:
    """Dolev-Yao key inversion: pub<->priv, symmetric keys self-inverse."""
    if isinstance(k, PubKey):
        return PrivKey(k.agent)
    if isinstance(k, PrivKey):
        return PubKey(k.agent)
    if isinstance(k, (SymKey, Fresh)):
        return k
    raise TermError(f"not a key-form term: {render_term(k)}")


def term_depth(t: Term) -> int:
    if isinstance(t, Pair):
        return 1 + max(term_depth(t.left), term_depth(t.right))
    if isinstance(t, Cipher):
        return 1 + max(term_depth(t.key), term_depth(t.body))
    return 0


class TermUniverse:
    """Finite, deduplicated, subterm-closed carrier for the knowledge encoding.

    Ids are assigned by sorting the rendered text of all members, so the
    numbering is deterministic regardless of insertion order. A subterm is
    never deeper than the term that contains it, so the members' depth is
    the universe's.
    """

    def __init__(self, members):
        members = tuple(members)
        self.terms = sorted(subterms(*members), key=render_term)
        self._ids = {t: i for i, t in enumerate(self.terms)}
        self.depth = max((term_depth(t) for t in members), default=0)

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, t: Term) -> bool:
        return t in self._ids

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms)

    def id_of(self, t: Term) -> int:
        return self._ids[t]

    def term_of(self, tid: int) -> Term:
        return self.terms[tid]
