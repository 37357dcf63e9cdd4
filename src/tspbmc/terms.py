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
  KA'         private key of A (apostrophe suffix; defined convention,
              the literature rarely writes private keys inline)
  KAB         symmetric key shared by A and B (agent pair is unordered,
              rendered with the agents sorted)
  Ta, Kab     fresh atoms (nonce / timestamp / session key), optionally
              suffixed with a session index: Ta#2
  x|y         concatenation, right-associative: x|y|z == x|(y|z)
  <k,m>       encryption of m under k
"""

from __future__ import annotations

import re
from typing import Iterator, Optional, Union

from .errors import TermError, TermSyntaxError

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

_IDENT_RE = re.compile(r"^[A-Z]$")
_PUBKEY_RE = re.compile(r"^K[A-Z]$")
_SYMKEY_RE = re.compile(r"^K[A-Z][A-Z]$")
_FRESH_RE = re.compile(r"^[A-Z][a-z][A-Za-z0-9]*$")


def is_key_form(t: Term) -> bool:
    """True for terms allowed in the key position of a cipher.

    Fresh atoms are accepted here; whether such an atom really is a
    session key is checked against the declarations by the frontend.
    """
    return isinstance(t, _KEY_FORMS)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise TermSyntaxError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def term(self, depth: int = 0) -> Term:
        """A term inside ``depth`` pairs and ciphers."""
        if depth > MAX_DEPTH:
            self.error(f"term nested more than {MAX_DEPTH} levels deep")
        if self.peek() == "<":
            return self.enc(depth)
        return self.cat(depth)

    def enc(self, depth: int) -> Cipher:
        key_pos = self.pos
        self.expect("<")
        key = self.term(depth + 1)
        if not is_key_form(key):
            raise TermSyntaxError("cipher key must be a key-form term", key_pos)
        self.expect(",")
        body = self.term(depth + 1)
        self.expect(">")
        return Cipher(key, body)

    def cat(self, depth: int) -> Term:
        left = self.atom()
        if self.peek() == "|":
            self.pos += 1
            return Pair(left, self.term(depth + 1))
        return left

    def atom(self) -> Term:
        self.skip_ws()
        m = re.match(r"[A-Z][A-Za-z0-9]*", self.text[self.pos:])
        if not m:
            self.error("expected an atom")
        name = m.group(0)
        self.pos += len(name)
        if _IDENT_RE.match(name):
            return Ident(name)
        if _PUBKEY_RE.match(name):
            agent = name[1]
            if self.peek() == "'":
                self.pos += 1
                return PrivKey(agent)
            return PubKey(agent)
        if _SYMKEY_RE.match(name):
            return SymKey(name[1], name[2])
        if _FRESH_RE.match(name):
            sid = None
            if self.peek() == "#":
                self.pos += 1
                m = re.match(r"[0-9]+", self.text[self.pos:])
                if not m:
                    self.error("malformed session suffix")
                sid = int(m.group(0))
                self.pos += len(m.group(0))
                if sid < 1:
                    self.error("session index must be >= 1")
            return Fresh(name, sid)
        self.error(f"unrecognized atom {name!r}")


def parse_term(text: str) -> Term:
    """Parse term text into its canonical Term."""
    if not text or not text.strip():
        raise TermSyntaxError("empty term", 0)
    p = _Parser(text)
    t = p.term()
    p.skip_ws()
    if p.pos != len(p.text):
        p.error("trailing input after term")
    return t


def render_term(t: Term) -> str:
    """Canonical text form; parse_term(render_term(t)) is t. Each distinct
    term is rendered once; later calls return the stored text."""
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
