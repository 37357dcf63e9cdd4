import copy
import pickle
import random
import sys
import threading

import pytest

from tspbmc import terms
from tspbmc.errors import TermError, TermSyntaxError
from tspbmc.terms import (
    MAX_DEPTH,
    Cipher,
    Fresh,
    Ident,
    Pair,
    PrivKey,
    PubKey,
    SymKey,
    TermUniverse,
    instantiate,
    inverse_key,
    is_key_form,
    parse_term,
    render_term,
    subterms,
    term_depth,
)


def test_parse_atoms():
    assert parse_term("A") == Ident("A")
    assert parse_term("KB") == PubKey("B")
    assert parse_term("KA'") == PrivKey("A")
    assert parse_term("KAS") == SymKey("A", "S")
    assert parse_term("Ta") == Fresh("Ta")
    assert parse_term("Ta#2") == Fresh("Ta", 2)


def test_symkey_canonicalized_unordered():
    assert parse_term("KSA") == parse_term("KAS")
    assert render_term(parse_term("KSA")) == "KAS"


def test_pair_right_associative():
    t = parse_term("Ta|Tb|A")
    assert t == Pair(Fresh("Ta"), Pair(Fresh("Tb"), Ident("A")))
    assert render_term(t) == "Ta|Tb|A"


def test_cipher_structure():
    t = parse_term("<KB,Ta#1|A>")
    assert t == Cipher(PubKey("B"), Pair(Fresh("Ta", 1), Ident("A")))


def test_cipher_key_must_be_key_form():
    with pytest.raises(TermSyntaxError):
        parse_term("<A,Ta>")  # identity is not a key
    with pytest.raises(TermSyntaxError):
        parse_term("<Ta|A,Tb>")  # composite key


def test_nested_cipher_in_body():
    t = parse_term("<KA,<KB,Ta>>")
    assert isinstance(t.body, Cipher)


def test_nesting_depth_is_capped():
    # each pair and each cipher is one level
    pairs = "|".join(["A"] * (MAX_DEPTH + 1))
    ciphers = "<KB," * MAX_DEPTH + "A" + ">" * MAX_DEPTH
    assert term_depth(parse_term(pairs)) == term_depth(parse_term(ciphers)) == MAX_DEPTH
    for text in (pairs + "|A", "<KB," + ciphers + ">"):
        with pytest.raises(TermSyntaxError, match=f"nested more than {MAX_DEPTH} levels"):
            parse_term(text)


def test_syntax_errors_report_offset():
    with pytest.raises(TermSyntaxError) as e:
        parse_term("Ta|")
    assert e.value.offset == 3
    with pytest.raises(TermSyntaxError):
        parse_term("")
    with pytest.raises(TermSyntaxError):
        parse_term("<KB,Ta")
    with pytest.raises(TermSyntaxError):
        parse_term("Ta Tb")
    with pytest.raises(TermSyntaxError):
        parse_term("Ta#0")


def _random_term(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice([
            Ident(rng.choice("ABS")),
            PubKey(rng.choice("ABI")),
            PrivKey(rng.choice("AB")),
            SymKey(*rng.sample("ABS", 2)),
            Fresh(rng.choice(["Ta", "Tb", "Kab"]),
                  rng.choice([None, 1, 2, 17])),
        ])
    if rng.random() < 0.5:
        return Pair(_random_term(rng, 0), _random_term(rng, depth - 1))
    key = rng.choice([PubKey("A"), PrivKey("B"), SymKey("A", "B"), Fresh("Kab", 1)])
    return Cipher(key, _random_term(rng, depth - 1))


def test_parse_render_round_trip_randomized():
    rng = random.Random(20240817)
    for _ in range(1000):
        t = _random_term(rng, 4)
        assert parse_term(render_term(t)) is t  # the one object of that value


def test_equal_constructions_are_one_object():
    assert Ident("A") is Ident(agent="A")
    assert PubKey("A") is PubKey(agent="A") and PrivKey("A") is PrivKey(agent="A")
    assert SymKey("B", "A") is SymKey("A", "B") is SymKey(b="A", a="B")
    assert Fresh("Na") is Fresh("Na", None) is Fresh(name="Na")
    assert Fresh("Na", 1) is Fresh(sid=1, name="Na")
    assert Pair(Ident("A"), Fresh("Ta", 1)) is Pair(right=Fresh("Ta", 1), left=Ident("A"))
    assert Cipher(PubKey("B"), Ident("A")) is Cipher(key=PubKey("B"), body=Ident("A"))
    # values that differ stay apart, across classes too
    assert len({Ident("A"), PubKey("A"), PrivKey("A"), Fresh("Na"), Fresh("Na", 1)}) == 5


def test_threads_building_the_same_new_terms_get_one_object_each():
    # more threads than cores, switching often, each building the same
    # 1000 terms that no other test builds; a lost publish would leave two
    # objects for one value
    barrier = threading.Barrier(8, timeout=30)
    built = []

    def build():
        barrier.wait()
        built.append([Pair(Fresh("Zt", i), Cipher(SymKey("Y", "Z"), Fresh("Zt", i)))
                      for i in range(1000, 2000)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and len(built) == 8
    for terms_of_one_thread in built[1:]:
        assert all(a is b for a, b in zip(terms_of_one_thread, built[0], strict=True))


def test_fields_are_read_only():
    t = parse_term("<KB,Ta#1|A>")
    for term, field in ((t, "key"), (t.body, "left"), (Fresh("Ta"), "sid"),
                        (SymKey("A", "B"), "a"), (Ident("A"), "agent")):
        with pytest.raises(AttributeError):
            setattr(term, field, Ident("Z"))
        with pytest.raises(AttributeError):
            delattr(term, field)
    assert render_term(t) == "<KB,Ta#1|A>"


def test_copy_deepcopy_and_pickle_give_the_same_object():
    deep = parse_term("<KB," * MAX_DEPTH + "A" + ">" * MAX_DEPTH)
    for t in (parse_term("KA'|KAS|<KB,Ta#1|A>"), Fresh("Na"), deep):
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(t, protocol)) is t


def test_repr_is_the_dataclass_form():
    assert repr(parse_term("<KB,Ta#1|A>")) == (
        "Cipher(key=PubKey(agent='B'), "
        "body=Pair(left=Fresh(name='Ta', sid=1), right=Ident(agent='A')))")
    assert repr(SymKey("S", "A")) == "SymKey(a='A', b='S')"
    assert repr(PrivKey("A")) == "PrivKey(agent='A')"
    assert repr(Fresh("Na")) == "Fresh(name='Na', sid=None)"


def test_each_term_is_rendered_once(monkeypatch):
    rendered = []
    real = terms._render
    monkeypatch.setattr(terms, "_render", lambda t: rendered.append(t) or real(t))
    t = Pair(Fresh("Zr", 3), Cipher(SymKey("Y", "Z"), Fresh("Zr", 3)))
    assert render_term(t) == "Zr#3|<KYZ,Zr#3>"
    # the texts live on the terms for the whole process, so an earlier
    # render of any of them leaves it out here; none is rendered twice
    assert len(rendered) == len(set(rendered))
    assert set(rendered) <= {t, Fresh("Zr", 3), t.right, SymKey("Y", "Z")}
    rendered.clear()
    assert render_term(t) == "Zr#3|<KYZ,Zr#3>"
    assert rendered == []
    with pytest.raises(TermError, match="not a term"):
        render_term(("Zr", 3))


def test_subterms():
    t = parse_term("<KB,Ta#1|A>")
    subs = subterms(t)
    assert subs == {t, PubKey("B"), Pair(Fresh("Ta", 1), Ident("A")),
                    Fresh("Ta", 1), Ident("A")}


def test_instantiate_attaches_sid_only_when_absent():
    t = parse_term("<KB,Ta|Tb#3>")
    out = instantiate(t, 2)
    assert out == parse_term("<KB,Ta#2|Tb#3>")
    with pytest.raises(TermError):
        instantiate(t, 0)


def test_inverse_key():
    assert inverse_key(PubKey("A")) == PrivKey("A")
    assert inverse_key(PrivKey("A")) == PubKey("A")
    assert inverse_key(SymKey("A", "B")) == SymKey("A", "B")
    assert inverse_key(Fresh("Kab", 1)) == Fresh("Kab", 1)
    with pytest.raises(TermError):
        inverse_key(Ident("A"))


def test_is_key_form():
    assert is_key_form(PubKey("A"))
    assert is_key_form(Fresh("Kab"))
    assert not is_key_form(Ident("A"))
    assert not is_key_form(parse_term("Ta|Tb"))


def test_universe_deterministic_and_subterm_closed():
    members = [parse_term("<KB,Ta#1|A>"), parse_term("Tb#1")]
    u1 = TermUniverse(members)
    u2 = TermUniverse(reversed(members))
    assert list(u1) == list(u2)
    for t in u1:
        for s in subterms(t):
            assert s in u1
    assert all(u1.term_of(u1.id_of(t)) == t for t in u1)
    assert u1.depth == max(term_depth(t) for t in u1)


def test_universe_closes_its_members_at_once():
    # one subterms call over all members gives what closing each member on
    # its own gives: the same terms, ids and depth
    rng = random.Random(20261020)
    for _ in range(300):
        members = [_random_term(rng, 4) for _ in range(rng.randrange(6))]
        closed = sorted(set().union(*(subterms(t) for t in members)), key=render_term)
        u = TermUniverse(iter(members))
        assert list(u) == closed
        assert [u.id_of(t) for t in closed] == list(range(len(closed)))
        assert u.depth == max((term_depth(t) for t in closed), default=0)
