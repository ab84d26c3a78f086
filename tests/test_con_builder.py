"""Every term node the library builds comes from ``terms._con``.

``Con.__init__`` sets each field through a slot descriptor, which costs
about as much as the rest of building a node, so the kernel, the parser,
the translation engine and the term generator build nodes with ``_con``
instead.  These tests count ``Con.__init__`` calls while each of them runs
on seeded inputs and require none, and walk every result to check that no
node was left a bare ``_ConFields``, the layout ``_con`` fills before it
moves the object to ``Con``.
"""

import contextlib
import random

import pytest

from initsyn.languages import _read, get_language, list_builtins, load_translation
from initsyn.laws import GenConfig, GenFailure, gen_context, gen_substitution, gen_term
from initsyn.surface import parse_term, print_termfile
from initsyn.terms import Con, Var, _ConFields, infer, rename, substitute, weaken
from initsyn.translate import identity_translation, translate_term, validate_translation

CFG = GenConfig(seed=0, max_depth=6)
LANGUAGES, TRANSLATIONS = list_builtins()


@contextlib.contextmanager
def counted_init():
    """Count the calls of ``Con.__init__`` made inside the block."""
    calls = [0]
    original = Con.__init__

    def counting(self, *args, **kwargs):
        calls[0] += 1
        original(self, *args, **kwargs)

    Con.__init__ = counting
    try:
        yield calls
    finally:
        Con.__init__ = original


def nodes(term):
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        if type(t) is Con or type(t) is _ConFields:
            stack.extend(t.args)


def assert_all_con(term, template=False):
    for t in nodes(term):
        assert type(t) is not _ConFields, t.name
        assert template or type(t) is Var or type(t) is Con


def cases(lang: str, seed: int, n: int):
    """``n`` seeded (context, term) pairs of ``lang``, each term a node."""
    sig, rng = get_language(lang), random.Random(seed)
    out = []
    while len(out) < n:
        ctx = gen_context(sig, CFG, rng, max_len=3)
        try:
            term = gen_term(sig, ctx, None, CFG, rng=rng)
        except GenFailure:  # a logic's goal may have no proof
            continue
        if type(term) is not Var:
            out.append((ctx, term))
    return out


def test_the_counter_sees_a_call_of_con():
    with counted_init() as calls:
        node = Con("x", None, (), ())
    assert calls[0] == 1 and type(node) is Con
    assert Con.__init__.__qualname__ == "Con.__init__"


@pytest.mark.parametrize("lang", LANGUAGES)
def test_kernel_operations_build_no_node_through_init(lang):
    sig, rng = get_language(lang), random.Random(27)
    inputs = cases(lang, 270, 40)
    subs = [gen_substitution(sig, ctx, CFG, rng, extension=3) for ctx, _ in inputs]
    rebuilt = 0
    with counted_init() as calls:
        results = []
        for (ctx, term), sub in zip(inputs, subs):
            results += [
                weaken(sig, term, 0, 2),
                weaken(sig, term, 1, 1),
                rename(sig, term, lambda i: i + 3),
                substitute(sig, term, sub),
            ]
    assert calls[0] == 0
    for (ctx, term), sub, out in zip(inputs, subs, zip(*[iter(results)] * 4)):
        before = {id(t) for t in nodes(term)}
        for result in out:
            assert_all_con(result)
            rebuilt += sum(type(t) is Con and id(t) not in before for t in nodes(result))
        assert infer(sig, sub.codomain, out[3]) is infer(sig, ctx, term)
    assert rebuilt >= len(inputs)  # the kernel rebuilt nodes while counted (PCF: 47)


@pytest.mark.parametrize("lang", LANGUAGES)
def test_parsing_and_generation_build_no_node_through_init(lang):
    sig = get_language(lang)
    texts = [print_termfile(sig, ctx, term) for ctx, term in cases(lang, 271, 40)]
    with counted_init() as calls:
        generated = cases(lang, 272, 40)
        parsed = [parse_term(text, sig) for text in texts]
    assert calls[0] == 0
    for (_, term) in generated + parsed:
        assert_all_con(term)
    assert [print_termfile(sig, ctx, term) for ctx, term in parsed] == texts


@pytest.mark.parametrize("name", TRANSLATIONS)
def test_translations_build_no_node_through_init(name):
    text = _read(name, ".xlat", "translation")
    inputs = cases(load_translation(text).source.name, 273, 30)
    with counted_init() as calls:
        x = load_translation(text)  # its macros and templates are parsed here
        assert validate_translation(x).ok
        outputs = [translate_term(x, ctx, term) for ctx, term in inputs]
        identity = identity_translation(x.target)
        assert validate_translation(identity).ok
        again = [translate_term(identity, (), out) for out in outputs]
    assert calls[0] == 0
    pieces = [piece for piece, _ in x._closed.values()] + list(x.macros.values())
    assert pieces
    for template in list(x.term_map.values()) + list(identity.term_map.values()) + pieces:
        assert_all_con(template, template=True)
    for out, same in zip(outputs, again):
        assert_all_con(out)
        assert same == out
