"""Compiled templates against a reference walk of the template tree.

``instantiate_template`` checks and compiles each template once per
translation; the walk below instantiates a validated template node by node
at every call, as the engine used to, and stays here only as the
reference."""

import random

import pytest

from initsyn import translate
from initsyn.languages import _read, get_language, get_translation, list_builtins
from initsyn.objtypes import ObjType, eval_type_expr, ground_types
from initsyn.signatures import TApp, TVar
from initsyn.surface import parse_translation, translation_header
from initsyn.terms import Con, TypeCheckError, Var, weaken
from initsyn.translate import (
    HOLE,
    ITER,
    STAB,
    TplCon,
    TplMacro,
    TplMeta,
    TplVar,
    Translation,
    build_stability_witness,
    identity_translation,
    instantiate_template,
    retype_inst,
    translate_term,
    validate_translation,
)

BOOL, STAR = ObjType("Bool"), ObjType("*")
BUILTIN_TRANSLATIONS = ["pcf2ulc-turing", "pcf2ulc-curry", "cpc2ipc-godel-gentzen"]


def reference_instantiate(x, ar, inst, translated_args, lit=None):
    """The template of ``ar``, which validates, walked node by node."""
    binder_counts = tuple(len(spec.binders) for spec in ar.args)

    def build(tpl, depth, hole):
        match tpl:
            case TplVar(index=i):
                return Var(i)
            case TplMeta(index=j):
                expected = binder_counts[j - 1]
                return weaken(x.target, translated_args[j - 1], expected, depth - expected)
            case TplMacro(name=name):
                return x.macros[name]
        if tpl.name == HOLE:
            return hole
        if tpl.name == ITER:
            if lit is None:
                raise TypeCheckError("__iter without a family literal")
            step, base = tpl.args
            acc = build(base, depth, hole)
            for _ in range(lit):
                acc = build(step, depth, acc)
            return acc
        if tpl.name == STAB:
            ty = eval_type_expr(inst, tpl.inst[0])
            inner = build(tpl.args[0], depth, hole)
            return build_stability_witness(x.target, ty, inner)
        tar = x.target.arity(tpl.name)
        node_lit = tpl.lit
        if tar.family_index and node_lit is None:
            node_lit = lit
        node_inst = tuple(eval_type_expr(inst, e) for e in tpl.inst)
        new_args = tuple(
            build(sub, depth + len(spec.binders), hole)
            for spec, sub in zip(tar.args, tpl.args)
        )
        return Con(tpl.name, node_lit, node_inst, new_args)

    return build(x.term_map[ar.name], 0, None)


def _translations():
    out = [get_translation(name) for name in BUILTIN_TRANSLATIONS]
    return out + [identity_translation(get_language(name)) for name in list_builtins()[0]]


@pytest.mark.parametrize("x", _translations(), ids=lambda x: x.name)
def test_every_arity_agrees_with_the_reference_walk(x):
    """Every arity at instantiations drawn from the source pool, with
    literals 0-5 for family arities, and arguments that are variables or
    earlier outputs, so that weakening shows."""
    rng = random.Random(5)
    pool = ground_types(x.source.all_types, 2)
    outputs = [Var(0), Var(3)]
    checked = 0
    for ar in x.source.terms:
        lits = range(6) if ar.family_index else [None]
        for _ in range(8):
            inst = retype_inst(x.type_map, tuple(rng.choice(pool) for _ in range(ar.degree)))
            for lit in lits:
                args = tuple(
                    rng.choice([Var(rng.randrange(4)), rng.choice(outputs)]) for _ in ar.args
                )
                got = instantiate_template(x, ar, inst, args, lit)
                assert got == reference_instantiate(x, ar, inst, args, lit)
                if len(outputs) < 200:
                    outputs.append(got)
                checked += 1
    assert checked >= 8 * len(x.source.terms)


def test_or_elimination_takes_the_stability_path():
    """GG's orE is a __stab whose second and third placeholders sit under
    one extra template binder each."""
    x = get_translation("cpc2ipc-godel-gentzen")
    orE = x.source.arity("orE")
    assert x.term_map["orE"].name == STAB
    rng = random.Random(6)
    pool = ground_types(x.source.all_types, 2)
    for _ in range(40):
        inst = retype_inst(x.type_map, tuple(rng.choice(pool) for _ in range(3)))
        args = (Var(rng.randrange(3)), Var(rng.randrange(4)), Var(rng.randrange(5)))
        got = instantiate_template(x, orE, inst, args)
        assert got == reference_instantiate(x, orE, inst, args)


def test_closed_templates_are_shared():
    x = get_translation("pcf2ulc-turing")
    tttt = x.source.arity("tttt")
    first = instantiate_template(x, tttt, (), ())
    assert instantiate_template(x, tttt, (), ()) is first
    both = Con("app", None, (BOOL, BOOL), (Con("tttt", None, (), ()),) * 2)
    out = translate_term(x, (), both)
    assert out.args[0] is out.args[1] is first


def test_closed_stability_witness_is_shared():
    gg = get_translation("cpc2ipc-godel-gentzen")
    top_i = gg.source.arity("topI")
    bot = TApp("bot")
    nn_top = TApp("impl", (TApp("impl", (TApp("top"), bot)), bot))
    body = TplCon("implE", None, (nn_top, bot), (TplVar(0), gg.term_map["topI"]))
    witness_of = TplCon("implI", None, (TApp("impl", (nn_top, bot)), bot), (body,))
    closed = TplCon(STAB, None, (nn_top,), (witness_of,))
    x = Translation(gg.name, gg.source, gg.target, gg.type_map, dict(gg.term_map, topI=closed))
    assert validate_translation(x).ok
    first = instantiate_template(x, top_i, (), ())
    assert first == reference_instantiate(x, top_i, (), ())
    assert instantiate_template(x, top_i, (), ()) is first


def test_rebuilt_translation_compiles_afresh():
    x = get_translation("pcf2ulc-turing")
    tttt = x.source.arity("tttt")
    old = instantiate_template(x, tttt, (), ())
    edited = dict(x.term_map, tttt=x.term_map["ffff"])
    y = Translation(x.name, x.source, x.target, x.type_map, edited, x.macros)
    ffff = instantiate_template(x, x.source.arity("ffff"), (), ())
    assert instantiate_template(y, tttt, (), ()) == ffff != old
    assert instantiate_template(x, tttt, (), ()) is old
    # an edit in place is seen too: the compiled form is kept with its template
    y.term_map["tttt"] = x.term_map["tttt"]
    assert instantiate_template(y, tttt, (), ()) == old


def _hole():
    return TplCon(HOLE, None, (), ())


def _con(name, *args, inst=()):
    return TplCon(name, None, inst, args)


# (translation, source arity, unvalidated template, its validate_translation entry)
_BROKEN = {
    "meta out of range": (
        "pcf2ulc-turing",
        "rec",
        _con("app", TplMeta(1), TplMeta(3)),
        "Meta(3) out of range; arity has 1 arguments",
    ),
    "hole outside iter": ("pcf2ulc-turing", "rec", _con("abs", _hole()), "__hole outside __iter"),
    "unknown arity": (
        "pcf2ulc-turing",
        "rec",
        _con("abs", _con("nope")),
        "unknown target arity 'nope'",
    ),
    "unknown macro": (
        "pcf2ulc-turing",
        "rec",
        _con("app", TplMacro("Nope"), TplMeta(1)),
        "unknown macro 'Nope'",
    ),
    "iter in non-family": (
        "pcf2ulc-turing",
        "tttt",
        _con(ITER, TplVar(0), TplVar(0)),
        "__iter in a template for a non-family arity",
    ),
    "iter of three": (
        "pcf2ulc-turing",
        "nats",
        _con(ITER, TplVar(0), TplVar(0), TplVar(0)),
        "__iter takes exactly two sub-templates",
    ),
    "broken step": (
        "pcf2ulc-turing",
        "nats",
        _con("abs", _con(ITER, _con("nope"), TplVar(0))),
        "unknown target arity 'nope'",
    ),
    "hole under binder": (  # the base is checked before the step
        "pcf2ulc-turing",
        "nats",
        _con(ITER, _con("abs", _hole()), TplVar(0)),
        "unbound template variable #0",
    ),
    "type variable out of range": (
        "cpc2ipc-godel-gentzen",
        "andI",
        _con("andI", TplMeta(1), TplMeta(2), inst=(TVar(1), TVar(5))),
        "type expression $5: variable 5 exceeds degree 2",
    ),
    "stab without a type": (
        "cpc2ipc-godel-gentzen",
        "orE",
        _con(STAB, TplMeta(1)),
        "__stab takes one type expression and one sub-template",
    ),
}


@pytest.mark.parametrize("case", sorted(_BROKEN))
def test_unvalidated_templates_fail_as_the_walk_does(case):
    """A template that fails its check raises, at every call, the entry
    that ``validate_translation`` reports for its arity."""
    name, source, tpl, message = _BROKEN[case]
    x = get_translation(name)
    ar = x.source.arity(source)
    bad = Translation(x.name, x.source, x.target, x.type_map, dict(x.term_map, **{source: tpl}))
    args = tuple(Var(k) for k in range(len(ar.args)))
    pool = ground_types(x.target.all_types, 1)
    inst = tuple(pool[k % len(pool)] for k in range(ar.degree))
    entry = f"arity '{source}': {message}"
    for lit in (None, 0, 2):
        for _ in range(2):  # the second call compiles again
            with pytest.raises(TypeCheckError) as err:
                instantiate_template(bad, ar, inst, args, lit)
            assert str(err.value) == entry
    entries = validate_translation(bad).entries
    assert [e for e in entries if e.startswith(f"arity '{source}': ")] == [entry]


def test_named_errors_keep_their_messages():
    x = get_translation("pcf2ulc-turing")
    rec = x.source.arity("rec")
    cases = {
        TplMeta(2): "arity 'rec': Meta(2) out of range; arity has 1 arguments",
        _hole(): "arity 'rec': __hole outside __iter",
        _con(ITER, TplVar(0), TplVar(0)): (
            "arity 'rec': __iter in a template for a non-family arity"
        ),
        _con("nope"): "arity 'rec': unknown target arity 'nope'",
    }
    for tpl, message in cases.items():
        bad = Translation(x.name, x.source, x.target, x.type_map, dict(x.term_map, rec=tpl))
        for _ in range(2):
            with pytest.raises(TypeCheckError) as err:
                instantiate_template(bad, rec, (STAR,), (Var(0),))
            assert err.value.message == message
    # a valid family template still needs the literal of its occurrence
    nats = x.source.arity("nats")
    for _ in range(2):
        with pytest.raises(TypeCheckError) as err:
            instantiate_template(x, nats, (), (), None)
        assert err.value.message == "__iter without a family literal"


def test_type_variables_index_the_instantiation():
    x = identity_translation(get_language("STLC"))
    abs_ = x.source.arity("abs")
    pool = ground_types(x.source.all_types, 2)
    inst = (pool[0], pool[-1])
    out = instantiate_template(x, abs_, inst, (Var(0),))
    assert out == Con("abs", None, inst, (Var(0),))


@pytest.mark.parametrize("name", BUILTIN_TRANSLATIONS)
def test_each_template_is_walked_once(name, monkeypatch):
    """Parsing validates and compiles each template in one walk, and
    translating then uses the compiled forms without walking again."""
    calls = []
    compile_ = translate._compile

    def counting(x, ar, *rest):
        calls.append(ar.name)
        return compile_(x, ar, *rest)

    monkeypatch.setattr(translate, "_compile", counting)
    text = _read(name, ".xlat", "translation")
    _, source, target = translation_header(text)
    x = parse_translation(text, get_language(source), get_language(target))
    pool = ground_types(x.source.all_types, 1)
    for ar in x.source.terms:
        inst = tuple(pool[k % len(pool)] for k in range(ar.degree))
        args = tuple(Var(0) for _ in ar.args)
        translate_term(x, (), Con(ar.name, 2 if ar.family_index else None, inst, args))
    assert sorted(calls) == sorted(ar.name for ar in x.source.terms)
