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
from initsyn.signatures import TVar
from initsyn.surface import parse_signature, parse_translation, translation_header
from initsyn.terms import Con, TypeCheckError, Var, infer, weaken
from initsyn.translate import (
    HOLE,
    ITER,
    STAB,
    TplMacro,
    TplMeta,
    Translation,
    build_stability_witness,
    identity_translation,
    instantiate_template,
    retype_context,
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
            case Var(index=i):
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
            inst = retype_context(x.type_map, tuple(rng.choice(pool) for _ in range(ar.degree)))
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
        inst = retype_context(x.type_map, tuple(rng.choice(pool) for _ in range(3)))
        args = (Var(rng.randrange(3)), Var(rng.randrange(4)), Var(rng.randrange(5)))
        got = instantiate_template(x, orE, inst, args)
        assert got == reference_instantiate(x, orE, inst, args)


def _or_elimination_cases(x, rng, count):
    """Instantiations of orE from the source pool, with arguments that are
    variables or compound terms whose variables every shift moves."""
    pool = ground_types(x.source.all_types, 2)
    orE = x.source.arity("orE")
    for _ in range(count):
        inst = retype_context(x.type_map, tuple(rng.choice(pool) for _ in range(3)))
        args = tuple(
            rng.choice([Var(rng.randrange(4)), Con("andI", None, inst[:2], (Var(1), Var(3)))])
            for _ in range(3)
        )
        yield orE, inst, args


def test_or_elimination_places_its_arguments_at_the_landing():
    """GG's orE is a ``__stab`` at the root: its placements at an
    instantiation are the static ones plus the witness's landing there,
    and its output does not change."""
    x = get_translation("cpc2ipc-godel-gentzen")
    entry = x._compiled["orE"]
    assert entry[3] == ((0, 1), (1, 1), (1, 1)) and entry[4] is not None
    assert all(x._compiled[name][4] is None for name in x.term_map if name != "orE")
    checked = 0
    for orE, inst, args in _or_elimination_cases(x, random.Random(26), 60):
        s = translate._landing(inst[2]) or 0
        assert translate._placements(entry, inst) == tuple((b, k + s) for b, k in entry[3])
        checked += s > 0
        got = instantiate_template(x, orE, inst, args)
        assert got == reference_instantiate(x, orE, inst, args)
        placed = tuple(weaken(x.target, a, b, k + s) for a, (b, k) in zip(args, entry[3]))
        assert instantiate_template(x, orE, inst, placed, placed=True) == got
    assert checked >= 40


def test_a_stab_below_the_root_shifts_its_term_at_each_landing():
    """The same ``__stab`` under ``andE1``/``andI`` takes no landing: its
    arguments keep their static placements and the witness shifts the
    term it is given."""
    gg = get_translation("cpc2ipc-godel-gentzen")
    three, top = TVar(3), ObjType("top")
    pair = Con("andI", None, (three, top), (gg.term_map["orE"], Con("topI", None, (), ())))
    wrapped = Con("andE1", None, (three, top), (pair,))
    x = Translation(gg.name, gg.source, gg.target, gg.type_map, dict(gg.term_map, orE=wrapped))
    assert validate_translation(x).ok
    assert x._compiled["orE"][4] is None
    for orE, inst, args in _or_elimination_cases(x, random.Random(27), 40):
        assert translate._placements(x._compiled["orE"], inst) == x._compiled["orE"][3]
        got = instantiate_template(x, orE, inst, args)
        assert got == reference_instantiate(x, orE, inst, args)
        assert got.args[0].args[0] == instantiate_template(gg, orE, inst, args)


def test_a_direct_root_builds_its_node_from_the_argument_tuple():
    """A template ``(C [..] ?1 ... ?n)`` is its own head: the node takes
    the placed argument tuple itself."""
    x = get_translation("cpc2ipc-godel-gentzen")
    and_i = x.source.arity("andI")
    inst = retype_context(x.type_map, (ObjType("p"), ObjType("q")))
    args = (Var(0), Var(1))
    out = instantiate_template(x, and_i, inst, args, placed=True)
    assert type(x._compiled["andI"][5]) is tuple
    assert out.args is args and out == reference_instantiate(x, and_i, inst, args)


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
    bot = ObjType("bot")
    nn_top = ObjType("impl", (ObjType("impl", (ObjType("top"), bot)), bot))
    body = Con("implE", None, (nn_top, bot), (Var(0), gg.term_map["topI"]))
    witness_of = Con("implI", None, (ObjType("impl", (nn_top, bot)), bot), (body,))
    closed = Con(STAB, None, (nn_top,), (witness_of,))
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
    return Con(HOLE, None, (), ())


def _con(name, *args, inst=()):
    return Con(name, None, inst, args)


# A typed target with a family arity, which no builtin translation has.
_TALLY = """
language Tally
types { * : 0 }
terms {
  none [0] : () -> *
  family tally [0] : () -> *
}
"""

_TALLY_TO_PCF = """
translation tally2pcf from Tally to PCF
types { * -> Nat }
terms {
  none -> (nats{0})
  tally -> (nats)
}
"""

# (translation, source arity, unvalidated template, its validate_translation entry);
# tally2pcf is the translation above
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
        _con(ITER, Var(0), Var(0)),
        "__iter in a template for a non-family arity",
    ),
    "iter of three": (
        "pcf2ulc-turing",
        "nats",
        _con(ITER, Var(0), Var(0), Var(0)),
        "__iter takes exactly two sub-templates",
    ),
    "broken step": (
        "pcf2ulc-turing",
        "nats",
        _con("abs", _con(ITER, _con("nope"), Var(0))),
        "unknown target arity 'nope'",
    ),
    "hole under binder": (  # the base is checked before the step
        "pcf2ulc-turing",
        "nats",
        _con(ITER, _con("abs", _hole()), Var(0)),
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
    "hole under a step binder": (
        "pcf2ulc-turing",
        "nats",
        _con(ITER, _con("abs", _hole()), _con("abs", Var(0))),
        "__hole under a binder introduced by the step",
    ),
    "literal on a non-family target": (
        "pcf2ulc-turing",
        "rec",
        Con("abs", 2, (), (TplMeta(1),)),
        "'abs' is not family-indexed",
    ),
    "target parameter count": (
        "pcf2ulc-turing",
        "rec",
        _con("app", TplMeta(1), TplMeta(1), inst=(STAR,)),
        "'app' expects 0 type parameters, got 1",
    ),
    "stab argument type": (
        "cpc2ipc-godel-gentzen",
        "orE",
        _con(STAB, TplMeta(1), inst=(TVar(3),)),
        "__stab argument has type impl(and(impl(__o1,bot),impl(__o2,bot)),bot), "
        "expected impl(impl(__o3,bot),bot)",
    ),
    "not a template": ("pcf2ulc-turing", "rec", _con("abs", 7), "not a template: 7"),
    "family literal": (
        "tally2pcf",
        "none",
        _con("nats"),
        "'nats' needs a family literal (no source literal to pass through)",
    ),
    "iter types": (
        "tally2pcf",
        "tally",
        _con(ITER, _con("tttt"), Con("nats", 0, (), ())),
        "__iter step has type Bool, base has type Nat",
    ),
}

def _tally_to_pcf():
    x = parse_translation(_TALLY_TO_PCF, parse_signature(_TALLY), get_language("PCF"))
    assert validate_translation(x).ok
    return x


@pytest.mark.parametrize("case", sorted(_BROKEN))
def test_unvalidated_templates_fail_as_the_walk_does(case):
    """A template that fails its check raises, at every call, the entry
    that ``validate_translation`` reports for its arity."""
    name, source, tpl, message = _BROKEN[case]
    x = _tally_to_pcf() if name == "tally2pcf" else get_translation(name)
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


def test_translate_term_raises_a_failing_template_after_its_arguments():
    """Unvalidated, a failing template is found while its node is first
    seen; the node's arguments are translated first, so an argument's own
    error wins, at its argument path, and then the template's entry is
    raised, with none."""
    x = get_translation("pcf2ulc-turing")
    tpl = _con("abs", _con("nope"))
    bad = Translation(x.name, x.source, x.target, x.type_map, dict(x.term_map, rec=tpl), x.macros)
    nat = ObjType("Nat")
    for arg, message, path in (
        (Con("Succ", 3, (), ()), "'Succ' is not family-indexed", (0,)),
        (Con("Succ", None, (), ()), "arity 'rec': unknown target arity 'nope'", ()),
    ):
        for _ in range(2):
            with pytest.raises(TypeCheckError) as err:
                translate_term(bad, (), Con("rec", None, (nat,), (arg,)))
            assert err.value.message == message
            assert err.value.path == path


def test_named_errors_keep_their_messages():
    x = get_translation("pcf2ulc-turing")
    rec = x.source.arity("rec")
    cases = {
        TplMeta(2): "arity 'rec': Meta(2) out of range; arity has 1 arguments",
        _hole(): "arity 'rec': __hole outside __iter",
        _con(ITER, Var(0), Var(0)): (
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


_GUARD_SOURCE = """
language GuardSource
types { * : 0 }
terms {
  pair [0] : ([] *, [] *) -> *
  wrap [0] : ([] *) -> *
  family num [0] : ([] *) -> *
}
"""

_GUARD_TARGET = """
language GuardTarget
types { * : 0 }
terms {
  app [0] : ([] *, [] *) -> *
  lam [0] : ([*] *) -> *
  family tag [0] : ([] *) -> *
}
"""

_GUARD_TRANSLATION = """
translation guard from GuardSource to GuardTarget
types { * -> * }
terms {
  pair -> (app ?2 ?1)
  wrap -> (lam ?1)
  num -> (tag ?1)
}
"""


@pytest.mark.parametrize(
    "ctx_len, term, expected",
    [
        # placeholders out of order
        (2, Con("pair", None, (), (Var(0), Var(1))), Con("app", None, (), (Var(1), Var(0)))),
        # the target binds a variable the source does not: ?1 is weakened
        (1, Con("wrap", None, (), (Var(0),)), Con("lam", None, (), (Var(1),))),
        (
            1,
            Con("wrap", None, (), (Con("wrap", None, (), (Var(0),)),)),
            Con("lam", None, (), (Con("lam", None, (), (Var(2),)),)),
        ),
        # the source literal is passed through to a family target
        (1, Con("num", 3, (), (Var(0),)), Con("tag", 3, (), (Var(0),))),
    ],
)
def test_templates_shaped_like_their_arguments_keep_their_meaning(ctx_len, term, expected):
    """Templates that look like ``(C ?1 … ?n)`` but reorder, weaken or pass
    a literal through translate as the reference walk does."""
    source, target = parse_signature(_GUARD_SOURCE), parse_signature(_GUARD_TARGET)
    x = parse_translation(_GUARD_TRANSLATION, source, target)
    assert validate_translation(x).ok
    ctx = (STAR,) * ctx_len
    got = translate_term(x, ctx, term)
    assert got == expected
    assert infer(target, ctx, got) == STAR
    ar = source.arity(term.name)
    args = tuple(translate_term(x, ctx, a) for a in term.args)
    assert reference_instantiate(x, ar, (), args, term.lit) == expected


def test_an_arity_without_a_template_raises_its_validation_entry():
    """Without a template for ``tttt``, both entry points raise, at every
    call, the entry ``validate_translation`` reports, not a ``KeyError``."""
    x = get_translation("pcf2ulc-turing")
    term_map = {name: tpl for name, tpl in x.term_map.items() if name != "tttt"}
    bad = Translation(x.name, x.source, x.target, x.type_map, term_map, x.macros)
    entry = "arity 'tttt': no template for tttt"
    assert entry in validate_translation(bad).entries
    tttt = Con("tttt", None, (), ())
    calls = (
        lambda: translate_term(bad, (), Con("app", None, (BOOL, BOOL), (Var(0), tttt))),
        lambda: instantiate_template(bad, x.source.arity("tttt"), (), ()),
    )
    for call in calls:
        for _ in range(2):
            with pytest.raises(TypeCheckError) as err:
                call()
            assert (str(err.value), err.value.path) == (entry, ())


def _nodes(term, path=()):
    """(path, node) for each node with a name, in pre-order."""
    if type(term) is not Con:
        return []
    out = [(path, term)]
    for j, a in enumerate(term.args):
        out += _nodes(a, path + (j,))
    return out


def _replace(term, path, node):
    if not path:
        return node
    args = list(term.args)
    args[path[0]] = _replace(args[path[0]], path[1:], node)
    return Con(term.name, term.lit, term.inst, tuple(args))


def _malformed(sig, node, kind, rng):
    """``node`` with one defect of ``kind``."""
    name, lit, inst, args = node.name, node.lit, node.inst, node.args
    if kind == "literal":
        lit = None if sig.arity(name).family_index else rng.randint(0, 3)
    elif kind == "type parameters":
        inst = inst[:-1] if inst and rng.random() < 0.5 else inst + (BOOL,)
    elif kind == "arguments":
        args = args[:-1] if args and rng.random() < 0.5 else args + (Var(0),)
    else:
        name = "nope"
    return Con(name, lit, inst, args)


@pytest.mark.parametrize("name", BUILTIN_TRANSLATIONS)
def test_node_errors_carry_infers_argument_path(name):
    """A seeded well-typed term with one node made malformed (a wrong
    literal, type-parameter count, argument count or arity name) fails
    ``translate_term`` with the message and argument path that ``infer``
    gives on it."""
    from initsyn.laws import GenConfig, GenFailure, gen_term

    x = get_translation(name)
    rng = random.Random(25)
    pool = ground_types(x.source.all_types, 1)
    cfg = GenConfig(seed=1, max_depth=6, cases=1)
    kinds = ("literal", "type parameters", "arguments", "arity")
    seen, nested = set(), 0
    while len(seen) < len(kinds) or nested < 40:
        ctx = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
        try:
            term = gen_term(x.source, ctx, None, cfg, rng=rng)
        except GenFailure:
            continue
        nodes = _nodes(term)
        if not nodes:
            continue
        path, node = rng.choice(nodes)
        kind = rng.choice(kinds)
        bad = _replace(term, path, _malformed(x.source, node, kind, rng))
        with pytest.raises(TypeCheckError) as by_infer:
            infer(x.source, ctx, bad)
        assert by_infer.value.path == path
        with pytest.raises(TypeCheckError) as err:
            translate_term(x, ctx, bad)
        assert (str(err.value), err.value.path) == (str(by_infer.value), path)
        seen.add(kind)
        nested += len(path) >= 2
