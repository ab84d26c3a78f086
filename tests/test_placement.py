"""Arguments placed once: ``translate_term`` against a bottom-up reference.

``translate_term`` translates each argument straight into its placement
under the template's binders.  The reference below is the algorithm it
replaced: translate every argument in its own context, then let the public
``instantiate_template`` shift it at each placeholder.  Both must give
equal terms with the same printed text, on CPC proofs that nest the
Goedel-Gentzen nodes whose placeholders sit under template binders, on a
translation whose placeholders sit at several binder depths and inside an
``__iter`` step, on both PCF translations and through an
``OpaqueRepresentation``.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import initsyn.translate
from initsyn.languages import get_language, get_translation
from initsyn.objtypes import ObjType
from initsyn.surface import parse_signature, parse_translation
from initsyn.terms import Con, Var, infer
from initsyn.translate import (
    OpaqueRepresentation,
    instantiate_template,
    retype_context,
    translate_term,
    validate_translation,
)

P, Q, R = ObjType("p"), ObjType("q"), ObjType("r")
BOT, NAT, BOOL = ObjType("bot"), ObjType("Nat"), ObjType("Bool")
GG = get_translation("cpc2ipc-godel-gentzen")
EXAMPLES = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def reference_translate(x, term):
    """Bottom-up: each argument translated in its own context and shifted
    by ``instantiate_template`` at every placeholder."""
    if type(term) is Var:
        return term
    args = tuple(reference_translate(x, a) for a in term.args)
    inst = retype_context(x.type_map, term.inst)
    return instantiate_template(x, x.source.arity(term.name), inst, args, term.lit)


def assert_agrees(x, ctx, term):
    got = translate_term(x, ctx, term)
    want = reference_translate(x, term)
    assert got == want
    assert str(got) == str(want)
    return got


def _or(a, b):
    return ObjType("or", (a, b))


def _imp(a, b):
    return ObjType("impl", (a, b))


# ---------------------------------------------------------------------------
# CPC proofs that nest orI1, orI2, orE, botI and EM


def _prop(draw, height=2):
    if height == 0 or draw(st.booleans()):
        return draw(st.sampled_from([P, Q, R, BOT]))
    name = draw(st.sampled_from(["or", "impl"]))
    return ObjType(name, (_prop(draw, height - 1), _prop(draw, height - 1)))


def _cpc(draw, goal, scope, fuel):
    """A proof of ``goal`` in ``scope``, whose outermost entry is ``bot``."""
    hyps = [i for i, t in enumerate(scope) if t == goal]
    if fuel == 0 or draw(st.integers(0, 5)) == 0:
        if hyps and draw(st.booleans()):
            return Var(draw(st.sampled_from(hyps)))
        if goal.name == "or" and goal.args[0] == _imp(goal.args[1], BOT):
            return Con("EM", None, (goal.args[1],), ())
        return Con("botI", None, (goal,), (Var(len(scope) - 1),))
    rule = draw(st.sampled_from(["intro", "orE", "orE", "botI"]))
    if rule == "intro" and goal.name == "or":
        a, b = goal.args
        if draw(st.booleans()):
            return Con("orI1", None, (a, b), (_cpc(draw, a, scope, fuel - 1),))
        return Con("orI2", None, (a, b), (_cpc(draw, b, scope, fuel - 1),))
    if rule == "intro" and goal.name == "impl":
        a, b = goal.args
        return Con("implI", None, (a, b), (_cpc(draw, b, (a,) + scope, fuel - 1),))
    if rule == "orE":
        if draw(st.booleans()):
            c = _prop(draw, 1)
            a, b = _imp(c, BOT), c
            major = Con("EM", None, (c,), ())
        else:
            a, b = _prop(draw), _prop(draw)
            major = _cpc(draw, _or(a, b), scope, fuel - 1)
        return Con(
            "orE",
            None,
            (a, b, goal),
            (
                major,
                _cpc(draw, goal, (a,) + scope, fuel - 1),
                _cpc(draw, goal, (b,) + scope, fuel - 1),
            ),
        )
    return Con("botI", None, (goal,), (_cpc(draw, BOT, scope, fuel - 1),))


@st.composite
def cpc_cases(draw):
    scope = tuple(_prop(draw) for _ in range(draw(st.integers(0, 3)))) + (BOT,)
    goal = _or(_prop(draw), _prop(draw)) if draw(st.booleans()) else _prop(draw)
    return scope, goal, _cpc(draw, goal, scope, draw(st.integers(1, 6)))


@EXAMPLES
@given(cpc_cases())
def test_cpc_proofs_agree_with_the_reference(case):
    scope, goal, term = case
    cpc = get_language("CPC")
    assert infer(cpc, scope, term) is goal
    got = assert_agrees(GG, scope, term)
    assert infer(GG.target, retype_context(GG.type_map, scope), got) is retype_context(
        GG.type_map, (goal,)
    )[0]


def test_the_cpc_cases_nest_the_placed_nodes():
    """The CPC cases reach every node they are meant to nest, placed nodes
    under placed nodes included."""
    seen, nested = set(), set()

    def walk(t, under):
        if type(t) is Con:
            seen.add(t.name)
            if under:
                nested.add(t.name)
            for a in t.args:
                walk(a, under or t.name in ("orI1", "orI2", "orE"))

    @EXAMPLES
    @given(cpc_cases())
    def collect(case):
        walk(case[2], False)

    collect()
    assert {"orI1", "orI2", "orE", "botI", "EM"} <= seen
    assert {"orI1", "orI2", "orE"} <= nested


# ---------------------------------------------------------------------------
# A translation with placeholders at several depths and in an __iter step

L_SIG = """language L
types { o : 0 }
terms {
  lam [0] : ([o] o) -> o
  ap [0] : ([] o, [] o) -> o
  family rep [0] : ([] o) -> o
  fn [0] : ([o] o) -> o
  w [0] : ([o] o, [] o) -> o
}
"""
# ?1 of ``ap`` sits under two and one extra binders, ?1 of ``lam`` under
# three and two, and ?1 of ``rep`` under two in each step of the iteration;
# ``fn`` places its argument under no extra binder, and ``w`` places its
# first argument under none and its second under one
L_XLAT = """translation deep from L to ULC
types { o -> * }
terms {
  lam -> (abs (app (abs (abs ?1)) (abs ?1)))
  ap -> (app (abs (app (abs ?1) ?1)) ?2)
  rep -> (abs (__iter (app (abs ?1) (__hole)) #0))
  fn -> (abs ?1)
  w -> (app (abs ?1) (abs ?2))
}
"""


def _deep_translation():
    x = parse_translation(L_XLAT, parse_signature(L_SIG), get_language("ULC"))
    assert validate_translation(x).ok
    return x


def _l_term(draw, depth, fuel, rules):
    if fuel == 0 or draw(st.integers(0, 4)) == 0:
        return Var(draw(st.integers(0, depth - 1)))
    rule = draw(st.sampled_from(rules))
    if rule in ("lam", "fn"):
        return Con(rule, None, (), (_l_term(draw, depth + 1, fuel - 1, rules),))
    if rule == "w":
        a = _l_term(draw, depth + 1, fuel - 1, rules)
        return Con("w", None, (), (a, _l_term(draw, depth, fuel - 1, rules)))
    if rule == "ap":
        a = _l_term(draw, depth, fuel - 1, rules)
        return Con("ap", None, (), (a, _l_term(draw, depth, fuel - 1, rules)))
    return Con("rep", draw(st.integers(0, 3)), (), (_l_term(draw, depth, fuel - 1, rules),))


@st.composite
def l_cases(draw, rules=("lam", "ap", "rep", "fn", "w", "w"), fuel=(1, 6)):
    depth = draw(st.integers(1, 3))
    return (ObjType("o"),) * depth, _l_term(draw, depth, draw(st.integers(*fuel)), rules)


def test_the_test_translation_places_arguments_and_weakens_the_rest():
    x = _deep_translation()
    places = {}
    for name in ("lam", "ap", "rep", "fn", "w"):
        instantiate_template(x, x.source.arity(name), (), (Var(0),) * 2, 1)
        places[name] = x._compiled[name][3]
    assert places == {
        "lam": ((1, 1),),
        "ap": ((0, 1), (0, 0)),
        "rep": ((0, 2),),
        "fn": ((1, 0),),
        "w": ((1, 0), (0, 1)),
    }


def test_an_unshifted_argument_leaves_the_shifts_above_it_alone():
    """The inner ``w`` sits in its parent's first argument, which is placed
    under no extra binder; the shifted ``w`` three levels below must not
    disturb what the inner ``w``'s second argument reads: its ``#0`` is the
    source context's one variable, and moves past the ``abs`` over ``?2``."""
    x = _deep_translation()

    def w(a, b):
        return Con("w", None, (), (a, b))

    def fn(a):
        return Con("fn", None, (), (a,))

    term = w(w(fn(w(Var(0), fn(fn(Var(0))))), Var(0)), Var(0))
    got = assert_agrees(x, (ObjType("o"),), term)
    assert str(got) == (
        "(app (abs (app (abs (abs (app (abs #0) (abs (abs (abs #0)))))) (abs #1))) (abs #1))"
    )


@EXAMPLES
@given(l_cases())
def test_placeholders_at_several_depths_agree_with_the_reference(case):
    ctx, term = case
    x = _deep_translation()
    got = assert_agrees(x, ctx, term)
    star = ObjType("*")
    assert infer(x.target, (star,) * len(ctx), got) is star


@settings(EXAMPLES, max_examples=400)
@given(l_cases(rules=("fn", "w", "w"), fuel=(4, 7)))
def test_unshifted_arguments_between_shifted_ones_agree_with_the_reference(case):
    """``w`` places its arguments under no extra binder and one, and ``fn``
    under none: deep mixtures of the two nest shifted and unshifted
    arguments in every order."""
    ctx, term = case
    assert_agrees(_deep_translation(), ctx, term)


# ---------------------------------------------------------------------------
# PCF


def _arr(a, b):
    return ObjType("arr", (a, b))


PCF_TYPES = [NAT, BOOL, _arr(NAT, NAT)]


def _pcf(draw, goal, scope, fuel):
    hyps = [i for i, t in enumerate(scope) if t == goal]
    rules = ["const"] + (["var"] if hyps else [])
    if fuel:
        rules += ["app", "rec"] + (["abs", "abs"] if goal.name == "arr" else [])
    rule = draw(st.sampled_from(rules))
    if rule == "var":
        return Var(draw(st.sampled_from(hyps)))
    if rule == "app":
        a = draw(st.sampled_from(PCF_TYPES))
        f, v = _pcf(draw, _arr(a, goal), scope, fuel - 1), _pcf(draw, a, scope, fuel - 1)
        return Con("app", None, (a, goal), (f, v))
    if rule == "abs":
        a, b = goal.args
        return Con("abs", None, (a, b), (_pcf(draw, b, (a,) + scope, fuel - 1),))
    if rule == "rec":
        return Con("rec", None, (goal,), (_pcf(draw, _arr(goal, goal), scope, fuel - 1),))
    if goal is NAT:
        return Con("nats", draw(st.integers(0, 3)), (), ())
    if goal is BOOL:
        return Con(draw(st.sampled_from(["tttt", "ffff"])), None, (), ())
    if goal == _arr(NAT, NAT):
        return Con(draw(st.sampled_from(["Succ", "Pred"])), None, (), ())
    return Con("bottom", None, (goal,), ())


@st.composite
def pcf_cases(draw):
    scope = tuple(draw(st.sampled_from(PCF_TYPES)) for _ in range(draw(st.integers(0, 3))))
    goal = draw(st.sampled_from(PCF_TYPES + [_arr(BOOL, NAT)]))
    return scope, _pcf(draw, goal, scope, draw(st.integers(1, 6)))


@pytest.mark.parametrize("name", ["pcf2ulc-turing", "pcf2ulc-curry"])
def test_pcf_translations_agree_with_the_reference(name):
    x = get_translation(name)

    @EXAMPLES
    @given(pcf_cases())
    def check(case):
        scope, term = case
        infer(x.source, scope, term)
        assert_agrees(x, scope, term)

    check()


# ---------------------------------------------------------------------------
# Opaque representations take the unchanged path


@EXAMPLES
@given(cpc_cases())
def test_an_opaque_representation_sees_translated_contexts(case):
    """Each operation instantiates the template with arguments in their own
    context, and receives the translated context at its node."""
    scope, _, term = case
    seen = []

    def op_for(ar):
        def op(inst, ctx, args, lit):
            seen.append(len(ctx))
            return instantiate_template(GG, ar, inst, args, lit)

        return op

    ops = {ar.name: op_for(ar) for ar in GG.source.terms}
    opaque = OpaqueRepresentation("gg-opaque", GG.source, GG.target, GG.type_map, ops)
    got = translate_term(opaque, scope, term)
    assert got == reference_translate(GG, term) and str(got) == str(reference_translate(GG, term))
    assert all(n >= len(scope) for n in seen)


# ---------------------------------------------------------------------------
# Cost, by count


def test_a_deep_or_introduction_chain_weakens_nothing(monkeypatch):
    """Each orI1 places its argument under one template binder.  Placed once,
    the 400-deep chain is translated with no call to ``weaken``; shifting
    each translated argument instead walks it again at every level."""
    term, ty = Var(0), P
    for _ in range(400):
        term, ty = Con("orI1", None, (ty, Q), (term,)), _or(ty, Q)
    calls = []
    real = initsyn.translate.weaken
    monkeypatch.setattr(
        initsyn.translate, "weaken", lambda *args: calls.append(args) or real(*args)
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        got = translate_term(GG, (P,), term)
    finally:
        sys.setrecursionlimit(limit)
    assert calls == []
    # the innermost variable moved past the one binder of each orI1
    node = got
    for _ in range(400):
        node = node.args[0].args[1]
    assert node == Var(400)
