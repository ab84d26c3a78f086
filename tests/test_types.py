import contextlib
import copy
import dataclasses
import gc
import itertools
import pickle
import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from initsyn import objtypes, signatures, terms
from initsyn.languages import get_language, get_translation
from initsyn.objtypes import (
    ObjType,
    compile_type_expr,
    eval_type_expr,
    ground_types,
    translate_type,
)
from initsyn.signatures import TVar
from initsyn.terms import Con, Var, _con
from initsyn.translate import identity_translation, retype_context

from oracles import gg_prop

NAT, BOOL, BOT = ObjType("Nat"), ObjType("Bool"), ObjType("bot")


def arr(a, b):
    return ObjType("arr", (a, b))


def imp(a, b):
    return ObjType("impl", (a, b))


def test_eval_type_expr():
    e = ObjType("arr", (TVar(1), TVar(2)))
    assert eval_type_expr([NAT, BOOL], e) == arr(NAT, BOOL)
    assert eval_type_expr([NAT], ObjType("Bool")) == BOOL
    nested = ObjType("arr", (ObjType("arr", (TVar(1), TVar(1))), TVar(2)))
    assert eval_type_expr([BOOL, NAT], nested) == arr(arr(BOOL, BOOL), NAT)


def test_type_expressions_are_types():
    assert get_language("PCF").arity("Succ").result is arr(NAT, NAT)
    for e in (NAT, arr(NAT, arr(BOOL, NAT)), ObjType("arr", (ObjType("Nat"), ObjType("Bool")))):
        assert compile_type_expr(e, 2)[0] is e
        assert eval_type_expr((), e) is e
    assert str(ObjType("arr", (TVar(1), arr(TVar(2), NAT)))) == "arr($1,arr($2,Nat))"


def test_eval_out_of_range():
    with pytest.raises(ValueError):
        eval_type_expr([], TVar(1))


def test_godel_gentzen_spot_values():
    g = get_translation("cpc2ipc-godel-gentzen").type_map
    p, q = ObjType("p"), ObjType("q")
    assert translate_type(g, p) == imp(imp(p, BOT), BOT)
    pg, qg = translate_type(g, p), translate_type(g, q)
    assert translate_type(g, ObjType("and", (p, q))) == ObjType("and", (pg, qg))
    assert translate_type(g, ObjType("or", (p, q))) == imp(
        ObjType("and", (imp(pg, BOT), imp(qg, BOT))), BOT
    )
    assert translate_type(g, BOT) == imp(imp(BOT, BOT), BOT)


def test_constant_type_map_collapses_everything():
    g = get_translation("pcf2ulc-turing").type_map
    star = ObjType("*")
    assert translate_type(g, NAT) == star
    assert translate_type(g, arr(arr(NAT, BOOL), NAT)) == star


def test_translate_type_expr_clauses():
    g = get_translation("cpc2ipc-godel-gentzen").type_map
    bot = ObjType("bot")
    got = translate_type(g, ObjType("or", (TVar(1), TVar(2))))
    want = ObjType(
        "impl",
        (
            ObjType(
                "and",
                (ObjType("impl", (TVar(1), bot)), ObjType("impl", (TVar(2), bot))),
            ),
            bot,
        ),
    )
    assert got == want
    assert translate_type(g, TVar(1)) == TVar(1)
    # hand-applied clauses with bot mapped to its double negation
    nn_bot = ObjType("impl", (ObjType("impl", (bot, bot)), bot))
    assert translate_type(g, ObjType("impl", (TVar(1), bot))) == ObjType(
        "impl", (TVar(1), nn_bot)
    )


def _random_type(rng, pool, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(pool)
    name = rng.choice(["and", "or", "impl"])
    return ObjType(
        name, (_random_type(rng, pool, depth - 1), _random_type(rng, pool, depth - 1))
    )


def test_gg_agrees_with_direct_recursion_on_random_propositions():
    g = get_translation("cpc2ipc-godel-gentzen").type_map
    rng = random.Random(11)
    leaves = [ObjType(n) for n in ("p", "q", "r", "top", "bot")]
    for _ in range(500):
        t = _random_type(rng, leaves, 4)
        assert translate_type(g, t) == gg_prop(t)


def test_homomorphism_law_on_random_types():
    g = get_translation("cpc2ipc-godel-gentzen").type_map
    rng = random.Random(12)
    leaves = [ObjType(n) for n in ("p", "q", "r", "top", "bot")]
    for _ in range(300):
        t = _random_type(rng, leaves, 3)
        translated_children = tuple(translate_type(g, a) for a in t.args)
        assert translate_type(g, t) == eval_type_expr(
            translated_children, g.templates[t.name]
        )


def _random_expr(rng, sig_constructors, degree, depth):
    if depth == 0 or (degree and rng.random() < 0.35):
        if degree and rng.random() < 0.7:
            return TVar(rng.randint(1, degree))
        name, count = rng.choice(
            [(n, c) for n, c in sig_constructors.items() if c == 0]
        )
        return ObjType(name)
    name, count = rng.choice(list(sig_constructors.items()))
    return ObjType(
        name,
        tuple(
            _random_expr(rng, sig_constructors, degree, depth - 1)
            for _ in range(count)
        ),
    )


def test_commutation_square_on_random_open_expressions():
    g = get_translation("cpc2ipc-godel-gentzen").type_map
    rng = random.Random(13)
    leaves = [ObjType(n) for n in ("p", "q", "top", "bot")]
    constructors = g.source.constructors
    for _ in range(300):
        degree = rng.randint(1, 3)
        env = [_random_type(rng, leaves, 2) for _ in range(degree)]
        e = _random_expr(rng, constructors, degree, 3)
        lhs = eval_type_expr(
            [translate_type(g, t) for t in env], translate_type(g, e)
        )
        rhs = translate_type(g, eval_type_expr(env, e))
        assert lhs == rhs


def test_identity_translation_is_identity_on_types():
    cpc = get_language("CPC")
    ident = identity_translation(cpc).type_map
    for t in ground_types(cpc.all_types, 2):
        assert translate_type(ident, t) == t


# ---------------------------------------------------------------------------
# Hash-consing


TYPE_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# plain nested tuples (name, children), built into types only by the tests
_trees = st.recursive(
    st.sampled_from(["p", "q", "bot"]).map(lambda n: (n, ())),
    lambda kids: st.tuples(
        st.sampled_from(["and", "or", "impl"]), st.tuples(kids, kids)
    ),
    max_leaves=24,
)


def _build(tree):
    name, kids = tree
    return ObjType(name, tuple(_build(k) for k in kids))


@TYPE_SETTINGS
@given(_trees, _trees)
def test_independent_builds_are_one_object(a, b):
    assert _build(a) is _build(a)
    assert (_build(a) is _build(b)) == (a == b)
    assert (_build(a) == _build(b)) == (a == b)


@contextlib.contextmanager
def _no_cycle_collection():
    """Collect garbage now and not during the block, so that the intern
    table changes only by what the block itself builds and drops."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def test_intern_table_shrinks_when_types_are_dropped():
    with _no_cycle_collection():
        before = len(objtypes._INTERNED)
        held = [ObjType("and", (ObjType(f"fresh{k}"), BOT)) for k in range(500)]
        assert len(objtypes._INTERNED) == before + 1000
        del held
        assert len(objtypes._INTERNED) == before


def test_dataclass_behaviour_is_kept():
    p = ObjType("p")
    t = ObjType("impl", (p, BOT))
    assert repr(p) == "ObjType(name='p', args=())"
    assert repr(t) == (
        "ObjType(name='impl', args=(ObjType(name='p', args=()), "
        "ObjType(name='bot', args=())))"
    )
    assert ObjType(name="impl", args=(p, BOT)) is t
    assert ObjType.__match_args__ == ("name", "args")
    match t:
        case ObjType("impl", (x, y)):
            assert (x, y) == (p, BOT)
        case _:
            pytest.fail("positional pattern did not match")
    assert pickle.loads(pickle.dumps(t)) is t
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.name = "and"
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.args = (p,)
    assert str(t) == "impl(p,bot)"


def test_term_nodes_keep_the_frozen_dataclass_contract():
    """``Var`` and ``Con`` compare, hash, print, match, pickle and refuse
    assignment as the frozen dataclasses they replaced did, and a node
    built by ``terms._con`` is a ``Con`` in every one of these respects."""
    x, y = Var(0), Var(1)
    assert x == Var(0) and x != y and x != Con("x", None, (), ()) and x != 0
    assert hash(x) == hash((0,)) and hash(y) == hash((1,))
    assert repr(x) == "Var(index=0)"
    assert Var.__match_args__ == ("index",)
    assert Con.__match_args__ == ("name", "lit", "inst", "args")
    assert Var(index=0) == x
    same = Con("app", None, (NAT, BOOL), (Var(0), Con("nats", 3, (), ())))
    for build in (Con, _con):
        t = build("app", None, (NAT, BOOL), (x, build("nats", 3, (), ())))
        assert type(t) is Con and type(t.args[1]) is Con
        assert t == same and same == t and t is not same
        assert t != Con("app", None, (NAT, NAT), t.args) and t != Con("abs", None, (), (x,))
        assert t != _con("app", None, (NAT, NAT), t.args) and t != x
        assert t != (t.name, t.lit, t.inst, t.args)
        assert hash(t) == hash(("app", None, (NAT, BOOL), t.args)) == hash(same)
        assert repr(t) == (
            "Con(name='app', lit=None, inst=(ObjType(name='Nat', args=()), "
            "ObjType(name='Bool', args=())), args=(Var(index=0), "
            "Con(name='nats', lit=3, inst=(), args=())))"
        )
        match t:
            case Con("app", None, (a, b), (Var(i), Con("nats", n, (), ()))):
                assert (a, b, i, n) == (NAT, BOOL, 0, 3)
            case _:
                pytest.fail("positional pattern did not match")
        match t:
            case Con(name="app", lit=None, args=(Var(index=i), Con(lit=n))):
                assert (i, n) == (0, 3)
            case _:
                pytest.fail("keyword pattern did not match")
        assert Con(name="app", lit=None, inst=(NAT, BOOL), args=same.args) == t
        for node, field in ((x, "index"), (t, "name"), (t, "args")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, field, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, field)
        assert t.name == "app" and t.args[0] is x
        for node in (x, t):
            for other in (
                pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)
            ):
                assert other == node and type(other) is type(node)
        assert str(t) == "(app [Nat, Bool] #0 (nats{3}))"


def test_threads_building_the_same_types_share_one_object_per_type():
    n_threads, n_types = 8, 1000
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(3):
            barrier = threading.Barrier(n_threads, timeout=30)
            results: list = [None] * n_threads

            def work(slot: int) -> None:
                barrier.wait()
                order = range(n_types) if slot % 2 else range(n_types - 1, -1, -1)
                built = {}
                for k in order:
                    leaf = ObjType(f"thread{round_}_{k}")
                    built[k] = ObjType("impl", (leaf, ObjType("and", (leaf, BOT))))
                results[slot] = [built[k] for k in range(n_types)]

            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(n_threads)
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert all(r is not None for r in results)
            for k in range(n_types):
                first = results[0][k]
                assert all(r[k] is first for r in results)
                assert str(first) == f"impl(thread{round_}_{k},and(thread{round_}_{k},bot))"
            del results, first
    finally:
        sys.setswitchinterval(old_interval)


def test_retype_context_over_shared_propositions_matches_oracle():
    g = get_translation("cpc2ipc-godel-gentzen").type_map
    rng = random.Random(14)
    leaves = [ObjType(n) for n in ("p", "q", "r", "top", "bot")]
    shared = [_random_type(rng, leaves, 3) for _ in range(12)]
    ctx = tuple(
        ObjType(rng.choice(["and", "or", "impl"]), (rng.choice(shared), rng.choice(shared)))
        if rng.random() < 0.5
        else rng.choice(shared)
        for _ in range(256)
    )
    assert retype_context(g, ctx) == tuple(gg_prop(t) for t in ctx)


def test_deep_types_at_the_default_recursion_limit():
    depth = 10_000
    p, q = ObjType("deep_p"), ObjType("deep_q")

    def chain(leaf):
        t = leaf
        for _ in range(depth):
            t = ObjType("impl", (t, p))
        return t

    with _no_cycle_collection():
        before = len(objtypes._INTERNED)
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # the interpreter's default
        try:
            a, b, c = chain(p), chain(p), chain(q)
            assert a is b and a == b and hash(a) == hash(b)
            assert a != c and a is not c
            assert str(a) == "impl(" * depth + "deep_p" + ",deep_p)" * depth
            assert str(c) == "impl(" * depth + "deep_q" + ",deep_p)" * depth
            assert len(objtypes._INTERNED) == before + 2 * depth
            del a, b, c
            assert len(objtypes._INTERNED) == before
        finally:
            sys.setrecursionlimit(old_limit)


# ---------------------------------------------------------------------------
# Compiled type expressions against the interpreter


def _ref_arity_types(ar, inst):
    """``terms._arity_types(ar, partial(eval_type_expr, inst))``, written
    out here."""
    return (
        tuple(tuple(eval_type_expr(inst, b) for b in spec.binders) for spec in ar.args),
        tuple(eval_type_expr(inst, spec.body) for spec in ar.args),
        eval_type_expr(inst, ar.result),
    )


def _ref_translate(g, t):
    """The homomorphism of ``g`` by plain recursion."""
    if type(t) is TVar:
        return t
    return eval_type_expr(tuple(_ref_translate(g, a) for a in t.args), g.templates[t.name])


def _same_objects(a, b) -> bool:
    if type(a) is tuple:
        return type(b) is tuple and len(a) == len(b) and all(map(_same_objects, a, b))
    return a is b


_EXPR_CONSTRUCTORS = {"Nat": 0, "Bool": 0, "arr": 2, "triple": 3}
_EXPR_POOL = ground_types(signatures.TypeSignature("E", _EXPR_CONSTRUCTORS), 2)


@st.composite
def _exprs(draw, degree):
    def expr(depth):
        kind = draw(st.integers(0, 3 if depth else 1))
        if kind == 0 and degree:
            return TVar(draw(st.integers(1, degree)))
        if kind <= 1:
            return ObjType(draw(st.sampled_from(["Nat", "Bool"])))
        name = draw(st.sampled_from(["arr", "triple"]))
        return ObjType(name, tuple(expr(depth - 1) for _ in range(_EXPR_CONSTRUCTORS[name])))

    return expr(draw(st.integers(0, 5)))


@st.composite
def _compiled_cases(draw):
    degree = draw(st.integers(0, 3))
    shape = draw(st.sampled_from(["one", "flat", "nested"]))
    if shape == "one":
        exprs = draw(_exprs(degree))
    elif shape == "flat":
        exprs = tuple(draw(st.lists(_exprs(degree), max_size=4)))
    else:
        exprs = (tuple(draw(st.lists(_exprs(degree), max_size=3))), draw(_exprs(degree)))
    env = tuple(draw(st.sampled_from(_EXPR_POOL)) for _ in range(degree))
    return exprs, degree, env


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_compiled_cases())
def test_compiled_expressions_return_the_interpreters_objects(case):
    exprs, degree, env = case

    def ref(x):
        return tuple(map(ref, x)) if type(x) is tuple else eval_type_expr(env, x)

    fixed, fn = compile_type_expr(exprs, degree)
    want = ref(exprs)
    if fn is None:
        assert _same_objects(fixed, want)
    else:
        assert fixed is None
        assert _same_objects(fn(env), want)
        assert _same_objects(fn(env), want)  # the compiled code, after the first call


def _instantiations(pool, degree):
    """Every instantiation over ``pool`` up to degree 2; at degree 3 every
    pair for the first two parameters, the third running through the pool
    with them, so that each type still meets every position."""
    if degree < 3:
        return itertools.product(pool, repeat=degree)
    n = len(pool)
    return ((a, b, pool[(i + j) % n]) for (i, a), (j, b) in itertools.product(enumerate(pool), repeat=2))


@pytest.mark.parametrize("lang", ["ULC", "STLC", "PCF", "IPC", "CPC"])
def test_infer_shapes_agree_with_the_interpreter(lang):
    sig = get_language(lang)
    pool = ground_types(sig.all_types, 2)
    for ar in sig.terms:
        lit = 0 if ar.family_index else None
        for inst in _instantiations(pool, ar.degree):
            inst = tuple(inst)
            node = Con(ar.name, lit, inst, tuple(Var(0) for _ in ar.args))
            shape = terms._shape(sig, node, {})
            assert shape[:2] == (bool(ar.family_index), len(ar.args))
            assert _same_objects(shape[2:], _ref_arity_types(ar, inst)), (ar.name, inst)


@pytest.mark.parametrize(
    "name", ["cpc2ipc-godel-gentzen", "pcf2ulc-turing", "pcf2ulc-curry"]
)
def test_builtin_type_maps_agree_with_plain_recursion(name):
    g = get_translation(name).type_map
    types = ground_types(g.source, 2)
    rng = random.Random(15)
    leaves = [ObjType(n) for n, count in g.source.constructors.items() if count == 0]
    types += [
        _random_expr(rng, g.source.constructors, 2, 5) if leaves else TVar(1)
        for _ in range(300)
    ]
    for t in types:
        assert translate_type(g, t) is _ref_translate(g, t), t
    memo = {}
    for t in types:  # one memo across calls, as retype_context shares it
        assert objtypes._translate_type(g, t, memo) is _ref_translate(g, t)


def test_out_of_range_variables_raise_the_interpreters_error():
    message = "type variable $3 out of range for environment of length 2"
    cpc = get_language("CPC").all_types
    templates = dict(get_translation("cpc2ipc-godel-gentzen").type_map.templates)
    templates["and"] = ObjType("and", (TVar(3), BOT))
    g = objtypes.TypeTranslation(cpc, get_language("IPC").all_types, templates)
    p = ObjType("p")
    with pytest.raises(ValueError) as exc:
        translate_type(g, ObjType("and", (p, p)))
    assert str(exc.value) == message
    for e in (TVar(3), arr(TVar(3), NAT), arr(TVar(1), arr(TVar(3), TVar(2)))):
        _, fn = compile_type_expr(e, 2)
        with pytest.raises(ValueError) as exc:
            fn((NAT, BOOL))
        assert str(exc.value) == message
    _, fn = compile_type_expr((arr(TVar(1), TVar(2)), TVar(0)), 2)
    with pytest.raises(ValueError, match=r"type variable \$0 out of range"):
        fn((NAT, BOOL))


DEEP = 10_000


@contextlib.contextmanager
def _recursion_limit(limit):
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def _arr_chain(leaf, depth=DEEP):
    t = leaf
    for _ in range(depth):
        t = arr(t, NAT)
    return t


def test_deep_type_expressions_at_the_default_recursion_limit():
    """Evaluating, compiling, translating and typing with a type expression
    10 000 levels deep costs no recursion."""
    e, want = _arr_chain(TVar(1)), _arr_chain(BOOL)
    with _recursion_limit(1000):
        assert eval_type_expr((BOOL,), e) is want
        _, fn = compile_type_expr(e, 1)
        assert fn((BOOL,)) is want
        assert fn((BOOL,)) is want
        _, fn = compile_type_expr((e, (arr(TVar(1), e),)), 1)
        assert _same_objects(fn((BOOL,)), (want, (arr(BOOL, want),)))
        ident = identity_translation(get_language("STLC")).type_map
        chain = ObjType("*")
        for _ in range(DEEP):
            chain = ObjType("arr", (chain, ObjType("*")))
        assert translate_type(ident, chain) is chain
        g = get_translation("cpc2ipc-godel-gentzen").type_map
        deep_prop = ObjType("q")
        for _ in range(DEEP):
            deep_prop = imp(deep_prop, ObjType("q"))
        translated = translate_type(g, deep_prop)
        assert translated.name == "impl"
        assert translated.args[1] is translate_type(g, ObjType("q"))
        sig = signatures.TypedSignature(
            signatures.TypeSignature("Deep", {"Nat": 0, "Bool": 0, "arr": 2}),
            (signatures.TermArity("f", 1, (), e),),
        )
        assert terms.infer(sig, (), Con("f", None, (BOOL,), ())) is want
