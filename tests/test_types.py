import contextlib
import copy
import dataclasses
import gc
import pickle
import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from initsyn import objtypes
from initsyn.languages import get_language, get_translation
from initsyn.objtypes import (
    ObjType,
    eval_type_expr,
    ground_types,
    translate_type,
    translate_type_expr,
)
from initsyn.signatures import TApp, TVar
from initsyn.translate import identity_translation, retype_context

from oracles import gg_prop

NAT, BOOL, BOT = ObjType("Nat"), ObjType("Bool"), ObjType("bot")


def arr(a, b):
    return ObjType("arr", (a, b))


def imp(a, b):
    return ObjType("impl", (a, b))


def test_eval_type_expr():
    e = TApp("arr", (TVar(1), TVar(2)))
    assert eval_type_expr([NAT, BOOL], e) == arr(NAT, BOOL)
    assert eval_type_expr([NAT], TApp("Bool")) == BOOL
    nested = TApp("arr", (TApp("arr", (TVar(1), TVar(1))), TVar(2)))
    assert eval_type_expr([BOOL, NAT], nested) == arr(arr(BOOL, BOOL), NAT)


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
    bot = TApp("bot")
    got = translate_type_expr(g, TApp("or", (TVar(1), TVar(2))))
    want = TApp(
        "impl",
        (
            TApp(
                "and",
                (TApp("impl", (TVar(1), bot)), TApp("impl", (TVar(2), bot))),
            ),
            bot,
        ),
    )
    assert got == want
    assert translate_type_expr(g, TVar(1)) == TVar(1)
    # hand-applied clauses with bot mapped to its double negation
    nn_bot = TApp("impl", (TApp("impl", (bot, bot)), bot))
    assert translate_type_expr(g, TApp("impl", (TVar(1), bot))) == TApp(
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
        return TApp(name)
    name, count = rng.choice(list(sig_constructors.items()))
    return TApp(
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
            [translate_type(g, t) for t in env], translate_type_expr(g, e)
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
