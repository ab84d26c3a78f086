"""The term kernel against naive references.

``weaken``, ``rename`` and ``substitute`` share one traversal that passes
under a binder in O(1) and weakens substitution images lazily.  The
reference below is the textbook presentation instead: lifting a
substitution under ``k`` binders prefixes ``k`` fresh variables and
weakens every image by ``k`` on the spot.  Terms have a binder spine at
the root (up to 30 deep) over random bodies with binders of their own, and
substitutions are up to 64 wide.  ``infer``, which caches node shapes and
writes small nodes out, is checked against a plain recursive typing.
"""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from initsyn.languages import get_language
from initsyn.objtypes import ObjType, eval_type_expr
from initsyn.surface import parse_signature
from initsyn.terms import (
    VAR_TABLE_SIZE,
    Con,
    Substitution,
    TypeCheckError,
    Var,
    check,
    context_extend,
    infer,
    rename,
    substitute,
    var_table,
    weaken,
)

NAT, BOOL, STAR = ObjType("Nat"), ObjType("Bool"), ObjType("*")
# Nodes of zero to three arguments, with and without binders, over one
# type at the instantiations that ``_node`` draws, so that a term whose
# indices are bound is well typed.
K3 = parse_signature(
    """language K3

types {
  Nat : 0
  Bool : 0
}

terms {
  zero [0] : () -> Nat
  family lit [0] : () -> Nat
  any [1] : () -> $1
  succ [0] : ([] Nat) -> Nat
  abs [0] : ([Nat] Nat) -> Nat
  pair [0] : ([] Nat, [Nat Nat] Nat) -> Nat
  pick [1] : ([] $1, [$1] $1, [$1 Nat] Nat) -> $1
}
"""
)
KERNEL_SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ---------------------------------------------------------------------------
# The reference: eager lifting, as in the textbook


def _binders(sig, name):
    return [len(spec.binders) for spec in sig.arity(name).args]


def ref_weaken(sig, t, cutoff, amount):
    if isinstance(t, Var):
        return Var(t.index + amount) if t.index >= cutoff else t
    return Con(
        t.name,
        t.lit,
        t.inst,
        tuple(
            ref_weaken(sig, a, cutoff + k, amount)
            for a, k in zip(t.args, _binders(sig, t.name))
        ),
    )


def ref_rename(sig, t, f, depth=0):
    if isinstance(t, Var):
        return t if t.index < depth else Var(f(t.index - depth) + depth)
    return Con(
        t.name,
        t.lit,
        t.inst,
        tuple(
            ref_rename(sig, a, f, depth + k)
            for a, k in zip(t.args, _binders(sig, t.name))
        ),
    )


def ref_lift(sig, images, k):
    if k == 0:
        return images
    fresh = tuple(Var(i) for i in range(k))
    return fresh + tuple(ref_weaken(sig, img, 0, k) for img in images)


def ref_substitute(sig, t, images):
    if isinstance(t, Var):
        if t.index >= len(images):
            raise TypeCheckError(f"unbound index {t.index} under substitution")
        return images[t.index]
    return Con(
        t.name,
        t.lit,
        t.inst,
        tuple(
            ref_substitute(sig, a, ref_lift(sig, images, k))
            for a, k in zip(t.args, _binders(sig, t.name))
        ),
    )


def ref_infer(sig, ctx, t):
    if isinstance(t, Var):
        if not 0 <= t.index < len(ctx):
            raise TypeCheckError(f"unbound index {t.index}")
        return ctx[t.index]
    if not isinstance(t, Con):
        raise TypeCheckError(f"not a term: {t!r}")
    error = sig.node_error(t.name, t.lit, len(t.inst), len(t.args))
    if error is not None:
        raise TypeCheckError(error)
    ar = sig.arity(t.name)
    for j, (arg, spec) in enumerate(zip(t.args, ar.args)):
        try:
            actual = ref_infer(sig, context_extend(ctx, t.inst, spec.binders), arg)
        except TypeCheckError as exc:
            raise TypeCheckError(exc.message, (j,) + exc.path) from None
        expected = eval_type_expr(t.inst, spec.body)
        if actual != expected:
            raise TypeCheckError(f"expected {expected}, found {actual}", (j,))
    return eval_type_expr(t.inst, ar.result)


# ---------------------------------------------------------------------------
# Generators


def _node(sig, name, args):
    ar = sig.arity(name)
    ty = STAR if sig.name == "ULC" else NAT
    lit = 1 if ar.family_index else None
    return Con(name, lit, (ty,) * ar.degree, tuple(args))


@st.composite
def open_terms(draw, sig, free, max_nodes=40):
    """A term whose free variables are below ``free`` (plus the binders
    above them); shape is arbitrary, types are not kept."""
    budget = [draw(st.integers(1, max_nodes))]
    arities = [ar.name for ar in sig.terms]

    def go(depth):
        budget[0] -= 1
        if budget[0] <= 0 or draw(st.integers(0, 3)) == 0:
            return Var(draw(st.integers(0, depth + free - 1)))
        name = draw(st.sampled_from(arities))
        return _node(sig, name, [go(depth + k) for k in _binders(sig, name)])

    return go(0)


@st.composite
def spine_terms(draw, sig, free):
    """An ``abs`` spine of up to 30 binders over an open body."""
    spine = draw(st.integers(0, 30))
    term = draw(open_terms(sig, free + spine))
    for _ in range(spine):
        term = _node(sig, "abs", [term])
    return term


@st.composite
def substitution_cases(draw, lang, slack=0):
    """A term over a domain of up to 64 variables and its images.  With
    ``slack`` the term may also use up to that many unbound indices."""
    sig = get_language(lang)
    width = draw(st.integers(1, 64))
    codomain = draw(st.integers(1, 8))
    term = draw(spine_terms(sig, width + slack))
    images = tuple(
        draw(open_terms(sig, codomain, max_nodes=5)) for _ in range(width)
    )
    return sig, term, images


LANGS = st.sampled_from(["ULC", "PCF"])


def _on_nodes(fn):
    """``fn`` on a node; a variable is left as it is."""
    return lambda t: t if type(t) is Var else fn(t)


MUTANTS = {
    "unbound index": lambda t: Var(-1 if type(t) is Var and t.index % 2 else 10**6),
    "wrong instantiation": _on_nodes(
        lambda t: Con(t.name, t.lit, (BOOL,) * len(t.inst) if t.inst else (NAT,), t.args)
    ),
    "unknown arity": _on_nodes(lambda t: Con("nope", t.lit, t.inst, t.args)),
    "wrong argument count": _on_nodes(
        lambda t: Con(t.name, t.lit, t.inst, t.args[:-1] if t.args else (Var(0),))
    ),
    "not a term": lambda t: "x",
}


def _replace(t, k, fn):
    """``t`` with its ``k``-th node in preorder replaced by ``fn(node)``,
    and how many nodes are left to count."""
    if k == 0:
        return fn(t), -1
    k -= 1
    if type(t) is Var:
        return t, k
    args = []
    for a in t.args:
        if k >= 0:
            a, k = _replace(a, k, fn)
        args.append(a)
    return Con(t.name, t.lit, t.inst, tuple(args)), k


@st.composite
def infer_cases(draw):
    """A signature, a context and a term over it, maybe with one node
    replaced by a mutant; ULC and K3 terms whose indices are bound are
    well typed, PCF ones mostly are not."""
    lang = draw(st.sampled_from(["ULC", "PCF", "K3"]))
    sig = K3 if lang == "K3" else get_language(lang)
    free = draw(st.integers(1, 8))
    if lang == "PCF":
        pcf_types = [NAT, BOOL, ObjType("arr", (NAT, NAT))]
        ctx = tuple(draw(st.sampled_from(pcf_types)) for _ in range(free))
    else:
        ctx = ((STAR if lang == "ULC" else NAT),) * free
    term = draw(open_terms(sig, free))
    mutant = draw(st.sampled_from([None, *MUTANTS]))
    if mutant is not None:
        size = sum(1 for _ in _nodes(term))
        at = draw(st.integers(0, size - 1))
        term, _ = _replace(term, at, MUTANTS[mutant])
    return sig, ctx, term


# ---------------------------------------------------------------------------
# Properties


@KERNEL_SETTINGS
@given(st.data(), LANGS)
def test_substitute_matches_eager_reference(data, lang):
    sig, term, images = data.draw(substitution_cases(lang))
    sub = Substitution((), (), images)  # only the images are read
    assert substitute(sig, term, sub) == ref_substitute(sig, term, images)


@KERNEL_SETTINGS
@given(st.data(), LANGS)
def test_substitute_errors_match_eager_reference(data, lang):
    sig, term, images = data.draw(substitution_cases(lang, slack=3))
    sub = Substitution((), (), images)
    try:
        expected = ref_substitute(sig, term, images)
    except TypeCheckError as exc:
        with pytest.raises(TypeCheckError) as err:
            substitute(sig, term, sub)
        assert str(err.value) == str(exc)
    else:
        assert substitute(sig, term, sub) == expected


@KERNEL_SETTINGS
@given(st.data(), LANGS, st.integers(0, 40), st.integers(0, 5))
def test_weaken_matches_eager_reference(data, lang, cutoff, amount):
    sig = get_language(lang)
    term = data.draw(spine_terms(sig, data.draw(st.integers(1, 64))))
    assert weaken(sig, term, cutoff, amount) == ref_weaken(sig, term, cutoff, amount)


@KERNEL_SETTINGS
@given(st.data(), LANGS)
def test_rename_matches_eager_reference(data, lang):
    sig = get_language(lang)
    width = data.draw(st.integers(1, 64))
    term = data.draw(spine_terms(sig, width))
    perm = data.draw(st.permutations(range(width + 5)))
    f = perm.__getitem__
    assert rename(sig, term, f) == ref_rename(sig, term, f)


@KERNEL_SETTINGS
@given(infer_cases())
def test_infer_matches_recursive_reference(case):
    """The same type, or the same message and argument path."""
    sig, ctx, term = case
    try:
        expected = ref_infer(sig, ctx, term)
    except TypeCheckError as exc:
        with pytest.raises(TypeCheckError) as err:
            infer(sig, ctx, term)
        assert (err.value.message, err.value.path) == (exc.message, exc.path)
    else:
        assert infer(sig, ctx, term) is expected


K3_CONSTANTS = [
    Con("zero", None, (), ()),
    Con("lit", 3, (), ()),
    Con("any", None, (NAT,), ()),
]
K3_BAD_CONSTANTS = [
    Con("nope", None, (), ()),  # unknown arity
    Con("succ", None, (), ()),  # an arity with an argument, given none
    Con("lit", None, (), ()),  # no family literal
    Con("zero", 1, (), ()),  # a literal it does not take
    Con("any", None, (), ()),  # no instantiation
    Con("any", None, (BOOL,), ()),  # an argument of the wrong type
]


def _k3_nodes(leaf):
    """Every K3 node of one to three arguments with ``leaf`` at each
    argument position in turn and variables elsewhere."""
    for name, inst in (("succ", ()), ("abs", ()), ("pair", ()), ("pick", (NAT,))):
        n = len(K3.binder_counts[name])
        for j in range(n):
            args = tuple(leaf if i == j else Var(i) for i in range(n))
            yield Con(name, None, inst, args)


@pytest.mark.parametrize("leaf", K3_CONSTANTS + K3_BAD_CONSTANTS, ids=repr)
def test_constants_at_each_argument_position(leaf):
    """``infer`` agrees with the reference on a good or bad constant in
    every argument position of nodes of one to three arguments, and so do
    the walks, which return such a node itself when its other arguments
    stay or reject it with ``infer``'s message."""
    ctx = (NAT,) * 3
    for term in _k3_nodes(leaf):
        try:
            expected = ref_infer(K3, ctx, term)
        except TypeCheckError as exc:
            with pytest.raises(TypeCheckError) as err:
                infer(K3, ctx, term)
            assert (err.value.message, err.value.path) == (exc.message, exc.path)
            if K3.binder_counts.get(leaf.name) == ():
                # the walks check a node's arity and argument count only
                assert rename(K3, term, lambda i: i) is term
                continue
            for run in (
                lambda t: weaken(K3, t, 0, 1),
                lambda t: rename(K3, t, lambda i: i),
            ):
                with pytest.raises(TypeCheckError) as walked:
                    run(term)
                assert walked.value.message == exc.message
        else:
            assert infer(K3, ctx, term) is expected
            assert weaken(K3, term, 5, 1) is term
            assert rename(K3, term, lambda i: i) is term
            moved = weaken(K3, term, 0, 2)
            assert moved == ref_weaken(K3, term, 0, 2)
            assert any(a is leaf for a in moved.args)


def _nodes(t):
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if type(t) is Con:
            stack.extend(t.args)


def _constants(t):
    return [c for c in _nodes(t) if type(c) is Con and not c.args]


@KERNEL_SETTINGS
@given(st.data(), LANGS, st.integers(0, 5))
def test_results_share_what_the_operation_leaves_unchanged(data, lang, above):
    """A weakening above every free index and the identity renaming return
    their input itself, and every argument-free constant of a result is an
    object of the input, never a copy."""
    sig, term, images = data.draw(substitution_cases(lang))
    width = len(images)
    assert weaken(sig, term, width + above, 3) is term
    assert rename(sig, term, lambda i: i) is term
    cutoff = data.draw(st.integers(0, width))
    f = data.draw(st.permutations(range(width))).__getitem__
    sub = Substitution((), (), images)
    results = [
        (substitute(sig, term, sub), ref_substitute(sig, term, images)),
        (weaken(sig, term, cutoff, 2), ref_weaken(sig, term, cutoff, 2)),
        (rename(sig, term, f), ref_rename(sig, term, f)),
    ]
    inputs = {id(c) for src in (term, *images) for c in _constants(src)}
    for got, want in results:
        assert got == want
        assert all(id(c) in inputs for c in _constants(got))


# ---------------------------------------------------------------------------
# Pinned cases


def test_repeated_occurrences_share_one_weakened_image():
    ulc = get_language("ULC")
    image = Con("app", None, (), (Var(0), Var(1)))
    body = Con("app", None, (), (Var(1), Var(1)))
    term = Con("abs", None, (), (body,))
    got = substitute(ulc, term, Substitution((STAR,), (STAR, STAR), (image,)))
    left, right = got.args[0].args
    assert left == ref_weaken(ulc, image, 0, 1)
    assert left is right


def test_unbound_index_under_substitution_message():
    ulc = get_language("ULC")
    term = Con("abs", None, (), (Con("app", None, (), (Var(0), Var(3))),))
    sub = Substitution((STAR, STAR), (STAR,), (Var(0), Var(0)))
    with pytest.raises(TypeCheckError) as err:
        substitute(ulc, term, sub)
    assert str(err.value) == "unbound index 3 under substitution"


def test_unbound_index_in_a_third_argument_has_its_path():
    """The third argument sits under the two binders of ``[$1 Nat]``."""
    ctx = (NAT,) * 3
    pick = Con("pick", None, (NAT,), (Var(0), Var(3), Var(4)))
    assert infer(K3, ctx, pick) is NAT
    bad = Con("pick", None, (NAT,), (Var(0), Var(3), Var(5)))
    with pytest.raises(TypeCheckError) as err:
        infer(K3, ctx, Con("succ", None, (), (bad,)))
    assert err.value.path == (0, 2)
    assert str(err.value) == "at argument path 0.2: unbound index 5"


def test_check_reports_a_type_mismatch():
    check(K3, (NAT,), Var(0), NAT)
    with pytest.raises(TypeCheckError) as err:
        check(K3, (NAT,), Con("succ", None, (), (Var(0),)), BOOL)
    assert (str(err.value), err.value.path) == ("expected Bool, found Nat", ())


UNKNOWN_ARITY_RUNS = pytest.mark.parametrize(
    "run",
    [
        lambda sig, t: weaken(sig, t, 0, 1),
        lambda sig, t: rename(sig, t, lambda i: i),
        lambda sig, t: substitute(sig, t, Substitution((STAR,), (STAR,), (Var(0),))),
    ],
    ids=["weaken", "rename", "substitute"],
)


@UNKNOWN_ARITY_RUNS
def test_unknown_arity_message(run):
    ulc = get_language("ULC")
    term = Con("abs", None, (), (Con("nope", None, (), (Var(0),)),))
    with pytest.raises(TypeCheckError) as err:
        run(ulc, term)
    assert str(err.value) == "unknown arity 'nope'"


@UNKNOWN_ARITY_RUNS
@pytest.mark.parametrize("bad", [(Var(0),), ()], ids=["node", "constant"])
@pytest.mark.parametrize("where", ["abs", "app-0", "app-1"])
def test_unknown_arity_message_in_an_argument(run, bad, where):
    """An unknown arity is rejected under a one-argument node and as either
    argument of a two-argument one, also as an argument-free constant."""
    ulc = get_language("ULC")
    term = _around(where, Con("nope", None, (), bad))
    with pytest.raises(TypeCheckError) as err:
        run(ulc, term)
    assert str(err.value) == "unknown arity 'nope'"


def _around(where, t):
    """``t`` as the argument of ``abs``, or as argument 0 or 1 of ``app``
    next to a variable."""
    if where == "abs":
        return Con("abs", None, (), (t,))
    if where == "app-0":
        return Con("app", None, (), (t, Var(0)))
    return Con("app", None, (), (Var(0), t))


@pytest.mark.parametrize(
    "run",
    [
        lambda sig, t: weaken(sig, t, 0, 1),
        lambda sig, t: rename(sig, t, lambda i: i + 1),
        lambda sig, t: substitute(
            sig, t, Substitution((STAR,) * 3, (STAR,), (Var(0),) * 3)
        ),
    ],
    ids=["weaken", "rename", "substitute"],
)
@pytest.mark.parametrize("count", [0, 1, 3])
def test_arity_mismatch_message(run, count):
    """A node with the wrong number of arguments is rejected with the
    message ``infer`` gives, not truncated to the arity's length."""
    ulc = get_language("ULC")
    term = Con("app", None, (), tuple(Var(i) for i in range(count)))
    with pytest.raises(TypeCheckError) as err:
        run(ulc, term)
    with pytest.raises(TypeCheckError) as by_infer:
        infer(ulc, (STAR,) * 3, term)
    assert str(err.value) == str(by_infer.value)
    assert str(err.value) == f"'app' expects 2 arguments, got {count}"


@pytest.mark.parametrize(
    "run",
    [
        lambda sig, t: weaken(sig, t, 0, 1),
        lambda sig, t: rename(sig, t, lambda i: i + 1),
        lambda sig, t: substitute(sig, t, Substitution((NAT,), (NAT,), (Var(0),))),
    ],
    ids=["weaken", "rename", "substitute"],
)
@pytest.mark.parametrize(
    "bad",
    [Con("app", None, (NAT, NAT), ()), Con("Succ", None, (), (Var(0),))],
    ids=["app-without-arguments", "Succ-with-one"],
)
@pytest.mark.parametrize("where", ["abs", "app-0", "app-1"])
def test_arity_mismatch_message_in_an_argument(run, bad, where):
    """A PCF node with the wrong number of arguments under a one-argument
    node, or as either argument of a two-argument one, is rejected with
    ``infer``'s message; ``infer`` adds its argument path."""
    pcf = get_language("PCF")
    term = _around(where, bad)
    term = Con(term.name, None, (NAT, NAT), term.args)
    with pytest.raises(TypeCheckError) as err:
        run(pcf, term)
    with pytest.raises(TypeCheckError) as by_infer:
        infer(pcf, (ObjType("arr", (NAT, NAT)),), term)  # #0 fits app's argument 0
    assert str(err.value) == by_infer.value.message
    assert by_infer.value.path == ((1,) if where == "app-1" else (0,))
    count = len(bad.args)
    expected = 2 if bad.name == "app" else 0
    assert str(err.value) == f"'{bad.name}' expects {expected} arguments, got {count}"


@pytest.mark.parametrize("cutoff", [0, 3])
@pytest.mark.parametrize("start", [500, VAR_TABLE_SIZE - 2, VAR_TABLE_SIZE + 5])
@pytest.mark.parametrize("step", [1, 2, 7, 40])
def test_indices_across_the_shared_table(start, step, cutoff):
    """Indices that cross the shared table's bound, weakened and renamed
    up and down, match the references; a variable below the bound that an
    operation makes is the table's object."""
    ulc = get_language("ULC")
    below = [Var(i) for i in range(start - 12, start + 12)]
    term = Var(start)
    for v in below:
        term = Con("app", None, (), (Con("abs", None, (), (v,)), term))
    table = var_table()

    def shared(t):
        return all(
            v is table[v.index]
            for v in _nodes(t)
            if type(v) is Var and v.index < VAR_TABLE_SIZE and v not in below
        )

    weakened = weaken(ulc, term, cutoff, step)
    assert weakened == ref_weaken(ulc, term, cutoff, step)
    assert shared(weakened)
    for f in (lambda i: i + step, lambda i: max(i - step, 0)):
        renamed = rename(ulc, term, f)
        assert renamed == ref_rename(ulc, term, f)
        assert shared(renamed)


def test_negative_weakening_is_a_value_error():
    ulc = get_language("ULC")
    with pytest.raises(ValueError, match="negative amount -1"):
        weaken(ulc, Var(0), 0, -1)
    with pytest.raises(ValueError, match="negative cutoff -2"):
        weaken(ulc, Var(0), -2, 1)
    with pytest.raises(ValueError, match="negative cutoff -2"):
        weaken(ulc, Var(0), -2, 0)


def test_renaming_below_zero_is_a_type_error():
    ulc = get_language("ULC")
    with pytest.raises(TypeCheckError) as err:
        rename(ulc, Var(0), lambda i: -3)
    assert str(err.value) == "renaming maps free index 0 to -3"
    term = Con("abs", None, (), (Con("app", None, (), (Var(0), Var(2))),))
    with pytest.raises(TypeCheckError) as err:
        rename(ulc, term, lambda i: i - 2)
    assert str(err.value) == "renaming maps free index 1 to -1"
    assert rename(ulc, term, lambda i: i - 1) == ref_rename(ulc, term, lambda i: i - 1)


def test_kernel_operations_at_depth_800_under_the_default_recursion_limit():
    """One Python frame per level: an 800-deep PCF chain
    ``(app [Nat, Nat] (Succ) (app ... #0))`` goes through at limit 1 000."""
    pcf = get_language("PCF")
    depth = 800

    def chain(leaf):
        t = leaf
        for _ in range(depth):
            t = Con("app", None, (NAT, NAT), (Con("Succ", None, (), ()), t))
        return t

    image = Con("nats", 4, (), ())
    term = chain(Var(0))
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        weakened = weaken(pcf, term, 0, 2)
        renamed = rename(pcf, term, lambda i: i + 5)
        substituted = substitute(pcf, term, Substitution((NAT,), (), (image,)))
    finally:
        sys.setrecursionlimit(saved)
    assert str(weakened) == str(chain(Var(2)))
    assert str(renamed) == str(chain(Var(5)))
    assert str(substituted) == str(chain(image))
