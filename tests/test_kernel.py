"""The term traversal against a naive eager reference.

``weaken``, ``rename`` and ``substitute`` share one traversal that passes
under a binder in O(1) and weakens substitution images lazily.  The
reference below is the textbook presentation instead: lifting a
substitution under ``k`` binders prefixes ``k`` fresh variables and
weakens every image by ``k`` on the spot.  Terms have a binder spine at
the root (up to 30 deep) over random bodies with binders of their own, and
substitutions are up to 64 wide.
"""

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from initsyn.languages import get_language
from initsyn.objtypes import ObjType
from initsyn.terms import (
    Con,
    Substitution,
    TypeCheckError,
    Var,
    infer,
    rename,
    substitute,
    weaken,
)

NAT, STAR = ObjType("Nat"), ObjType("*")
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


@pytest.mark.parametrize(
    "run",
    [
        lambda sig, t: weaken(sig, t, 0, 1),
        lambda sig, t: rename(sig, t, lambda i: i),
        lambda sig, t: substitute(sig, t, Substitution((STAR,), (STAR,), (Var(0),))),
    ],
    ids=["weaken", "rename", "substitute"],
)
def test_unknown_arity_message(run):
    ulc = get_language("ULC")
    term = Con("abs", None, (), (Con("nope", None, (), (Var(0),)),))
    with pytest.raises(TypeCheckError) as err:
        run(ulc, term)
    assert str(err.value) == "unknown arity 'nope'"


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
