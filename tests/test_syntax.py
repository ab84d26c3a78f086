import random

import pytest

from initsyn.languages import get_language
from initsyn.laws import GenConfig, gen_context, gen_substitution, gen_term, _sig_data
from initsyn.objtypes import ObjType
from initsyn.terms import (
    Con,
    Substitution,
    TypeCheckError,
    Var,
    check,
    context_extend,
    eta,
    identity_substitution,
    infer,
    rename,
    substitute,
    weaken,
)
from initsyn.signatures import TVar

NAT, BOOL, STAR = ObjType("Nat"), ObjType("Bool"), ObjType("*")


def arr(a, b):
    return ObjType("arr", (a, b))


def ulc_abs(body):
    return Con("abs", None, (), (body,))


def ulc_app(f, a):
    return Con("app", None, (), (f, a))


class TestInfer:
    def test_variable_lookup(self):
        pcf = get_language("PCF")
        assert infer(pcf, (NAT,), Var(0)) == NAT

    def test_family_application(self):
        pcf = get_language("PCF")
        term = Con(
            "app",
            None,
            (NAT, NAT),
            (Con("Succ", None, (), ()), Con("nats", 3, (), ())),
        )
        assert infer(pcf, (), term) == NAT

    def test_argument_mismatch_message(self):
        pcf = get_language("PCF")
        term = Con(
            "app",
            None,
            (BOOL, NAT),
            (Con("Succ", None, (), ()), Con("tttt", None, (), ())),
        )
        with pytest.raises(TypeCheckError) as err:
            infer(pcf, (), term)
        assert "expected arr(Bool,Nat), found arr(Nat,Nat)" in str(err.value)

    def test_unbound_index(self):
        ulc = get_language("ULC")
        check(ulc, (STAR,), Var(0), STAR)
        with pytest.raises(TypeCheckError) as err:
            infer(ulc, (), Var(0))
        assert "unbound index 0" in str(err.value)

    def test_unknown_arity_and_malformed_nodes(self):
        pcf = get_language("PCF")
        with pytest.raises(TypeCheckError):
            infer(pcf, (), Con("mystery", None, (), ()))
        with pytest.raises(TypeCheckError):
            infer(pcf, (), Con("nats", None, (), ()))  # missing family literal
        with pytest.raises(TypeCheckError):
            infer(pcf, (), Con("tttt", 3, (), ()))  # literal on non-family
        with pytest.raises(TypeCheckError):
            infer(pcf, (), Con("app", None, (NAT,), ()))  # wrong inst length


def test_check_agrees_with_infer_on_generated_terms():
    pcf = get_language("PCF")
    rng = random.Random(5)
    cfg = GenConfig(seed=5, cases=1)
    for _ in range(100):
        ctx = gen_context(pcf, cfg, rng)
        term = gen_term(pcf, ctx, None, cfg, rng=rng)
        check(pcf, ctx, term, infer(pcf, ctx, term))


class TestWeaken:
    def test_below_cutoff(self):
        ulc = get_language("ULC")
        assert weaken(ulc, Var(0), 1, 5) == Var(0)

    def test_shift(self):
        ulc = get_language("ULC")
        assert weaken(ulc, Var(2), 1, 2) == Var(4)

    def test_cutoff_grows_under_binder(self):
        ulc = get_language("ULC")
        term = ulc_abs(ulc_app(Var(1), Var(0)))
        assert weaken(ulc, term, 0, 1) == ulc_abs(ulc_app(Var(2), Var(0)))


class TestRename:
    def test_identity(self):
        ulc = get_language("ULC")
        term = ulc_abs(ulc_app(Var(1), Var(0)))
        assert rename(ulc, term, lambda i: i) == term

    def test_swap(self):
        ulc = get_language("ULC")
        term = ulc_app(Var(0), Var(1))
        swap = {0: 1, 1: 0}
        assert rename(ulc, term, lambda i: swap[i]) == ulc_app(Var(1), Var(0))

    def test_composition_law_on_random_terms(self):
        ulc = get_language("ULC")
        rng = random.Random(17)
        cfg = GenConfig(seed=17, cases=1)
        ctx = (STAR, STAR, STAR)
        f = lambda i: (i + 1) % 3
        g = lambda i: (2 * i) % 3
        for _ in range(1000):
            term = gen_term(ulc, ctx, None, cfg, rng=rng)
            assert rename(ulc, rename(ulc, term, f), g) == rename(
                ulc, term, lambda i: g(f(i))
            )

    def test_rename_is_substitution_by_variables(self):
        pcf = get_language("PCF")
        rng = random.Random(18)
        cfg = GenConfig(seed=18, cases=1)
        ctx = (NAT, NAT, BOOL)
        perm = {0: 1, 1: 0, 2: 2}
        target = tuple(ctx[k] for k in sorted(perm, key=perm.get))
        sub = Substitution(ctx, target, tuple(Var(perm[i]) for i in range(3)))
        for _ in range(200):
            term = gen_term(pcf, ctx, None, cfg, rng=rng)
            assert rename(pcf, term, lambda i: perm[i]) == substitute(pcf, term, sub)


class TestEta:
    def test_values(self):
        assert eta((NAT,), 0) == Var(0)
        assert eta((NAT, BOOL), 1) == Var(1)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            eta((NAT,), 1)

    def test_typing(self):
        pcf = get_language("PCF")
        ctx = (NAT, BOOL, arr(NAT, NAT))
        for i, ty in enumerate(ctx):
            assert infer(pcf, ctx, eta(ctx, i)) == ty


class TestSubstitute:
    def test_identity_substitution(self):
        ulc = get_language("ULC")
        term = ulc_abs(ulc_app(Var(1), Var(0)))
        assert substitute(ulc, term, identity_substitution((STAR,))) == term

    def test_variable_clause(self):
        ulc = get_language("ULC")
        sub = Substitution((STAR, STAR), (STAR,), (ulc_abs(Var(0)), Var(0)))
        assert substitute(ulc, Var(0), sub) == ulc_abs(Var(0))
        assert substitute(ulc, Var(1), sub) == Var(0)

    def test_capture_avoidance_under_binder(self):
        ulc = get_language("ULC")
        term = ulc_abs(ulc_app(Var(1), Var(0)))
        sub = Substitution((STAR,), (), (ulc_abs(Var(0)),))
        got = substitute(ulc, term, sub)
        assert got == ulc_abs(ulc_app(ulc_abs(Var(0)), Var(0)))

    def test_type_preservation_on_generated_cases(self):
        pcf = get_language("PCF")
        cfg = GenConfig(seed=19, cases=1)
        rng = random.Random(19)
        for _ in range(200):
            ctx = gen_context(pcf, cfg, rng)
            term = gen_term(pcf, ctx, None, cfg, rng=rng)
            sub = gen_substitution(pcf, ctx, cfg, rng)
            assert infer(pcf, sub.codomain, substitute(pcf, term, sub)) == infer(
                pcf, ctx, term
            )


class TestContextExtend:
    def test_basic(self):
        assert context_extend((), (NAT, BOOL), (TVar(1),)) == (NAT,)

    def test_first_binder_innermost(self):
        got = context_extend((BOOL,), (NAT, BOOL), (TVar(1), TVar(2)))
        assert got == (NAT, BOOL, BOOL)

    def test_empty_binders(self):
        ctx = (NAT, BOOL)
        assert context_extend(ctx, (NAT,), ()) == ctx


def test_substitution_validate():
    pcf = get_language("PCF")
    good = Substitution((NAT,), (), (Con("nats", 0, (), ()),))
    good.validate(pcf)
    bad = Substitution((NAT,), (), (Con("tttt", None, (), ()),))
    with pytest.raises(TypeCheckError):
        bad.validate(pcf)
    short = Substitution((NAT, NAT), (), (Con("nats", 0, (), ()),))
    with pytest.raises(TypeCheckError):
        short.validate(pcf)


def test_infer_never_hangs_on_garbage():
    pcf = get_language("PCF")
    rng = random.Random(23)
    pool = _sig_data(pcf).pool
    names = [ar.name for ar in pcf.terms] + ["nonsense"]
    for _ in range(500):
        depth = rng.randint(0, 3)

        def build(d):
            if d == 0 or rng.random() < 0.4:
                return Var(rng.randint(0, 3))
            return Con(
                rng.choice(names),
                rng.choice([None, 0, 2]),
                tuple(rng.choice(pool) for _ in range(rng.randint(0, 2))),
                tuple(build(d - 1) for _ in range(rng.randint(0, 2))),
            )

        term = build(depth)
        try:
            infer(pcf, (NAT,), term)
        except TypeCheckError:
            pass
