import random
import sys

import pytest

from initsyn import terms, translate
from initsyn.languages import get_language, get_translation
from initsyn.laws import GenConfig, GenFailure, gen_term, _case_term
from initsyn.objtypes import ObjType, ground_types, translate_type
from initsyn.signatures import TVar
from initsyn.surface import print_term
from initsyn.terms import Con, TypeCheckError, Var, context_extend, infer, weaken
from initsyn.translate import (
    OpaqueRepresentation,
    TplMeta,
    Translation,
    _landing,
    build_stability_witness,
    identity_translation,
    instantiate_template,
    retype_context,
    translate_term,
    validate_translation,
)

from oracles import cpc_to_ipc, gg_prop

NAT, BOOL, BOT, STAR = ObjType("Nat"), ObjType("Bool"), ObjType("bot"), ObjType("*")
P, Q = ObjType("p"), ObjType("q")


def imp(a, b):
    return ObjType("impl", (a, b))


def nn(a):
    return imp(imp(a, BOT), BOT)


class TestRetyping:
    def test_retype_context_gg(self):
        g = get_translation("cpc2ipc-godel-gentzen").type_map
        assert retype_context(g, (P,)) == (nn(P),)
        assert retype_context(g, ()) == ()

    def test_retype_context_constant(self):
        g = get_translation("pcf2ulc-turing").type_map
        assert retype_context(g, (NAT, ObjType("arr", (NAT, BOOL)))) == (STAR, STAR)

    def test_retype_inst(self):
        # Retyping an instantiation context: each entry is mapped in order.
        g = get_translation("cpc2ipc-godel-gentzen").type_map
        assert retype_context(g, ()) == ()
        assert retype_context(g, (P, BOT)) == (nn(P), nn(BOT))


class TestValidation:
    def test_builtins_pass(self):
        for name in ("pcf2ulc-turing", "pcf2ulc-curry", "cpc2ipc-godel-gentzen"):
            report = validate_translation(get_translation(name))
            assert report.ok, f"{name}: {report}"

    def test_binder_context_mismatch(self):
        x = get_translation("pcf2ulc-turing")
        broken = dict(x.term_map)
        broken["abs"] = TplMeta(1)  # placeholder under zero binders
        bad = Translation(x.name, x.source, x.target, x.type_map, broken, x.macros)
        report = validate_translation(bad)
        assert any("binder context mismatch at Meta(1)" in e for e in report.entries)

    def test_missing_template(self):
        x = get_translation("pcf2ulc-turing")
        partial = {k: v for k, v in x.term_map.items() if k != "rec"}
        bad = Translation(x.name, x.source, x.target, x.type_map, partial, x.macros)
        report = validate_translation(bad)
        assert any("no template for rec" in e for e in report.entries)

    def test_wrong_result_type(self):
        x = get_translation("cpc2ipc-godel-gentzen")
        broken = dict(x.term_map)
        broken["topI"] = Con("topI", None, (), ())
        bad = Translation(x.name, x.source, x.target, x.type_map, broken, x.macros)
        report = validate_translation(bad)
        assert any("arity 'topI'" in e for e in report.entries)

    def test_meta_out_of_range(self):
        x = get_translation("pcf2ulc-turing")
        broken = dict(x.term_map)
        broken["tttt"] = TplMeta(1)
        bad = Translation(x.name, x.source, x.target, x.type_map, broken, x.macros)
        report = validate_translation(bad)
        assert any("Meta(1) out of range" in e for e in report.entries)

    @pytest.mark.parametrize(
        "lit, inst, args",
        [(7, (), ()), (None, (ObjType("Foo"),), ()), (None, (), (Var(0),))],
    )
    def test_hole_with_a_payload_rejected(self, lit, inst, args):
        x = get_translation("pcf2ulc-turing")
        hole = Con("__hole", lit, inst, args)
        step = Con("app", None, (), (Var(1), hole))
        body = Con("__iter", None, (), (step, Var(0)))
        nats = Con("abs", None, (), (Con("abs", None, (), (body,)),))
        broken = dict(x.term_map, nats=nats)
        bad = Translation(x.name, x.source, x.target, x.type_map, broken, x.macros)
        assert validate_translation(bad).entries == (
            "arity 'nats': __hole takes no literal, type parameters or sub-templates",
        )

    def test_iter_outside_family_rejected(self):
        x = get_translation("pcf2ulc-turing")
        broken = dict(x.term_map)
        broken["tttt"] = broken["nats"]
        bad = Translation(x.name, x.source, x.target, x.type_map, broken, x.macros)
        report = validate_translation(bad)
        assert any("__iter" in e for e in report.entries)

    def test_stab_rejects_unstable_types(self):
        from initsyn.translate import STAB

        x = get_translation("cpc2ipc-godel-gentzen")
        orig = x.term_map["orE"]
        assert isinstance(orig, Con) and orig.name == STAB
        broken = dict(x.term_map)
        broken["orE"] = Con(STAB, None, (ObjType("or", (TVar(1), TVar(2))),), orig.args)
        bad = Translation(x.name, x.source, x.target, x.type_map, broken, x.macros)
        report = validate_translation(bad)
        assert any("not double-negation stable" in e for e in report.entries)

    def test_stab_requires_stable_type_templates(self):
        from initsyn.objtypes import TypeTranslation

        x = get_translation("cpc2ipc-godel-gentzen")
        weak = dict(x.type_map.templates)
        weak["or"] = ObjType("or", (TVar(1), TVar(2)))  # or-images no longer stable
        bad = Translation(
            x.name,
            x.source,
            x.target,
            TypeTranslation(x.type_map.source, x.type_map.target, weak),
            x.term_map,
            x.macros,
        )
        report = validate_translation(bad)
        assert not report.ok


class TestInstantiate:
    def test_rec_becomes_fixed_point_application(self):
        x = get_translation("pcf2ulc-turing")
        rec = x.source.arity("rec")
        arg = Con("abs", None, (), (Var(0),))
        got = instantiate_template(x, rec, (STAR,), (arg,))
        assert got == Con("app", None, (), (x.macros["Theta"], arg))

    def test_constant_template_ignores_arguments(self):
        x = get_translation("pcf2ulc-turing")
        tttt = x.source.arity("tttt")
        got = instantiate_template(x, tttt, (), ())
        ulc = get_language("ULC")
        assert print_term(ulc, (), got, style="paper") == "Abs (Abs 2)"

    def test_unvalidated_garbage_is_caught(self):
        x = get_translation("pcf2ulc-turing")
        broken = dict(x.term_map)
        broken["tttt"] = TplMeta(1)
        bad = Translation(x.name, x.source, x.target, x.type_map, broken, x.macros)
        with pytest.raises(TypeCheckError):
            instantiate_template(bad, x.source.arity("tttt"), (), ())


class TestTranslateTerm:
    def test_variable_clause(self):
        x = get_translation("pcf2ulc-turing")
        assert translate_term(x, (NAT,), Var(0)) == Var(0)

    def test_identity_abstraction(self):
        x = get_translation("pcf2ulc-turing")
        term = Con("abs", None, (NAT, NAT), (Var(0),))
        assert translate_term(x, (), term) == Con("abs", None, (), (Var(0),))

    def test_type_preservation_sample(self):
        x = get_translation("cpc2ipc-godel-gentzen")
        cfg = GenConfig(seed=3, cases=1)
        rng = random.Random(3)
        for _ in range(150):
            ctx, term = _case_term(x.source, cfg, rng)
            out = translate_term(x, ctx, term)
            assert infer(
                x.target, retype_context(x.type_map, ctx), out
            ) == translate_type(x.type_map, infer(x.source, ctx, term))

    def test_identity_translation_is_identity_on_terms(self):
        ulc = get_language("ULC")
        ident = identity_translation(ulc)
        assert validate_translation(ident).ok
        cfg = GenConfig(seed=4, cases=1)
        rng = random.Random(4)
        for _ in range(200):
            ctx, term = _case_term(ulc, cfg, rng)
            assert translate_term(ident, ctx, term) == term

    def test_identity_translation_passes_family_literals_through(self):
        pcf = get_language("PCF")
        ident = identity_translation(pcf)
        assert validate_translation(ident).ok
        term = Con("nats", 2, (), ())
        assert translate_term(ident, (), term) == term


class TestOpaqueRepresentation:
    def _opaque_pcf2ulc(self):
        x = get_translation("pcf2ulc-turing")

        def op(name):
            ar = x.source.arity(name)

            def run(inst, ctx, args, lit):
                return instantiate_template(x, ar, inst, args, lit)

            return run

        return OpaqueRepresentation(
            name="opaque-pcf2ulc",
            source=x.source,
            target=x.target,
            type_map=x.type_map,
            ops={ar.name: op(ar.name) for ar in x.source.terms},
        )

    def test_agrees_with_template_translation(self):
        x = get_translation("pcf2ulc-turing")
        o = self._opaque_pcf2ulc()
        cfg = GenConfig(seed=6, cases=1)
        rng = random.Random(6)
        for _ in range(100):
            ctx, term = _case_term(x.source, cfg, rng)
            assert translate_term(o, ctx, term) == translate_term(x, ctx, term)

    def test_misbehaving_callback_is_rejected(self):
        x = get_translation("pcf2ulc-turing")
        bad = OpaqueRepresentation(
            name="bad",
            source=x.source,
            target=x.target,
            type_map=x.type_map,
            ops={ar.name: (lambda inst, ctx, args, lit: Var(99)) for ar in x.source.terms},
        )
        with pytest.raises(TypeCheckError):
            translate_term(bad, (), Con("tttt", None, (), ()))

    def test_an_arity_without_an_operation_is_named(self):
        o = self._opaque_pcf2ulc()
        ops = {name: op for name, op in o.ops.items() if name != "tttt"}
        partial = OpaqueRepresentation(o.name, o.source, o.target, o.type_map, ops)
        term = Con("app", None, (BOOL, BOOL), (Var(0), Con("tttt", None, (), ())))
        with pytest.raises(TypeCheckError) as err:
            translate_term(partial, (ObjType("arr", (BOOL, BOOL)),), term)
        assert str(err.value) == "no operation for arity 'tttt'"

    def test_an_operation_of_the_wrong_type_is_named(self):
        """In a typed target: ``topI`` must translate to the image of top."""
        x = get_translation("cpc2ipc-godel-gentzen")

        def top(inst, ctx, args, lit):
            return Con("topI", None, (), ())

        ops = {ar.name: top for ar in x.source.terms}
        wrong = OpaqueRepresentation("wrong", x.source, x.target, x.type_map, ops)
        with pytest.raises(TypeCheckError) as err:
            translate_term(wrong, (), Con("topI", None, (), ()))
        assert str(err.value) == (
            "operation for 'topI' returned a term of type top, "
            "expected impl(impl(top,bot),bot)"
        )


def test_iter_expands_up_to_its_bound_and_refuses_more():
    """A literal of ``MAX_ITER_LITERAL`` expands on a loop, at the default
    recursion limit; one more is refused, naming the arity and the literal,
    through either walk."""
    x = get_translation("pcf2ulc-turing")
    bound = translate.MAX_ITER_LITERAL
    assert bound >= 10_000
    out = translate_term(x, (), Con("nats", bound, (), ()))
    steps, t = 0, out.args[0].args[0]  # under the numeral's two binders
    while type(t) is Con and t.name == "app":
        steps, t = steps + 1, t.args[1]
    assert (steps, t) == (bound, Var(0))
    for rep in (x, _opaque_from_templates(x)):
        with pytest.raises(TypeCheckError) as err:
            translate_term(rep, (), Con("nats", bound + 1, (), ()))
        message = f"arity 'nats': literal {bound + 1} is above __iter's bound {bound}"
        assert err.value.message == message
        assert err.value.path == ()


def test_stability_witness_typechecks_on_random_images():
    ipc = get_language("IPC")
    g = get_translation("cpc2ipc-godel-gentzen").type_map
    rng = random.Random(9)
    leaves = [ObjType(n) for n in ("p", "q", "r", "top", "bot")]

    def random_prop(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        name = rng.choice(["and", "or", "impl"])
        return ObjType(name, (random_prop(depth - 1), random_prop(depth - 1)))

    for _ in range(200):
        image = translate_type(g, random_prop(3))
        ctx = (nn(image),)
        witness = build_stability_witness(ipc, image, Var(0))
        assert infer(ipc, ctx, witness) == image


TOP = ObjType("top")


def _two_copy_witness(sig, ty, d):
    """``build_stability_witness`` as it was written before its one step
    became a helper: the step spelled out once for ``and``, once for ``impl``."""

    def implI(a, b, body):
        return Con("implI", None, (a, b), (body,))

    def implE(a, b, f, x):
        return Con("implE", None, (a, b), (f, x))

    if ty == BOT:
        return implE(imp(BOT, BOT), BOT, d, implI(BOT, BOT, Var(0)))
    if ty == TOP:
        return Con("topI", None, (), ())
    if ty.name == "and":
        x, y = ty.args
        halves = []
        for part, proj in ((x, "andE1"), (y, "andE2")):
            dpart = implI(
                imp(part, BOT),
                BOT,
                implE(
                    imp(ty, BOT),
                    BOT,
                    weaken(sig, d, 0, 1),
                    implI(
                        ty,
                        BOT,
                        implE(
                            part,
                            BOT,
                            Var(1),
                            Con(proj, None, (x, y), (Var(0),)),
                        ),
                    ),
                ),
            )
            halves.append(_two_copy_witness(sig, part, dpart))
        return Con("andI", None, (x, y), tuple(halves))
    if ty.name == "impl":
        x, y = ty.args
        dy = implI(
            imp(y, BOT),
            BOT,
            implE(
                imp(ty, BOT),
                BOT,
                weaken(sig, d, 0, 2),
                implI(
                    ty,
                    BOT,
                    implE(y, BOT, Var(1), implE(x, y, Var(0), Var(2))),
                ),
            ),
        )
        return implI(x, y, _two_copy_witness(sig, y, dy))
    raise TypeCheckError(f"no stability witness for type {ty}")


def _same_nodes(a, b):
    """``a == b`` node by node on an explicit stack, so that depth costs no
    recursion; the first differing pair is returned, or None."""
    stack = [(a, b)]
    while stack:
        s, t = stack.pop()
        if type(s) is not type(t):
            return s, t
        if type(s) is Var:
            if s.index != t.index:
                return s, t
            continue
        if (s.name, s.lit, s.inst, len(s.args)) != (t.name, t.lit, t.inst, len(t.args)):
            return s, t
        stack.extend(zip(s.args, t.args))
    return None


def _stable_types():
    """The types that have a witness: bot, top, and of two of them, impl
    of any type and one of them; named cases, right-nested impl chains of
    1-40 levels and seeded random types over p and q."""
    named = [BOT, TOP, ObjType("and", (TOP, BOT)), imp(P, ObjType("and", (BOT, TOP)))]
    chains = []
    for n in range(1, 41):
        t = BOT if n % 2 else ObjType("and", (TOP, BOT))
        for k in range(n):
            t = imp((P, Q, nn(P))[k % 3], t)
        chains.append(t)
    rng = random.Random(24)

    def any_type(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([P, Q, TOP, BOT])
        name = rng.choice(["and", "or", "impl"])
        return ObjType(name, (any_type(depth - 1), any_type(depth - 1)))

    def stable(depth):
        if depth == 0 or rng.random() < 0.25:
            return rng.choice([TOP, BOT])
        if rng.random() < 0.5:
            return ObjType("and", (stable(depth - 1), stable(depth - 1)))
        return imp(any_type(depth - 1), stable(depth - 1))

    return named + chains + [stable(5) for _ in range(150)]


def test_stability_witness_matches_the_two_copy_builder():
    """Node for node and by printed text, with ``d`` a variable and with
    ``d`` a compound term whose variables every weakening moves."""
    ipc = get_language("IPC")
    for ty in _stable_types():
        f = imp(P, nn(ty))
        for ctx, d in (
            ((nn(ty),), Var(0)),
            ((f, P), Con("implE", None, (P, nn(ty)), (Var(0), Var(1)))),
        ):
            got = build_stability_witness(ipc, ty, d)
            want = _two_copy_witness(ipc, ty, d)
            assert _same_nodes(got, want) is None, str(ty)
            assert str(got) == str(want)
            assert infer(ipc, ctx, got) == ty


def test_stability_witness_rejects_an_unstable_type():
    ipc = get_language("IPC")
    with pytest.raises(TypeCheckError) as err:
        build_stability_witness(ipc, ObjType("or", (P, Q)), Var(0))
    assert str(err.value) == "no stability witness for type or(p,q)"


def _implE_chain(n, ty):
    """A compound ``d`` of ``n`` nodes, built without recursion: ``#1``
    applied to ``#0`` and then to the result, ``(n - 1) / 2`` times."""
    d = Var(0)
    for _ in range((n - 1) // 2):
        d = Con("implE", None, (P, nn(ty)), (Var(1), d))
    return d


def test_the_landed_builder_takes_d_where_it_was_placed():
    """For every type whose witness uses ``d`` in one place, ``d`` shifted
    past that place's binders and handed over as placed gives the witness
    that ``build_stability_witness`` builds from ``d`` itself."""
    ipc = get_language("IPC")
    landed = 0
    for ty in _stable_types():
        s = _landing(ty)
        if s is None:
            continue
        d = Con("implE", None, (P, nn(ty)), (Var(0), Var(1)))
        want = build_stability_witness(ipc, ty, d)
        got = build_stability_witness(ipc, ty, weaken(ipc, d, 0, s), s)
        assert _same_nodes(got, want) is None, str(ty)
        assert str(got) == str(want)
        landed += 1
    assert landed >= 40


def test_the_landed_builder_does_not_walk_d(monkeypatch):
    """A 10-node ``d`` and a 10 000-node ``d`` cost the same nodes: the
    builder neither walks nor copies ``d`` at its landing."""
    ipc = get_language("IPC")
    built = [0]

    def counting_con(*args):
        built[0] += 1
        return Con(*args)

    def no_walk(*args):
        raise AssertionError("d was walked")

    for ty in [t for t in _stable_types() if _landing(t) is not None][:30]:
        s = _landing(ty)
        counts = []
        for n in (11, 10_001):
            d = _implE_chain(n, ty)
            built[0] = 0
            with monkeypatch.context() as m:
                m.setattr(translate, "Con", counting_con)
                m.setattr(terms, "_map", no_walk)
                witness = build_stability_witness(ipc, ty, d, s)
            counts.append(built[0])
            assert id(d) in _node_ids(witness)
        assert counts[0] == counts[1], str(ty)


def _node_ids(t):
    """The ids of ``t``'s nodes, on an explicit stack."""
    ids, stack = set(), [t]
    while stack:
        u = stack.pop()
        if id(u) not in ids:
            ids.add(id(u))
            if type(u) is Con:
                stack.extend(u.args)
    return ids


def test_a_witness_10_000_levels_deep_needs_no_recursion():
    """At the default recursion limit: a right-nested ``impl`` chain of
    10 000 levels over bot lands ``d`` under 20 000 binders, and ``d``
    placed there is taken as it is."""
    ipc = get_language("IPC")
    ty = BOT
    for k in range(10_000):
        ty = imp((P, Q)[k % 2], ty)
    d = Con("implE", None, (P, nn(ty)), (Var(0), Var(1)))
    placed = weaken(ipc, d, 0, 20_000)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert _landing(ty) == 20_000
        shifted = build_stability_witness(ipc, ty, d)
        landed = build_stability_witness(ipc, ty, placed, 20_000)
    finally:
        sys.setrecursionlimit(saved)
    assert id(placed) in _node_ids(landed)
    assert _same_nodes(landed, shifted) is None


def test_landing_counts_binders_to_the_one_place_d_is_used():
    assert _landing(BOT) == 0
    assert _landing(TOP) is None
    assert _landing(imp(P, BOT)) == 2
    assert _landing(nn(P)) == 2
    assert _landing(imp(P, nn(Q))) == 4
    assert _landing(ObjType("and", (TOP, BOT))) == 1
    assert _landing(imp(P, ObjType("and", (BOT, TOP)))) == 3
    assert _landing(ObjType("and", (BOT, BOT))) is None
    assert _landing(ObjType("and", (TOP, TOP))) is None


def _nested_or_elimination(k, c):
    """``t(k+1) = (orE [p, p, C] #0 weaken(t(k),0,1) #2)`` from ``t(0) = #1``
    in context ``[or(p,p), C]``."""
    cpc = get_language("CPC")
    t = Var(1)
    for _ in range(k):
        t = Con("orE", None, (P, P, c), (Var(0), weaken(cpc, t, 0, 1), Var(2)))
    return (ObjType("or", (P, P)), c), t


@pytest.mark.parametrize("c", [BOT, imp(P, P)], ids=str)
def test_nested_or_elimination_walks_no_translated_subproof(monkeypatch, c):
    """200 nested ``orE``: each witness takes the subproofs where
    ``translate_term`` placed them, so no ``weaken`` shifts anything and
    ``terms._map``, the walk behind it, is never entered; the output is the
    reference translator's, compared as printed text."""
    x = get_translation("cpc2ipc-godel-gentzen")
    ctx, term = _nested_or_elimination(200, c)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        want = str(cpc_to_ipc(ctx, term))
    finally:
        sys.setrecursionlimit(saved)
    shifts = []
    original = translate.weaken

    def counting(sig, t, cutoff, amount):
        shifts.append(amount)
        return original(sig, t, cutoff, amount)

    def no_walk(*args):
        raise AssertionError("a translated subterm was walked again")

    monkeypatch.setattr(translate, "weaken", counting)
    monkeypatch.setattr(terms, "_map", no_walk)
    out = translate_term(x, ctx, term)
    monkeypatch.undo()
    assert [a for a in shifts if a] == []
    assert str(out) == want


def test_a_deep_implication_result_translates_at_the_default_recursion_limit():
    """``orE`` at a 480-deep right-nested ``impl`` result: the witness is
    built on an explicit stack, 481 ``impl`` levels deep."""
    x = get_translation("cpc2ipc-godel-gentzen")
    t = Q
    for _ in range(480):
        t = imp(P, t)
    ctx = (ObjType("or", (P, P)), imp(P, t))
    branch = Con("implE", None, (P, t), (Var(2), Var(0)))
    term = Con("orE", None, (P, P, t), (Var(0), branch, branch))
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        out = translate_term(x, ctx, term)
    finally:
        sys.setrecursionlimit(20_000)
    try:
        want = str(cpc_to_ipc(ctx, term))
    finally:
        sys.setrecursionlimit(saved)
    assert str(out) == want


class TestTranslationContext:
    """Templates never read the context; opaque callbacks see exactly the
    retyped context of their node."""

    @pytest.mark.parametrize(
        "name", ["pcf2ulc-turing", "pcf2ulc-curry", "cpc2ipc-godel-gentzen"]
    )
    def test_template_output_ignores_context_length(self, name):
        x = get_translation(name)
        rng = random.Random(11)
        pool = ground_types(x.source.all_types, 2)
        for ctx, term in _cases_with_binders(x.source, rng, 40):
            long = ctx[:1] + tuple(rng.choice(pool) for _ in range(255))
            short_out = translate_term(x, ctx[:1], term)
            long_out = translate_term(x, long, term)
            assert short_out == long_out
            assert str(short_out) == str(long_out)

    @pytest.mark.parametrize(
        "name", ["pcf2ulc-turing", "pcf2ulc-curry", "cpc2ipc-godel-gentzen"]
    )
    def test_opaque_callback_sees_retyped_node_context(self, name):
        x = get_translation(name)
        seen = []
        reached = set()  # (arity, literal >= 1) of every node a callback got

        def op(ar):
            def run(inst, ctx, args, lit):
                seen.append((ar.name, ctx))
                reached.add((ar.name, lit is not None and lit >= 1))
                return instantiate_template(x, ar, inst, args, lit)

            return run

        o = OpaqueRepresentation(
            name="recording",
            source=x.source,
            target=x.target,
            type_map=x.type_map,
            ops={ar.name: op(ar) for ar in x.source.terms},
        )
        for ctx, term in _cases_with_binders(x.source, random.Random(12), 60):
            seen.clear()
            out = translate_term(o, ctx, term)
            expected = [
                (arity, retype_context(x.type_map, node_ctx))
                for arity, node_ctx in _node_contexts(x.source, ctx, term)
            ]
            assert seen == expected
            assert out == translate_term(x, ctx, term)
        # the ``__iter`` path, and the ``__stab`` at the root of ``orE``'s template
        want = ("orE", False) if name.startswith("cpc") else ("nats", True)
        assert want in reached


def _cases_with_binders(sig, rng, count):
    """Terms of function type, so that most start with a binder, in
    contexts whose first entry alone already types them."""
    arrow = "arr" if sig.arity("abs") is not None else "impl"
    pool = ground_types(sig.all_types, 2)
    cfg = GenConfig(seed=1, cases=1)
    out = []
    while len(out) < count:
        a, b = rng.choice(pool), rng.choice(pool)
        ctx = (b,) + tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
        try:
            term = gen_term(sig, ctx[:1], ObjType(arrow, (a, b)), cfg, rng=rng)
        except GenFailure:
            continue
        out.append((ctx, term))
    assert any(_binder_depth(sig, t) >= 2 for _, t in out)
    return out


def _node_contexts(sig, ctx, term):
    """(arity, source context) of every constructor node, children first."""
    if isinstance(term, Var):
        return []
    ar = sig.arity(term.name)
    out = []
    for spec, arg in zip(ar.args, term.args):
        out += _node_contexts(sig, context_extend(ctx, term.inst, spec.binders), arg)
    return out + [(term.name, ctx)]


def _binder_depth(sig, term, depth=0):
    if isinstance(term, Var):
        return depth
    counts = [len(spec.binders) for spec in sig.arity(term.name).args]
    return max(
        [depth] + [_binder_depth(sig, a, depth + k) for a, k in zip(term.args, counts)]
    )



def _opaque_from_templates(x):
    def op(ar):
        return lambda inst, ctx, args, lit: instantiate_template(x, ar, inst, args, lit)

    ops = {ar.name: op(ar) for ar in x.source.terms}
    return OpaqueRepresentation(f"opaque-{x.name}", x.source, x.target, x.type_map, ops)


def _app(*args, inst=(BOOL, BOOL)):
    return Con("app", None, inst, args)


def _implE(*args, inst=(P, Q)):
    return Con("implE", None, inst, args)


# (translation, a well-formed node, a malformed node of the same arity, infer's message)
_MALFORMED = [
    (
        "pcf2ulc-turing",
        _app(Var(0), Var(1)),
        _app(Var(0), Var(0), Var(0)),
        "'app' expects 2 arguments, got 3",
    ),
    ("pcf2ulc-turing", _app(Var(0), Var(1)), _app(Var(0)), "'app' expects 2 arguments, got 1"),
    (
        "pcf2ulc-turing",
        _app(Var(0), Var(1)),
        _app(Var(0), Var(0), inst=(BOOL,)),
        "'app' expects 2 type parameters, got 1",
    ),
    (
        "pcf2ulc-turing",
        Con("tttt", None, (), ()),
        Con("tttt", None, (), (Var(0),)),
        "'tttt' expects 0 arguments, got 1",
    ),
    (
        "cpc2ipc-godel-gentzen",
        _implE(Var(0), Var(1)),
        _implE(Var(0), Var(1), inst=(P,)),
        "'implE' expects 2 type parameters, got 1",
    ),
    (
        "cpc2ipc-godel-gentzen",
        _implE(Var(0), Var(1)),
        _implE(Var(0)),
        "'implE' expects 2 arguments, got 1",
    ),
    (
        "pcf2ulc-turing",
        Con("tttt", None, (), ()),
        Con("tttt", 5, (), ()),
        "'tttt' is not family-indexed",
    ),
    (
        "pcf2ulc-turing",
        Con("nats", 3, (), ()),
        Con("nats", None, (), ()),
        "'nats' needs a family literal",
    ),
]


@pytest.mark.parametrize(
    "name, good, bad, message",
    _MALFORMED,
    ids=[
        "app-3-args",
        "app-1-arg",
        "app-1-param",
        "tttt-1-arg",
        "implE-1-param",
        "implE-1-arg",
        "tttt-literal",
        "nats-no-literal",
    ],
)
@pytest.mark.parametrize("opaque", [False, True], ids=["templates", "opaque"])
def test_malformed_nodes_are_rejected_as_infer_rejects_them(name, good, bad, message, opaque):
    """A node with the wrong number of type parameters or arguments, or a
    wrong family literal, fails with ``infer``'s message: at the root, and
    after a well-formed node of its arity has been translated in the same
    call."""
    x = get_translation(name)
    rep = _opaque_from_templates(x) if opaque else x
    if name == "pcf2ulc-turing":
        ctx, pair = (ObjType("arr", (BOOL, BOOL)), BOOL), _app(good, bad)
    else:
        ctx, pair = (imp(P, Q), P), Con("andI", None, (Q, Q), (good, bad))
    translate_term(rep, ctx, good)
    with pytest.raises(TypeCheckError) as err:
        infer(x.source, ctx, bad)
    assert err.value.message == message
    for term in (bad, pair):
        with pytest.raises(TypeCheckError) as err:
            translate_term(rep, ctx, term)
        assert err.value.message == message
