import random

import pytest

from initsyn.languages import get_language, get_translation
from initsyn.laws import GenConfig, GenFailure, gen_term, _case_term
from initsyn.objtypes import ObjType, ground_types, translate_type
from initsyn.signatures import TApp, TVar
from initsyn.surface import print_term
from initsyn.terms import Con, TypeCheckError, Var, context_extend, infer
from initsyn.translate import (
    OpaqueRepresentation,
    TplCon,
    TplMeta,
    TplVar,
    Translation,
    build_stability_witness,
    identity_translation,
    instantiate_template,
    retype_context,
    retype_inst,
    translate_term,
    validate_translation,
)

from oracles import gg_prop

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
        g = get_translation("cpc2ipc-godel-gentzen").type_map
        assert retype_inst(g, ()) == ()
        assert retype_inst(g, (P, BOT)) == (nn(P), nn(BOT))


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
        broken["topI"] = TplCon("topI", None, (), ())
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
        [(7, (), ()), (None, (TApp("Foo"),), ()), (None, (), (TplVar(0),))],
    )
    def test_hole_with_a_payload_rejected(self, lit, inst, args):
        x = get_translation("pcf2ulc-turing")
        hole = TplCon("__hole", lit, inst, args)
        step = TplCon("app", None, (), (TplVar(1), hole))
        body = TplCon("__iter", None, (), (step, TplVar(0)))
        nats = TplCon("abs", None, (), (TplCon("abs", None, (), (body,)),))
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
        from initsyn.signatures import TApp
        from initsyn.translate import STAB

        x = get_translation("cpc2ipc-godel-gentzen")
        orig = x.term_map["orE"]
        assert isinstance(orig, TplCon) and orig.name == STAB
        broken = dict(x.term_map)
        broken["orE"] = TplCon(STAB, None, (TApp("or", (TVar(1), TVar(2))),), orig.args)
        bad = Translation(x.name, x.source, x.target, x.type_map, broken, x.macros)
        report = validate_translation(bad)
        assert any("not double-negation stable" in e for e in report.entries)

    def test_stab_requires_stable_type_templates(self):
        from initsyn.objtypes import TypeTranslation
        from initsyn.signatures import TApp

        x = get_translation("cpc2ipc-godel-gentzen")
        weak = dict(x.type_map.templates)
        weak["or"] = TApp("or", (TVar(1), TVar(2)))  # or-images no longer stable
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

    @pytest.mark.parametrize("name", ["pcf2ulc-turing", "cpc2ipc-godel-gentzen"])
    def test_opaque_callback_sees_retyped_node_context(self, name):
        x = get_translation(name)
        seen = []

        def op(ar):
            def run(inst, ctx, args, lit):
                seen.append((ar.name, ctx))
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
