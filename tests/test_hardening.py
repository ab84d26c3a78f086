"""Adversarial checks: the validator's soundness claim under attack,
concurrency of the pure kernel, and engine behavior at the edges."""

import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from initsyn.languages import get_language, get_translation
from initsyn.laws import GenConfig, _case_term, check_monad_laws
from initsyn.objtypes import ObjType, TypeTranslation, translate_type
from initsyn.signatures import ArgSpec, TVar, TermArity, TypeSignature, TypedSignature
from initsyn.surface import parse_signature, parse_term, print_termfile
from initsyn.terms import Con, TypeCheckError, Var, infer
from initsyn.translate import (
    TplMeta,
    Translation,
    retype_context,
    translate_term,
    validate_translation,
)


def _stlc_to_stlc(term_map) -> Translation:
    stlc = get_language("STLC")
    from initsyn.objtypes import identity_type_translation

    return Translation(
        name="adversarial",
        source=stlc,
        target=stlc,
        type_map=identity_type_translation(stlc.all_types),
        term_map=term_map,
    )


def _stlc_identity_templates():
    return {
        "abs": Con("abs", None, (TVar(1), TVar(2)), (TplMeta(1),)),
        "app": Con("app", None, (TVar(1), TVar(2)), (TplMeta(1), TplMeta(2))),
    }


class TestValidatorSoundness:
    def test_identity_templates_validate(self):
        assert validate_translation(_stlc_to_stlc(_stlc_identity_templates())).ok

    def test_swapped_parameters_in_binder_rejected(self):
        tm = _stlc_identity_templates()
        # binder becomes $2 where the translated source binder is $1
        tm["abs"] = Con("abs", None, (TVar(2), TVar(1)), (TplMeta(1),))
        report = validate_translation(_stlc_to_stlc(tm))
        assert any("binder context mismatch" in e for e in report.entries)

    def test_extra_binder_inside_expected_segment_rejected(self):
        # a two-binder arity: the first binder is innermost, so a faithful
        # curried template binds the second parameter in the outer lambda
        ts = TypeSignature("Two", {"o": 0, "arr": 2})
        v1, v2, v3 = TVar(1), TVar(2), TVar(3)
        o = ObjType("o")
        sig = TypedSignature(
            types=ts,
            terms=(
                TermArity("lam", 2, (ArgSpec((v1,), v2),), ObjType("arr", (v1, v2))),
                TermArity(
                    "lam2",
                    3,
                    (ArgSpec((v1, v2), v3),),
                    ObjType("arr", (v2, ObjType("arr", (v1, v3)))),
                ),
            ),
        )
        from initsyn.objtypes import identity_type_translation

        good = {
            "lam": Con("lam", None, (v1, v2), (TplMeta(1),)),
            "lam2": Con(
                "lam",
                None,
                (v2, ObjType("arr", (v1, v3))),
                (Con("lam", None, (v1, v3), (TplMeta(1),)),),
            ),
        }
        x = Translation(
            "curried", sig, sig, identity_type_translation(sig.all_types), good
        )
        assert validate_translation(x).ok, str(validate_translation(x))

        # swapping the nesting order breaks which parameter is innermost
        swapped = dict(good)
        swapped["lam2"] = Con(
            "lam",
            None,
            (v1, ObjType("arr", (v2, v3))),
            (Con("lam", None, (v2, v3), (TplMeta(1),)),),
        )
        report = validate_translation(
            Translation("swapped", sig, sig, identity_type_translation(sig.all_types), swapped)
        )
        assert any("binder context mismatch" in e for e in report.entries)

        # a foreign binder wedged between the expected two is also caught
        wedged = dict(good)
        wedged["lam2"] = Con(
            "lam",
            None,
            (v2, ObjType("arr", (o, ObjType("arr", (v1, v3))))),
            (
                Con(
                    "lam",
                    None,
                    (o, ObjType("arr", (v1, v3))),
                    (Con("lam", None, (v1, v3), (TplMeta(1),)),),
                ),
            ),
        )
        report = validate_translation(
            Translation("wedged", sig, sig, identity_type_translation(sig.all_types), wedged)
        )
        assert any("binder context mismatch" in e for e in report.entries)

    def test_instantiation_dependent_template_rejected(self):
        # needs $1 = $2 to typecheck: fine at equal instantiations only
        tm = _stlc_identity_templates()
        tm["app"] = Con("app", None, (TVar(2), TVar(2)), (TplMeta(1), TplMeta(2)))
        report = validate_translation(_stlc_to_stlc(tm))
        assert not report.ok

    def test_template_variable_escaping_into_ambient_context_rejected(self):
        tm = _stlc_identity_templates()
        tm["app"] = Var(0)  # would capture whatever the context holds
        report = validate_translation(_stlc_to_stlc(tm))
        assert any("unbound template variable" in e for e in report.entries)

    def test_validated_translations_never_yield_ill_typed_output(self):
        # random probing of the soundness statement on a non-unityped target
        x = get_translation("cpc2ipc-godel-gentzen")
        cfg = GenConfig(seed=31, cases=1)
        for case in range(400):
            rng = random.Random(40_000 + case)
            ctx, term = _case_term(x.source, cfg, rng)
            out = translate_term(x, ctx, term)
            assert infer(
                x.target, retype_context(x.type_map, ctx), out
            ) == translate_type(x.type_map, infer(x.source, ctx, term))


class TestUnitypedValidationExactness:
    def test_concrete_binder_accepted_for_unityped_target(self):
        # the abs template's literal star binder must match the image of $1
        x = get_translation("pcf2ulc-turing")
        assert validate_translation(x).ok

    def test_same_template_rejected_for_two_typed_target(self):
        # identical shape, but the target now has two ground types, so a
        # concrete binder cannot stand for an arbitrary parameter image
        src = get_language("STLC")
        tgt_types = TypeSignature("Two", {"*": 0, "o": 0, "arr": 2})
        star = ObjType("*")
        tgt = TypedSignature(
            types=tgt_types,
            terms=(
                TermArity("abs", 2, (ArgSpec((TVar(1),), TVar(2)),), ObjType("arr", (TVar(1), TVar(2)))),
                TermArity("app", 2, (ArgSpec((), ObjType("arr", (TVar(1), TVar(2)))), ArgSpec((), TVar(1))), TVar(2)),
            ),
        )
        type_map = TypeTranslation(
            src.all_types, tgt.all_types, {"*": star, "arr": star}
        )
        term_map = {
            "abs": Con("abs", None, (star, star), (TplMeta(1),)),
            "app": Con("app", None, (star, star), (TplMeta(1), TplMeta(2))),
        }
        x = Translation("collapse", src, tgt, type_map, term_map)
        report = validate_translation(x)
        assert not report.ok


class TestConcurrency:
    def test_parallel_translation_matches_sequential(self):
        x = get_translation("pcf2ulc-turing")
        cfg = GenConfig(seed=32, cases=1)
        cases = []
        for case in range(60):
            rng = random.Random(50_000 + case)
            cases.append(_case_term(x.source, cfg, rng))
        sequential = [translate_term(x, ctx, t) for ctx, t in cases]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda ct: translate_term(x, ct[0], ct[1]), cases))
        assert sequential == parallel

    def test_parallel_law_reports_match(self):
        sigs = [get_language(n) for n in ("ULC", "PCF", "IPC")]
        cfg = GenConfig(seed=33, cases=100)
        sequential = [check_monad_laws(s, cfg) for s in sigs]
        with ThreadPoolExecutor(max_workers=3) as pool:
            parallel = list(pool.map(lambda s: check_monad_laws(s, cfg), sigs))
        assert sequential == parallel


class TestSpecExamples:
    def test_parsed_rec_equals_builtin_arity(self):
        text = """
        language PCF
        types { Nat : 0  Bool : 0  arr : 2 }
        terms { rec [1] : ([] arr($1,$1)) -> $1 }
        """
        assert parse_signature(text).arity("rec") == get_language("PCF").arity("rec")

    def test_parsed_abs_equals_builtin_stlc_arity(self):
        text = """
        language STLC
        types { * : 0  arr : 2 }
        terms { abs [2] : ([$1] $2) -> arr($1,$2) }
        """
        assert parse_signature(text).arity("abs") == get_language("STLC").arity("abs")

    def test_identity_translation_on_single_variable_file(self):
        ulc = get_language("ULC")
        from initsyn.translate import identity_translation

        ident = identity_translation(ulc)
        ctx, term = parse_term("context * ; #0", ulc)
        assert translate_term(ident, ctx, term) == Var(0)

    def test_deep_family_literal(self):
        pcf = get_language("PCF")
        x = get_translation("pcf2ulc-turing")
        term = Con("nats", 25, (), ())
        out = translate_term(x, (), term)
        assert infer(x.target, (), out) == ObjType("*")
        # 25 nested applications of the successor argument
        text = str(out)
        assert text.count("(app #1") == 25

    def test_round_trip_with_rich_context(self):
        pcf = get_language("PCF")
        nat, bool_ = ObjType("Nat"), ObjType("Bool")
        ctx = (ObjType("arr", (nat, ObjType("arr", (bool_, nat)))), nat)
        term = Var(1)
        text = print_termfile(pcf, ctx, term)
        assert parse_term(text, pcf) == (ctx, term)

    def test_weaken_rejects_unknown_constructor(self):
        pcf = get_language("PCF")
        with pytest.raises(TypeCheckError):
            from initsyn.terms import weaken

            weaken(pcf, Con("nope", None, (), ()), 0, 1)
