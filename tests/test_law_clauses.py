"""Every clause of both law checks reports a counterexample by comparison.

Each mutant below breaks one law and keeps the clauses checked before it,
and the terms it builds well typed, so the check's report names that
clause and no exception ends it.  The monad-law mutants are substitutions
passed as ``substitute_fn``; the translation mutants stand in for
``laws.translate_term`` or are an ``OpaqueRepresentation``.
"""

from __future__ import annotations

import pytest

from initsyn import laws
from initsyn.languages import get_language, get_translation
from initsyn.laws import GenConfig, check_monad_laws, check_translation_laws
from initsyn.objtypes import ObjType
from initsyn.terms import Con, Var, _map, infer, substitute, weaken
from initsyn.translate import (
    OpaqueRepresentation,
    instantiate_template,
    retype_context,
    translate_term,
)

from test_laws import _broken_substitute

BOOL = ObjType("Bool")


def _is_identity(sub) -> bool:
    return sub.codomain == sub.domain and all(
        type(img) is Var and img.index == i for i, img in enumerate(sub.images)
    )


def kept_variable_substitute(sig, term, sub):
    """A bare variable is returned as it is, not as its image."""
    return term if type(term) is Var else substitute(sig, term, sub)


def unweakened_image_substitute(sig, term, sub):
    """Under a binder, a variable image is shifted past it but a compound
    image is put in unweakened."""
    images = sub.images

    def on_var(v: Var, depth: int):
        if v.index < depth:
            return v
        img = images[v.index - depth]
        return Var(img.index + depth) if type(img) is Var else img

    return _map(sig, term, on_var)


def retyped_bottom_substitute(sig, term, sub):
    """A substitution that is not the identity leaves a ``bottom`` at the
    root of a compound term at type ``Bool``; everything else is right."""
    out = substitute(sig, term, sub)
    if type(term) is Var or _is_identity(sub) or type(out) is not Con or out.name != "bottom":
        return out
    return Con("bottom", None, (BOOL,), ())


MONAD_MUTANTS = [
    ("left unit", "ULC", kept_variable_substitute),
    ("right unit", "ULC", _broken_substitute),
    ("associativity", "PCF", unweakened_image_substitute),
    ("type preservation", "PCF", retyped_bottom_substitute),
]


def _clause(report) -> str:
    """The clause a report's counterexample names."""
    assert not report.passed and report.counterexample is not None, str(report)
    assert " | raised " not in report.counterexample, report.counterexample
    return report.counterexample.split(": ", 1)[0].split(" (", 1)[1].rstrip(")")


@pytest.mark.parametrize("law, language, mutant", MONAD_MUTANTS, ids=[m[0] for m in MONAD_MUTANTS])
def test_each_monad_law_fires_by_comparison(law, language, mutant):
    report = check_monad_laws(get_language(language), GenConfig(seed=1, cases=2000), mutant)
    assert _clause(report) == law
    assert str(report).splitlines()[1].startswith(f"  counterexample: case {report.cases_run - 1} ({law}): ")


def wrong_variable_image(x, ctx, term):
    """``#i`` goes to ``#(i + 1)``."""
    if type(term) is Var:
        return Var(term.index + 1)
    return translate_term(x, ctx, term)


def shifted_image(x, ctx, term):
    """Every free ``#i`` of a compound image moved up by one, past a
    vacuous ``implI [top, A]`` that keeps the image well typed at
    ``impl(top, A)`` instead of ``A``."""
    out = translate_term(x, ctx, term)
    if type(term) is Var:
        return out
    ty = infer(x.target, retype_context(x.type_map, ctx), out)
    return Con("implI", None, (ObjType("top"), ty), (weaken(x.target, out, 0, 1),))


def dropped_weakening(x):
    """``x`` as callbacks, but ``abs`` puts its translated body under a
    second ``abs`` without weakening it past that binder."""

    def op(ar):
        if ar.name == "abs":
            return lambda inst, ctx, args, lit: Con("abs", None, (), (Con("abs", None, (), args),))
        return lambda inst, ctx, args, lit: instantiate_template(x, ar, inst, args, lit)

    return OpaqueRepresentation(
        "dropped-weakening", x.source, x.target, x.type_map, {ar.name: op(ar) for ar in x.source.terms}
    )


def test_the_variable_clause_fires_by_comparison(monkeypatch):
    monkeypatch.setattr(laws, "translate_term", wrong_variable_image)
    report = check_translation_laws(get_translation("pcf2ulc-turing"), GenConfig(seed=1, cases=200))
    assert _clause(report) == "variable clause"
    assert report.counterexample.endswith(" | at #0")


def test_translated_type_preservation_fires_by_comparison(monkeypatch):
    monkeypatch.setattr(laws, "translate_term", shifted_image)
    x = get_translation("cpc2ipc-godel-gentzen")
    report = check_translation_laws(x, GenConfig(seed=2, cases=2000))
    assert _clause(report) == "type preservation"
    detail = report.counterexample.rpartition(" | ")[2]
    assert detail.startswith("expected ") and ", found impl(top," in detail


def test_substitution_commutation_fires_by_comparison():
    x = dropped_weakening(get_translation("pcf2ulc-turing"))
    report = check_translation_laws(x, GenConfig(seed=1, cases=2000))
    assert _clause(report) == "substitution commutation"


def variable_inspecting(x):
    """``x`` as callbacks, except that ``app`` inspects its arguments: when
    one is a variable, the node it builds is put under an identity redex,
    ``(app (abs #0) node)``, which is well typed wherever the node is.
    Such a representation is not natural in its arguments."""

    def op(ar):
        def built(inst, ctx, args, lit):
            out = instantiate_template(x, ar, inst, args, lit)
            if ar.name == "app" and any(type(a) is Var for a in args):
                return Con("app", None, (), (Con("abs", None, (), (Var(0),)), out))
            return out

        return built

    ops = {ar.name: op(ar) for ar in x.source.terms}
    return OpaqueRepresentation("variable-inspecting", x.source, x.target, x.type_map, ops)


def test_a_callback_that_inspects_its_arguments_fails_substitution_commutation():
    """The variable clause and type preservation hold, but substituting a
    compound image for a variable argument changes what the callback
    builds, so the check reports substitution commutation by comparison."""
    x = variable_inspecting(get_translation("pcf2ulc-turing"))
    report = check_translation_laws(x, GenConfig(seed=1, cases=2000))
    assert _clause(report) == "substitution commutation"
