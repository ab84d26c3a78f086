import random

import pytest

from initsyn.languages import get_language, get_translation
from initsyn.laws import (
    GenConfig,
    GenFailure,
    check_agreement,
    check_monad_laws,
    check_translation_laws,
    gen_context,
    gen_substitution,
    gen_term,
)
from initsyn.objtypes import ObjType
from initsyn.signatures import TVar
from initsyn.terms import Con, Term, Var, check, infer, substitute, weaken
from initsyn.translate import identity_translation, translate_term

STAR = ObjType("*")


def test_genconfig_invariants():
    with pytest.raises(ValueError):
        GenConfig(seed=1, cases=0)
    with pytest.raises(ValueError):
        GenConfig(seed=1, max_depth=0)


def test_generated_terms_typecheck():
    ulc = get_language("ULC")
    cfg = GenConfig(seed=1, cases=1)
    rng = random.Random(1)
    for _ in range(100):
        term = gen_term(ulc, (STAR,), None, cfg, rng=rng)
        infer(ulc, (STAR,), term)


def test_fixed_seed_reproduces_terms():
    pcf = get_language("PCF")
    cfg = GenConfig(seed=42, cases=1)
    first = gen_term(pcf, (), None, cfg)
    second = gen_term(pcf, (), None, cfg)
    assert first == second


def test_goal_directed_generation():
    pcf = get_language("PCF")
    cfg = GenConfig(seed=2, cases=1)
    nat = ObjType("Nat")
    term = gen_term(pcf, (), nat, cfg)
    assert infer(pcf, (), term) == nat


def test_closed_absurdity_is_a_generation_failure():
    cpc = get_language("CPC")
    cfg = GenConfig(seed=3, cases=1, max_depth=3, retries=2)
    with pytest.raises(GenFailure):
        gen_term(cpc, (), ObjType("bot"), cfg)


def test_substitution_generation_is_welltyped():
    pcf = get_language("PCF")
    cfg = GenConfig(seed=4, cases=1)
    rng = random.Random(4)
    for _ in range(50):
        ctx = gen_context(pcf, cfg, rng)
        sub = gen_substitution(pcf, ctx, cfg, rng)
        sub.validate(pcf)


def test_monad_laws_pass_on_builtins_smoke():
    for name in ("ULC", "PCF", "IPC"):
        report = check_monad_laws(get_language(name), GenConfig(seed=1, cases=300))
        assert report.passed, str(report)
        assert report.cases_skipped == 0


def _broken_substitute(sig, term: Term, sub) -> Term:
    """Forgets to shift images when passing under a binder."""

    def go(t: Term, images) -> Term:
        if isinstance(t, Var):
            return images[t.index]
        ar = sig.arity(t.name)
        new_args = tuple(
            go(
                a,
                tuple(Var(i) for i in range(len(spec.binders)))
                + tuple(images),  # missing weaken on the images
            )
            for spec, a in zip(ar.args, t.args)
        )
        return Con(t.name, t.lit, t.inst, new_args)

    return go(term, sub.images)


def test_broken_substitute_is_caught():
    report = check_monad_laws(
        get_language("ULC"),
        GenConfig(seed=1, cases=2000),
        substitute_fn=_broken_substitute,
    )
    assert report.counterexample is not None


def test_counterexample_replays():
    ulc = get_language("ULC")
    cfg = GenConfig(seed=1, cases=2000)
    first = check_monad_laws(ulc, cfg, substitute_fn=_broken_substitute)
    second = check_monad_laws(ulc, cfg, substitute_fn=_broken_substitute)
    assert first == second
    assert first.counterexample is not None


def test_reports_are_deterministic():
    pcf = get_language("PCF")
    cfg = GenConfig(seed=77, cases=200)
    assert check_monad_laws(pcf, cfg) == check_monad_laws(pcf, cfg)
    x = get_translation("pcf2ulc-turing")
    assert check_translation_laws(x, cfg) == check_translation_laws(x, cfg)


def test_translation_laws_smoke():
    for name in ("pcf2ulc-turing", "pcf2ulc-curry", "cpc2ipc-godel-gentzen"):
        report = check_translation_laws(
            get_translation(name), GenConfig(seed=1, cases=200)
        )
        assert report.passed, str(report)


def test_identity_translation_lawful():
    ulc = get_language("ULC")
    ident = identity_translation(ulc)
    report = check_translation_laws(ident, GenConfig(seed=5, cases=200))
    assert report.passed, str(report)


def test_agreement_reflexivity_control():
    x = get_translation("pcf2ulc-turing")
    oracle = lambda ctx, term: translate_term(x, ctx, term)
    report = check_agreement(x, oracle, GenConfig(seed=6, cases=200))
    assert report.passed and report.counterexample is None


def test_agreement_detects_divergence():
    x = get_translation("pcf2ulc-turing")
    y = get_translation("pcf2ulc-curry")
    oracle = lambda ctx, term: translate_term(y, ctx, term)
    report = check_agreement(x, oracle, GenConfig(seed=6, cases=2000))
    assert report.counterexample is not None  # rec terms eventually differ


def test_skip_gate():
    from initsyn.laws import LawReport

    assert not LawReport("x", 4, 6, None, 1).passed
    assert LawReport("x", 6, 4, None, 1).passed
    assert not LawReport("x", 10, 0, "boom", 1).passed


def test_generation_tables_do_not_keep_a_signature_alive():
    import gc
    import weakref

    from initsyn.laws import _case_term, _sig_cache
    from initsyn.surface import parse_signature, print_signature

    sig = parse_signature(print_signature(get_language("PCF")))
    _case_term(sig, GenConfig(seed=5, cases=1), random.Random(5))
    key = id(sig)
    assert key in _sig_cache
    alive = weakref.ref(sig)
    del sig
    gc.collect()
    assert alive() is None
    assert key not in _sig_cache


def _reference_match(expr, goal, binding) -> bool:
    """First-order matching as the generator did it node by node."""
    if isinstance(expr, TVar):
        k = expr.index - 1
        if binding[k] is None:
            binding[k] = goal
            return True
        return binding[k] is goal
    if expr.name != goal.name or len(expr.args) != len(goal.args):
        return False
    return all(_reference_match(e, g, binding) for e, g in zip(expr.args, goal.args))


MATCH_SHAPES = """language M
atoms { p q }
types { f : 2  g : 1 }
terms {
  swap [2] : () -> f($2,$1)
  diag [1] : () -> f($1,$1)
  deep [3] : () -> f(g($1),f($3,p))
  extra [3] : () -> g($2)
  closed [0] : () -> f(p,g(q))
  any [2] : () -> $2
}
"""


def test_compiled_matchers_agree_with_matching():
    """Each arity's compiled matcher fixes exactly the parameters, and
    rejects exactly the goals, that matching its result does; it leaves a
    parameter free, in a list, only where matching does."""
    from initsyn.laws import _compile_arity
    from initsyn.objtypes import ground_types
    from initsyn.surface import parse_signature

    sigs = [get_language(n) for n in ("ULC", "PCF", "STLC", "IPC", "CPC")]
    sigs.append(parse_signature(MATCH_SHAPES))
    for sig in sigs:
        goals = ground_types(sig.all_types, 3)
        for ar in sig.terms:
            cand = _compile_arity(ar)
            for goal in goals:
                binding = [None] * ar.degree
                expected = binding if _reference_match(ar.result, goal, binding) else None
                got = cand.bind(goal)
                assert (None if got is None else list(got)) == expected, (ar.name, str(goal))
                if got is not None:
                    assert isinstance(got, tuple) == (None not in expected)
