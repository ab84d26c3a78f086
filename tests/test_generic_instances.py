"""Every arity of every builtin, checked once at its generic instance.

The initial morphism is a morphism of models because each arity's
representation is one (Hirschowitz & Maggesi, "Modules over monads and
initial semantics", 2010); by induction on terms, it is enough to check
each arity once, on arguments that stand for any argument.  For an arity C
at an instantiation and, for a family arity, a literal:

* Γ = (A_1, ..., A_n) holds C's argument types, and the term is
  ``C[inst](x_1, ..., x_n)``, where x_j = ``#(b_j + j - 1)`` points past
  its b_j binders to Γ's entry j;
* σ sends each ``#i`` of Γ to ``#(i + 1)`` in Δ = (D, A_1, ..., A_n), so a
  missing or extra weakening anywhere in a template changes the result.

Templates are syntactic, hence parametric in their arguments: passing at the
generic instance covers every argument at that instantiation and literal.
Instantiations are every tuple of nullary types, and each size-1 type in
each position with the other positions at the first nullary type; family
arities take the literals 0 to ``K``.  Two checks go beyond one level: the
translation's argument placement is checked on instances whose bound
arguments are a redex over their binder (``nested agreement``), and the
``__stab`` witness, which recurses on the type, at every type of
``test_translate._stable_types()``.

``CHECKS`` names each check of a translation; ``test_mutant_gate.py`` runs
them under the engine mutants of ``mutants.py``.  No check goes through the
CLI: each calls ``infer`` itself.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import cache
from itertools import product
from pathlib import Path

import initsyn
from initsyn import translate
from initsyn.languages import get_language, get_translation, list_builtins, load_translation
from initsyn.objtypes import ObjType, eval_type_expr, ground_types, translate_type
from initsyn.terms import (
    Con, Substitution, Var, _arity_types, identity_substitution, infer, substitute, weaken
)

from oracles import cpc_to_ipc, gg_or_elim, pcf_to_ulc, theta_term, y_term
from test_translate import _stable_types

K = 5  # family arities are checked at the literals 0..K
LANGUAGES = list_builtins()[0]
TRANSLATIONS = list_builtins()[1]
ORACLES = {
    "pcf2ulc-turing": pcf_to_ulc(theta_term()),
    "pcf2ulc-curry": pcf_to_ulc(y_term()),
    "cpc2ipc-godel-gentzen": cpc_to_ipc,
}
# per source language: the arities that make a redex ``(elim (intro x) #0)``
REDEX = {"PCF": ("abs", "app"), "CPC": ("implI", "implE")}


def instantiations(sig, degree: int) -> list[tuple[ObjType, ...]]:
    grounds = ground_types(sig.all_types, 2)
    nullary = [t for t in grounds if not t.args]
    size1 = [t for t in grounds if t.args]
    out = dict.fromkeys(product(nullary, repeat=degree))
    for k in range(degree):
        for t in size1:
            out[(nullary[0],) * k + (t,) + (nullary[0],) * (degree - k - 1)] = None
    return list(out)


@cache
def generic_instances(name: str) -> tuple[tuple, ...]:
    """(arity, Γ, binders, term) for every generic instance of language
    ``name``'s arities."""
    sig = get_language(name)
    out = []
    for ar in sig.terms:
        for inst in instantiations(sig, ar.degree):
            binders, bodies, _ = _arity_types(ar, lambda e: eval_type_expr(inst, e))
            args = tuple(Var(len(b) + j) for j, b in enumerate(binders))
            for lit in range(K + 1) if ar.family_index else (None,):
                out.append((ar, bodies, binders, Con(ar.name, lit, inst, args)))
    return tuple(out)


def shift(ctx) -> Substitution:
    """σ: ``#i`` of ``ctx`` to ``#(i + 1)``, past a new first entry of
    ``ctx``'s first type (none when ``ctx`` is empty)."""
    return Substitution(ctx, ctx[:1] + ctx, tuple(Var(i + 1) for i in range(len(ctx))))


def _first_failure(cases, check) -> str | None:
    """The first case for which ``check`` returns a detail or raises."""
    for case in cases:
        try:
            detail = check(*case)
        except Exception as exc:  # an engine mutant may raise anything
            detail = f"raised {type(exc).__name__}: {exc}"
        if detail is not None:
            return f"{case[-1]} in context [{' '.join(map(str, case[1]))}]: {detail}"
    return None


# ---------------------------------------------------------------------------
# The checks of a translation, each giving its first failure or None.  They
# call the engine through its module, where ``mutants.applied`` rebinds it.


def check_variable_clause(x) -> str | None:
    def check(ar, ctx, binders, term):
        for i in range(len(ctx)):
            if translate.translate_term(x, ctx, Var(i)) != Var(i):
                return f"#{i} is not its own image"
        return None

    return _first_failure(generic_instances(x.source.name), check)


def check_type_preservation(x) -> str | None:
    def check(ar, ctx, binders, term):
        out = translate.translate_term(x, ctx, term)
        want = translate_type(x.type_map, infer(x.source, ctx, term))
        got = infer(x.target, translate.retype_context(x.type_map, ctx), out)
        return None if got == want else f"expected {want}, found {got}"

    return _first_failure(generic_instances(x.source.name), check)


def check_substitution_commutation(x) -> str | None:
    def check(ar, ctx, binders, term):
        sub = shift(ctx)
        lhs = translate.translate_term(x, sub.codomain, substitute(x.source, term, sub))
        sub_t = Substitution(
            translate.retype_context(x.type_map, ctx),
            translate.retype_context(x.type_map, sub.codomain),
            tuple(translate.translate_term(x, sub.codomain, img) for img in sub.images),
        )
        rhs = substitute(x.target, translate.translate_term(x, ctx, term), sub_t)
        return None if lhs == rhs else "translating does not commute with σ"

    return _first_failure(generic_instances(x.source.name), check)


def check_oracle_agreement(x) -> str | None:
    oracle = ORACLES[x.name]

    def check(ar, ctx, binders, term):
        ok = translate.translate_term(x, ctx, term) == oracle(ctx, term)
        return None if ok else "differs from the oracle"

    return _first_failure(generic_instances(x.source.name), check)


def nested_instances(name: str) -> list[tuple]:
    """The generic instances whose arguments have binders, with each such
    argument x replaced by the redex ``(elim (intro x') #0)``: x' is x
    under the intro's binder, and ``#0`` is the argument's innermost
    binder.  So a node inside a placed argument meets a variable bound
    inside the same argument."""
    intro, elim = REDEX[name]
    out = []
    for ar, ctx, binders, term in generic_instances(name):
        if not any(binders):
            continue
        args = []
        for (bs, body), a in zip(zip(binders, ctx), term.args):
            if bs:
                fn = Con(intro, None, (bs[0], body), (weaken(get_language(name), a, 0, 1),))
                a = Con(elim, None, (bs[0], body), (fn, Var(0)))
            args.append(a)
        out.append((ar, ctx, binders, Con(term.name, term.lit, term.inst, tuple(args))))
    return out


def check_nested_agreement(x) -> str | None:
    oracle = ORACLES[x.name]

    def check(ar, ctx, binders, term):
        out = translate.translate_term(x, ctx, term)
        if out != oracle(ctx, term):
            return "differs from the oracle"
        want = translate_type(x.type_map, infer(x.source, ctx, term))
        got = infer(x.target, translate.retype_context(x.type_map, ctx), out)
        return None if got == want else f"expected {want}, found {got}"

    return _first_failure(nested_instances(x.source.name), check)


def check_stab_types(x) -> str | None:
    """``orE``'s template, whose root is a ``__stab``, instantiated at
    ``or(p', q')`` and every stable result type, on generic arguments: it
    must have that type, agree with the oracle, and commute with σ.  Each
    case shows as the ``orE`` node of the translated instantiation and the
    arguments."""
    if x.name != "cpc2ipc-godel-gentzen":
        return None
    ar = x.source.arity("orE")

    def check(ar, ctx, binders, node):
        inst, args = node.inst, node.args
        out = translate.instantiate_template(x, ar, inst, args)
        if infer(x.target, ctx, out) != inst[2]:
            return f"not of type {inst[2]}"
        if out != gg_or_elim(*inst, *args):
            return "differs from the oracle"
        moved = tuple(Var(v.index + 1) for v in args)
        if translate.instantiate_template(x, ar, inst, moved) != substitute(x.target, out, shift(ctx)):
            return "does not commute with σ"
        return None

    a, b = (translate_type(x.type_map, ObjType(n)) for n in ("p", "q"))
    cases = []
    for c in _stable_types():
        inst = (a, b, c)
        binders, bodies, _ = translate._arity_images(x, ar, inst)
        args = tuple(Var(len(bs) + j) for j, bs in enumerate(binders))
        cases.append((ar, bodies, binders, Con("orE", None, inst, args)))
    return _first_failure(cases, check)


CHECKS = {
    "variable clause": check_variable_clause,
    "type preservation": check_type_preservation,
    "substitution commutation": check_substitution_commutation,
    "oracle agreement": check_oracle_agreement,
    "nested agreement": check_nested_agreement,
    "__stab at every stable type": check_stab_types,
}


def fresh_translations() -> dict:
    """Each builtin translation loaded anew from its ``.xlat`` file, so that
    it is compiled by the engine as it is now."""
    data = Path(initsyn.__file__).parent / "data"
    return {
        name: load_translation((data / f"{name}.xlat").read_text(encoding="utf-8"))
        for name in TRANSLATIONS
    }


# ---------------------------------------------------------------------------
# Tests


def test_instances_cover_every_arity_of_every_builtin():
    """The case count per arity is pinned; ``EM`` and ``orE`` (so
    ``__stab``) are among them."""
    counts = {
        name: dict(Counter(ar.name for ar, *_ in generic_instances(name))) for name in LANGUAGES
    }
    deg2 = {n: 175 for n in ("andI", "andE1", "andE2", "implI", "implE", "orI1", "orI2")}
    ipc = {"topI": 1, "botI": 80, **deg2, "orE": 350}
    assert counts == {
        "CPC": {**ipc, "EM": 80},
        "IPC": ipc,
        "PCF": {
            "app": 12, "abs": 12, "rec": 6, "tttt": 1, "ffff": 1, "nats": K + 1, "Succ": 1,
            "Pred": 1, "Zero": 1, "CondN": 1, "CondB": 1, "bottom": 6,
        },
        "STLC": {"abs": 3, "app": 3},
        "ULC": {"abs": 1, "app": 1},
    }
    for name in LANGUAGES:
        assert {ar.name for ar in get_language(name).terms} == set(counts[name])
    for x in map(get_translation, TRANSLATIONS):
        assert x.source.name in REDEX and x.name in ORACLES


def test_nested_instances_reach_every_binder_position():
    """orE's two bound arguments and implI's body, and PCF's abs body."""
    seen = {(t.name, j) for name in REDEX for _, _, _, t in nested_instances(name)
            for j, a in enumerate(t.args) if type(a) is Con}
    assert seen == {("orE", 1), ("orE", 2), ("implI", 0), ("abs", 0)}


def monad_law_failure(name: str) -> str | None:
    """Right unit, left unit, associativity of two shifts and type
    preservation, at every generic instance of language ``name``; these
    reach ``_map``'s binder counts for every arity shape of the builtins."""
    sig = get_language(name)

    def check(ar, ctx, binders, term):
        sigma = shift(ctx)
        rho = shift(sigma.codomain)
        if substitute(sig, term, identity_substitution(ctx)) != term:
            return "right unit"
        for i, img in enumerate(sigma.images):
            if substitute(sig, Var(i), sigma) != img:
                return f"left unit at #{i}"
        composed = Substitution(
            ctx, rho.codomain, tuple(substitute(sig, img, rho) for img in sigma.images)
        )
        once = substitute(sig, term, sigma)
        if substitute(sig, once, rho) != substitute(sig, term, composed):
            return "associativity"
        return None if infer(sig, sigma.codomain, once) == infer(sig, ctx, term) else "type preservation"

    return _first_failure(generic_instances(name), check)


def test_every_check_passes_at_every_arity_in_under_two_seconds():
    """Every check of every translation, compiled afresh as the mutant
    gate compiles it, and the monad laws of every signature."""
    start = time.perf_counter()
    failures = {
        (x.name, name): check(x)
        for x in fresh_translations().values()
        for name, check in CHECKS.items()
    }
    failures.update({(name, "monad laws"): monad_law_failure(name) for name in LANGUAGES})
    assert {case: failure for case, failure in failures.items() if failure} == {}
    assert time.perf_counter() - start < 2.0
