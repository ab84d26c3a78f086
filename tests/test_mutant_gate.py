"""The mutant gate: every engine mutant of ``mutants.py`` is killed.

``initsyn translate --using`` prints a builtin translation's output without
re-inferring it.  What the recheck guarded against, an engine that builds
the wrong term, is held here instead: each mutant must fail the check of
``test_generic_instances.CHECKS`` that its entry names, on the builtin
translations compiled under it, and the unmutated engine must pass every
check.  A mutant marked equivalent must pass every builtin check, and fail
its named check on ``test_placement``'s translation with placeholders at
several depths, which reaches what no builtin does.  No check goes through
the CLI's recheck: ``cli.infer`` raises while the gate runs.
"""

from __future__ import annotations

import random
import time

import pytest

from initsyn import cli, translate
from initsyn.objtypes import ObjType
from initsyn.terms import Con, Substitution, Var, substitute

from mutants import MUTANTS, applied
from test_generic_instances import CHECKS, fresh_translations, shift
from test_placement import _deep_translation, reference_translate

O = ObjType("o")


def deep_cases(seed: int = 23, count: int = 200) -> list[tuple]:
    """Seeded terms of ``test_placement``'s language L in contexts of 1-3
    variables: every arity, nested up to six deep, then as many of only
    ``fn`` and ``w``, four to seven deep, where unshifted arguments sit
    between shifted ones."""
    rng = random.Random(seed)

    def term(depth: int, fuel: int, rules: tuple[str, ...]):
        if fuel == 0 or rng.randrange(5) == 0:
            return Var(rng.randrange(depth))
        rule = rng.choice(rules)
        if rule in ("lam", "fn"):
            return Con(rule, None, (), (term(depth + 1, fuel - 1, rules),))
        if rule == "rep":
            return Con("rep", rng.randrange(4), (), (term(depth, fuel - 1, rules),))
        first = term(depth + (rule == "w"), fuel - 1, rules)
        return Con(rule, None, (), (first, term(depth, fuel - 1, rules)))

    out = []
    for rules, fuel in ((("lam", "ap", "rep", "fn", "w", "w"), (1, 6)), (("fn", "w", "w"), (4, 7))):
        for _ in range(count):
            depth = rng.randint(1, 3)
            out.append(((O,) * depth, term(depth, rng.randint(*fuel), rules)))
    return out


def check_deep_reference(x) -> str | None:
    for ctx, term in deep_cases():
        if translate.translate_term(x, ctx, term) != reference_translate(x, term):
            return f"{term}: differs from the bottom-up reference"
    return None


def check_deep_commutation(x) -> str | None:
    for ctx, term in deep_cases():
        sub = shift(ctx)
        star = (ObjType("*"),)
        sub_t = Substitution(star * len(ctx), star * len(sub.codomain), sub.images)
        lhs = translate.translate_term(x, sub.codomain, substitute(x.source, term, sub))
        if lhs != substitute(x.target, translate.translate_term(x, ctx, term), sub_t):
            return f"{term}: translating does not commute with σ"
    return None


NON_BUILTIN_CHECKS = {
    "reference agreement on the deep translation": check_deep_reference,
    "substitution commutation on the deep translation": check_deep_commutation,
}


def _failures(checks: dict, translations) -> dict[str, str]:
    """Each check's first failure on any of ``translations``; a raised
    exception is a failure."""
    out = {}
    for name, check in checks.items():
        for x in translations:
            try:
                failure = check(x)
            except Exception as exc:
                failure = f"raised {type(exc).__name__}: {exc}"
            if failure is not None:
                out[name] = f"{x.name}: {failure}"
                break
    return out


@pytest.fixture
def no_cli_recheck(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the gate must not go through the CLI's recheck")

    monkeypatch.setattr(cli, "infer", refused)


def test_the_unmutated_engine_passes_the_non_builtin_checks(no_cli_recheck):
    """It passes the builtin ones in ``test_generic_instances.py``."""
    assert _failures(NON_BUILTIN_CHECKS, [_deep_translation()]) == {}


def test_every_engine_mutant_is_killed_by_its_named_check(no_cli_recheck):
    """The kill matrix, mutant by mutant: the named check's first failure,
    or for an equivalent mutant, no builtin failure and the non-builtin
    kill.  The whole gate runs in at most 10 s."""
    start = time.perf_counter()
    originals = {name: getattr(translate, name) for name in vars(translate)}
    matrix = {}
    for mutant in MUTANTS:
        with applied(mutant):
            builtins = fresh_translations().values()
            if mutant.equivalent is None:
                checks = {mutant.killed_by: CHECKS[mutant.killed_by]}
                matrix[mutant.name] = _failures(checks, builtins)
            else:
                assert _failures(CHECKS, builtins) == {}, mutant.name
                checks = {mutant.killed_by: NON_BUILTIN_CHECKS[mutant.killed_by]}
                matrix[mutant.name] = _failures(checks, [_deep_translation()])
    survivors = [m.name for m in MUTANTS if m.killed_by not in matrix[m.name]]
    assert survivors == [], matrix
    assert {name: getattr(translate, name) for name in vars(translate)} == originals
    assert time.perf_counter() - start <= 10.0
