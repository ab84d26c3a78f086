"""Kernel calls leave no cyclic garbage, and pause automatic collection only
while they run (``terms.paused_gc``)."""

import gc
import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from initsyn.cli import main
from initsyn.languages import get_language, get_translation, list_builtins
from initsyn.laws import (
    GenConfig,
    GenFailure,
    _case_term,
    check_agreement,
    check_monad_laws,
    check_translation_laws,
    gen_substitution,
    gen_term,
)
from initsyn.objtypes import ObjType
from initsyn.surface import SourceError, parse_term, print_termfile
from initsyn.terms import Con, TypeCheckError, Var, infer, rename, substitute, weaken
from initsyn.translate import OpaqueRepresentation, instantiate_template, translate_term

from test_cli import xlat_file

LANGUAGES, TRANSLATIONS = list_builtins()
CFG = GenConfig(seed=3, cases=12, max_depth=6)


def _cases(sig, n=12):
    """``n`` drawn (context, term, substitution) cases of ``sig``."""
    rng = random.Random(7)
    out = []
    for _ in range(n):
        ctx, term = _case_term(sig, CFG, rng)
        out.append((ctx, term, gen_substitution(sig, ctx, CFG, rng)))
    return out


def _garbage(call) -> list[str]:
    """The types of what ``call()`` leaves for the cyclic collector, on a
    second call after a warm one."""
    call()
    gc.collect()
    saved = gc.get_debug()
    gc.set_debug(saved | gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
        return sorted({type(o).__qualname__ for o in gc.garbage})
    finally:
        gc.set_debug(saved)
        gc.garbage.clear()


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("lang", LANGUAGES)
def test_language_entry_points_leave_no_cyclic_garbage(lang, tmp_path):
    sig = get_language(lang)
    cases = _cases(sig)
    texts = [print_termfile(sig, ctx, term) for ctx, term, _ in cases]
    path = tmp_path / "case.term"
    path.write_text(texts[-1])
    calls = {
        "infer": lambda: [infer(sig, ctx, t) for ctx, t, _ in cases],
        "weaken": lambda: [weaken(sig, t, 1, 2) for _, t, _ in cases],
        "rename": lambda: [rename(sig, t, lambda i: i + 1) for _, t, _ in cases],
        "substitute": lambda: [substitute(sig, t, sub) for _, t, sub in cases],
        "parse_term": lambda: [parse_term(text, sig) for text in texts],
        "gen_term": lambda: [gen_term(sig, ctx, infer(sig, ctx, t), CFG) for ctx, t, _ in cases],
        "check_monad_laws": lambda: check_monad_laws(sig, CFG),
        "cli check": lambda: _cli(["check", "--lang", lang, str(path)]),
        "cli laws": lambda: _cli(["laws", "--lang", lang, "--cases", "12"]),
    }
    for name, call in calls.items():
        assert _garbage(call) == [], name


@pytest.mark.parametrize("name", TRANSLATIONS)
def test_translation_entry_points_leave_no_cyclic_garbage(name, tmp_path):
    x = get_translation(name)
    cases = _cases(x.source)
    path = tmp_path / "case.term"
    path.write_text(print_termfile(x.source, *cases[-1][:2]))
    calls = {
        "translate_term": lambda: [translate_term(x, ctx, t) for ctx, t, _ in cases],
        "check_translation_laws": lambda: check_translation_laws(x, CFG),
        "cli translate": lambda: _cli(["translate", "--using", name, str(path)]),
        "cli laws": lambda: _cli(["laws", "--translation", name, "--cases", "12"]),
    }
    for label, call in calls.items():
        assert _garbage(call) == [], label


def _each_entry_point():
    """One call of every paused entry point, each returning normally."""
    pcf, x = get_language("PCF"), get_translation("pcf2ulc-turing")
    ctx, term, sub = _cases(pcf, 1)[0]
    text = print_termfile(pcf, ctx, term)
    return {
        "infer": lambda: infer(pcf, ctx, term),
        "weaken": lambda: weaken(pcf, term, 0, 1),
        "rename": lambda: rename(pcf, term, lambda i: i),
        "substitute": lambda: substitute(pcf, term, sub),
        "translate_term": lambda: translate_term(x, ctx, term),
        "parse_term": lambda: parse_term(text, pcf),
        "gen_term": lambda: gen_term(pcf, ctx, None, CFG),
        "check_monad_laws": lambda: check_monad_laws(pcf, GenConfig(seed=1, cases=3)),
        "main": lambda: _cli(["lang", "list"]),
    }


def test_collection_is_on_again_after_each_entry_point_returns():
    for name, call in _each_entry_point().items():
        call()
        assert gc.isenabled(), name


def test_collection_is_on_again_after_a_type_error():
    pcf, x = get_language("PCF"), get_translation("pcf2ulc-turing")
    bad = Con("Succ", None, (), (Var(0),))
    for call in (
        lambda: infer(pcf, (), Var(0)),
        lambda: weaken(pcf, bad, 0, 1),
        lambda: substitute(pcf, Con("app", None, (), ()), _cases(pcf, 1)[0][2]),
        lambda: translate_term(x, (), bad),
    ):
        with pytest.raises(TypeCheckError):
            call()
        assert gc.isenabled()
    with pytest.raises(SourceError):
        parse_term("context ; (Succ #0)", pcf)
    assert gc.isenabled()


def test_collection_is_on_again_after_a_generation_failure():
    ipc = get_language("IPC")
    with pytest.raises(GenFailure):
        gen_term(ipc, (), ObjType("bot"), CFG)
    assert gc.isenabled()


def test_collection_is_on_again_after_too_deep_input_exits_2(tmp_path):
    # ``--xlat`` rechecks the output, and the recheck's ``infer`` cannot
    # follow nats{1000}'s translation; ``--using`` prints it
    path = tmp_path / "nats1000.term"
    path.write_text("context ; (nats{1000})")
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, out, err = _cli(["translate", "--xlat", xlat_file("pcf2ulc-turing"), str(path)])
    finally:
        sys.setrecursionlimit(saved)
    assert (code, out) == (2, "")
    assert err == "error: input too deep or too large (RecursionError)\n"
    assert gc.isenabled()


def test_a_caller_that_disabled_collection_finds_it_still_disabled():
    calls = _each_entry_point()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert not gc.isenabled(), name
        with pytest.raises(TypeCheckError):
            infer(get_language("PCF"), (), Var(0))
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_nested_call_leaves_collection_paused_until_the_outer_call_ends():
    pcf, x = get_language("PCF"), get_translation("pcf2ulc-turing")
    seen = []

    def f(i):
        weaken(pcf, Var(i), 0, 1)  # a nested paused call
        seen.append(gc.isenabled())
        return i

    nat = ObjType("Nat")
    ctx, term = (nat,), Con("app", None, (nat, nat), (Con("Succ", None, (), ()), Var(0)))
    rename(pcf, term, f)
    assert seen == [False] and gc.isenabled()

    def op(ar):
        def run(inst, ctx_t, args, lit):
            result = instantiate_template(x, ar, inst, args, lit)
            infer(x.target, ctx_t, result)  # a nested paused call
            seen.append(gc.isenabled())
            return result

        return run

    opaque = OpaqueRepresentation(
        "opaque", x.source, x.target, x.type_map, {ar.name: op(ar) for ar in x.source.terms}
    )
    seen.clear()
    assert translate_term(opaque, ctx, term) == translate_term(x, ctx, term)
    assert seen == [False, False] and gc.isenabled()


def test_law_checks_pause_per_case_so_callback_cycles_are_collected_between_cases():
    """An agreement oracle that makes cyclic garbage runs with collection
    paused, and the collector runs between cases, not only after the
    check."""
    x = get_translation("pcf2ulc-turing")
    seen, starts = [], []

    def oracle(ctx, term):
        seen.append(gc.isenabled())
        for _ in range(1000):
            cycle = []
            cycle.append(cycle)
        return translate_term(x, ctx, term)

    def count(phase, info):
        if phase == "start":
            starts.append(len(seen))

    gc.callbacks.append(count)
    try:
        report = check_agreement(x, oracle, GenConfig(seed=1, cases=5))
    finally:
        gc.callbacks.remove(count)
    assert report.passed and len(seen) == 5 and not any(seen)
    assert set(range(1, 5)) <= set(starts)
    assert gc.isenabled()
