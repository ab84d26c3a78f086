"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the
per-criterion pass lines).
"""

import random
import time

from initsyn.languages import get_language, get_translation, list_builtins
from initsyn.laws import (
    GenConfig,
    _case_term,
    check_agreement,
    check_monad_laws,
    check_translation_laws,
)
from initsyn.objtypes import ObjType, translate_type
from initsyn.signatures import TypedSignature
from initsyn.surface import (
    SourceError,
    parse_signature,
    parse_term,
    parse_translation,
    print_signature,
    print_term,
    print_termfile,
    print_translation,
)
from initsyn.terms import Con, Var, infer
from initsyn.translate import retype_context, translate_term

from oracles import cpc_to_ipc, gg_prop, pcf_to_ulc, theta_term, y_term

GOLDEN = "Abs (Abs (Abs (Abs (3 @ 2 @ 1))) @ 1 @ Abs (Abs 1) @ Abs (Abs 2))"
THETA = "Abs (Abs (1 @ (2 @ 2 @ 1))) @ Abs (Abs (1 @ (2 @ 2 @ 1)))"
YCOMB = "Abs (Abs (2 @ (1 @ 1)) @ Abs (2 @ (1 @ 1)))"


def _report(n: int, label: str) -> None:
    print(f"criterion {n} ({label}): PASS")


def _negation_source() -> Con:
    bool_ = ObjType("Bool")
    arr = lambda a, b: ObjType("arr", (a, b))
    app = lambda i, f, a: Con("app", None, i, (f, a))
    return Con(
        "abs",
        None,
        (bool_, bool_),
        (
            app(
                (bool_, bool_),
                app(
                    (bool_, arr(bool_, bool_)),
                    app(
                        (bool_, arr(bool_, arr(bool_, bool_))),
                        Con("CondB", None, (), ()),
                        Var(0),
                    ),
                    Con("ffff", None, (), ()),
                ),
                Con("tttt", None, (), ()),
            ),
        ),
    )


def test_criterion_1_golden_translation():
    start = time.monotonic()
    x = get_translation("pcf2ulc-turing")
    source = _negation_source()
    out = translate_term(x, (), source)
    printed = print_term(x.target, (), out, style="paper")
    assert printed == GOLDEN
    assert time.monotonic() - start < 1.0
    _report(1, "golden translation")


def test_criterion_2_golden_combinators():
    start = time.monotonic()
    ulc = get_language("ULC")
    theta = get_translation("pcf2ulc-turing").macros["Theta"]
    y = get_translation("pcf2ulc-curry").macros["Y"]
    assert print_term(ulc, (), theta, style="paper") == THETA
    assert print_term(ulc, (), y, style="paper") == YCOMB
    assert time.monotonic() - start < 1.0
    _report(2, "golden combinators")


def test_criterion_3_monad_laws():
    start = time.monotonic()
    for name in ("ULC", "PCF", "IPC"):
        cfg = GenConfig(seed=1, cases=10_000, max_depth=6)
        report = check_monad_laws(get_language(name), cfg)
        assert report.counterexample is None, str(report)
        total = report.cases_run + report.cases_skipped
        assert report.cases_skipped <= total // 10, str(report)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(3, "monad laws, 10000 cases per language")


def test_criterion_4_translation_square():
    start = time.monotonic()
    for name in list_builtins()[1]:
        cfg = GenConfig(seed=2, cases=2_000, max_depth=6)
        report = check_translation_laws(get_translation(name), cfg)
        assert report.counterexample is None, str(report)
        assert report.passed, str(report)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(4, "translation square, 2000 cases per translation")


def test_criterion_5_provability_transport():
    gg = get_translation("cpc2ipc-godel-gentzen")
    cpc, ipc = gg.source, gg.target
    cfg = GenConfig(seed=3, cases=1, max_depth=6)
    failures = 0
    for case in range(2_000):
        rng = random.Random(10_000 + case)
        ctx, proof = _case_term(cpc, cfg, rng)
        image = translate_term(gg, ctx, proof)
        want = translate_type(gg.type_map, infer(cpc, ctx, proof))
        got = infer(ipc, retype_context(gg.type_map, ctx), image)
        if got != want:
            failures += 1
    assert failures == 0
    _report(5, "provability transport, 2000 classical proofs")


def test_criterion_6_uniqueness_by_agreement():
    cfg = GenConfig(seed=4, cases=2_000, max_depth=6)
    turing = check_agreement(
        get_translation("pcf2ulc-turing"), pcf_to_ulc(theta_term()), cfg
    )
    assert turing.counterexample is None, str(turing)
    assert turing.passed
    gg = check_agreement(get_translation("cpc2ipc-godel-gentzen"), cpc_to_ipc, cfg)
    assert gg.counterexample is None, str(gg)
    assert gg.passed
    _report(6, "uniqueness by agreement, 2000 cases per oracle")


def test_criterion_7_godel_gentzen_type_map():
    g = get_translation("cpc2ipc-godel-gentzen").type_map
    rng = random.Random(5)
    leaves = [ObjType(n) for n in ("p", "q", "r", "top", "bot")]

    def prop(depth):
        if depth == 0 or rng.random() < 0.25:
            return rng.choice(leaves)
        return ObjType(
            rng.choice(["and", "or", "impl"]), (prop(depth - 1), prop(depth - 1))
        )

    for _ in range(1_000):
        t = prop(4)
        assert translate_type(g, t) == gg_prop(t)

    p, q, bot = ObjType("p"), ObjType("q"), ObjType("bot")
    imp = lambda a, b: ObjType("impl", (a, b))
    pg = imp(imp(p, bot), bot)
    qg = imp(imp(q, bot), bot)
    assert translate_type(g, p) == pg
    assert translate_type(g, ObjType("and", (p, q))) == ObjType("and", (pg, qg))
    assert translate_type(g, ObjType("or", (p, q))) == imp(
        ObjType("and", (imp(pg, bot), imp(qg, bot))), bot
    )
    assert translate_type(g, bot) == imp(imp(bot, bot), bot)
    _report(7, "double negation type map, 1000 propositions and spot values")


def test_criterion_8_round_trips_and_fuzz():
    languages, translations = list_builtins()
    for name in languages:
        sig = get_language(name)
        assert parse_signature(print_signature(sig)) == sig
    for name in translations:
        x = get_translation(name)
        assert parse_translation(print_translation(x), x.source, x.target) == x

    for name in languages:
        sig = get_language(name)
        cfg = GenConfig(seed=6, cases=1, max_depth=6)
        for case in range(1_000):
            rng = random.Random(20_000 + case)
            ctx, term = _case_term(sig, cfg, rng)
            assert parse_term(print_termfile(sig, ctx, term), sig) == (ctx, term)

    pcf, ulc = get_language("PCF"), get_language("ULC")
    rng = random.Random(7)
    alphabet = "abcdefgh ()[]{}<>,;:$#?*->=0123456789\n\t_"
    for case in range(10_000):
        n = rng.randint(0, 50)
        if rng.random() < 0.3:
            text = bytes(rng.randrange(256) for _ in range(n)).decode("latin-1")
        else:
            text = "".join(rng.choice(alphabet) for _ in range(n))
        for run in (
            lambda: parse_signature(text),
            lambda: parse_term(text, pcf),
            lambda: parse_translation(text, pcf, ulc),
        ):
            try:
                run()
            except SourceError:
                pass
    _report(8, "round trips and 10000-case fuzz")


def test_criterion_9_curry_turing_separation():
    turing = get_translation("pcf2ulc-turing")
    curry = get_translation("pcf2ulc-curry")
    pcf = get_language("PCF")
    norec = TypedSignature(
        types=pcf.types,
        terms=tuple(ar for ar in pcf.terms if ar.name != "rec"),
        atoms=pcf.atoms,
    )
    cfg = GenConfig(seed=8, cases=1, max_depth=6)
    for case in range(2_000):
        rng = random.Random(30_000 + case)
        ctx, term = _case_term(norec, cfg, rng)
        assert translate_term(turing, ctx, term) == translate_term(curry, ctx, term)

    nat = ObjType("Nat")
    with_rec = Con("rec", None, (nat,), (Con("abs", None, (nat, nat), (Var(0),)),))
    assert translate_term(turing, (), with_rec) != translate_term(curry, (), with_rec)
    _report(9, "Curry and Turing translations agree exactly away from rec")
