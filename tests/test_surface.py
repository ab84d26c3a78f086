import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from initsyn.languages import get_language, get_translation, list_builtins
from initsyn.laws import GenConfig, _case_term
from initsyn.objtypes import ObjType
from initsyn.signatures import ArgSpec, TVar
from initsyn.surface import (
    _TOKEN,
    SourceError,
    _split,
    _tokenize,
    parse_signature,
    parse_term,
    parse_translation,
    print_signature,
    print_term,
    print_termfile,
    print_translation,
)
from initsyn.terms import Con, TypeCheckError, Var, infer
from initsyn.translate import TplMacro, TplMeta, translate_term


class TestParseSignature:
    def test_stlc_abs_line(self):
        text = """
        language L
        types { arr : 2 }
        terms { abs [2] : ([$1] $2) -> arr($1,$2) }
        """
        sig = parse_signature(text)
        ar = sig.arity("abs")
        assert ar.degree == 2
        assert ar.args == (ArgSpec((TVar(1),), TVar(2)),)
        assert ar.result == ObjType("arr", (TVar(1), TVar(2)))

    def test_pcf_rec_line(self):
        text = """
        language L
        types { arr : 2 }
        terms { rec [1] : ([] arr($1,$1)) -> $1 }
        """
        ar = parse_signature(text).arity("rec")
        assert ar.degree == 1 and ar.result == TVar(1)

    def test_degree_violation_has_position(self):
        text = "language L\ntypes { arr : 2 }\nterms { x [1] : ([ $2 ] $1) -> $1 }"
        with pytest.raises(SourceError) as err:
            parse_signature(text)
        assert "variable 2 exceeds degree 1" in err.value.message
        assert err.value.line == 3

    def test_comments_and_whitespace(self):
        text = "# header\nlanguage L # name\ntypes{A:0}\nterms{c[0]:()->A}"
        sig = parse_signature(text)
        assert sig.name == "L" and sig.arity("c") is not None

    def test_family_keyword(self):
        text = "language L types { N : 0 } terms { family nats [0] : () -> N }"
        assert parse_signature(text).arity("nats").family_index

    def test_trailing_garbage(self):
        with pytest.raises(SourceError):
            parse_signature("language L types { } terms { } extra")


    @pytest.mark.parametrize(
        "text, line, column, message",
        [
            (
                "language L\natoms { p q p }\ntypes { }\nterms { }",
                2, 13, "atom 'p': duplicate type constructor name",
            ),
            (
                "language L\ntypes { A : 0 }\nterms {\n  c [0] : () -> A\n  __c [0] : () -> A }",
                5, 3, "arity '__c': name is reserved",
            ),
        ],
    )
    def test_name_errors_point_at_the_name(self, text, line, column, message):
        with pytest.raises(SourceError) as err:
            parse_signature(text)
        got = (err.value.line, err.value.column, err.value.message)
        assert got == (line, column, f"invalid signature: {message}")

    def test_duplicate_type_constructor_points_at_the_second(self):
        with pytest.raises(SourceError) as err:
            parse_signature("language L\ntypes { A : 0\n  A : 1 }\nterms { }")
        got = (err.value.line, err.value.column, err.value.message)
        assert got == (3, 3, "duplicate type constructor 'A'")


class TestTokenizer:
    @pytest.mark.parametrize(
        "parse, text, column, char",
        [
            (parse_signature, "language L types { A : ² } terms { }", 24, "²"),
            (lambda t: parse_term(t, get_language("PCF")), "context ; #²", 12, "²"),
            (lambda t: parse_term(t, get_language("PCF")), "context ; (nats{¹})", 17, "¹"),
        ],
    )
    def test_non_ascii_digits_are_unexpected(self, parse, text, column, char):
        with pytest.raises(SourceError) as err:
            parse(text)
        got = (err.value.line, err.value.column, err.value.message)
        assert got == (1, column, f"unexpected character {char!r}")

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.text(alphabet="ab_*'-#$?09²¹٣é \t\r\n()[]{},;:=<>!", max_size=40))
    def test_positions_point_at_their_text(self, text):
        """Every token's (line, column) points at its own text, numbers are
        ASCII, and a bad token starts with a character that no token starts
        with there."""
        lines = text.split("\n")
        for tok in _tokenize(text):
            at = lines[tok.line - 1][tok.column - 1 :]
            if tok.kind == "eof":
                assert (tok.line, at) == (len(lines), "")
                continue
            assert at.startswith(tok.text)
            if tok.kind.endswith("nat"):
                assert set(tok.text.lstrip("#$?")) <= set("0123456789")
            if tok.kind == "bad":
                char = tok.text[0]
                assert not (char.isalpha() or char in "_*0123456789()[]{},;:=<>")


class TestParseTerm:
    def test_abs_file(self):
        pcf = get_language("PCF")
        ctx, term = parse_term("context ; (abs [Nat, Nat] #0)", pcf)
        assert ctx == ()
        assert infer(pcf, ctx, term) == ObjType("arr", (ObjType("Nat"), ObjType("Nat")))

    def test_context_entry(self):
        pcf = get_language("PCF")
        ctx, term = parse_term("context Nat ; #0", pcf)
        assert ctx == (ObjType("Nat"),)
        assert term == Var(0)
        assert infer(pcf, ctx, term) == ObjType("Nat")

    def test_unbound_index_has_position(self):
        pcf = get_language("PCF")
        with pytest.raises(SourceError) as err:
            parse_term("context ; #0", pcf)
        assert "unbound index 0" in err.value.message

    def test_type_error_points_at_offending_node(self):
        pcf = get_language("PCF")
        with pytest.raises(SourceError) as err:
            parse_term("context ;\n(app [Bool, Nat] (Succ) (tttt))", pcf)
        assert "expected arr(Bool,Nat)" in err.value.message
        assert err.value.line == 2

    def test_family_literal_required(self):
        pcf = get_language("PCF")
        with pytest.raises(SourceError) as err:
            parse_term("context ; (nats)", pcf)
        assert "family literal" in err.value.message

    def test_argument_free_nodes_are_shared_per_name_literal_and_instantiation(self):
        """Nodes without arguments that differ only in their instantiation
        or their literal stay apart, each with its own type, while equal
        ones are one object; the file round-trips."""
        pcf = get_language("PCF")
        cond = "(app [Bool, arr(Nat,arr(Nat,Nat))] (CondN) (bottom [Bool]))"
        second = f"(app [Nat, Nat] (app [Nat, arr(Nat,Nat)] {cond} (nats{{2}})) (bottom [Nat]))"
        text = f"context ; (app [Nat, Nat] (app [Nat, arr(Nat,Nat)] {cond} (nats{{1}})) {second})"
        ctx, term = parse_term(text, pcf)
        leaves: dict[tuple, list[Con]] = {}
        stack = [term]
        while stack:
            t = stack.pop()
            if not t.args:
                leaves.setdefault((t.name, t.lit, t.inst), []).append(t)
            stack.extend(t.args)
        nat, bool_ = ObjType("Nat"), ObjType("Bool")
        expected = {
            ("bottom", None, (nat,)): nat,
            ("bottom", None, (bool_,)): bool_,
            ("nats", 1, ()): nat,
            ("nats", 2, ()): nat,
        }
        for key, ty in expected.items():
            first, *rest = leaves[key]
            assert all(node is first for node in rest)
            assert infer(pcf, ctx, first) == ty
        distinct = [leaves[key][0] for key in expected]
        assert len({id(node) for node in distinct}) == len(distinct)
        assert len(leaves[("bottom", None, (bool_,))]) == 2
        assert infer(pcf, ctx, term) == nat
        printed = print_termfile(pcf, ctx, term)
        assert parse_term(printed, pcf) == (ctx, term)
        assert print_termfile(pcf, *parse_term(printed, pcf)) == printed


def _nested(depth: int, leaf: str) -> str:
    """``leaf`` as the argument of ``depth`` nested ``Succ`` applications,
    one per line, so that the leaf sits on line ``depth + 2``."""
    return "context ;\n" + "(app [Nat, Nat] (Succ)\n" * depth + leaf + ")" * depth


_LEAF_ERRORS = [
    ("(tttt)", Con("tttt", None, (), ()), 2, "expected Nat, found Bool"),
    ("#7", Var(7), 1, "unbound index 7"),
    ("(nats)", Con("nats", None, (), ()), 2, "'nats' needs a family literal"),
]


class TestTypeErrorPositions:
    """Pins the path, message, line and column of type errors, at several
    depths and in repeated arity occurrences."""

    @pytest.mark.parametrize("depth", [1, 5, 50])
    @pytest.mark.parametrize("leaf, term, column, message", _LEAF_ERRORS)
    def test_error_at_depth(self, depth, leaf, term, column, message):
        pcf = get_language("PCF")
        with pytest.raises(SourceError) as err:
            parse_term(_nested(depth, leaf), pcf)
        got = (err.value.line, err.value.column, err.value.message)
        assert got == (depth + 2, column, message)

        nat = ObjType("Nat")
        for _ in range(depth):
            term = Con("app", None, (nat, nat), (Con("Succ", None, (), ()), term))
        with pytest.raises(TypeCheckError) as exc:
            infer(pcf, (), term)
        assert exc.value.path == (1,) * depth
        assert str(exc.value) == f"at argument path {'.'.join(['1'] * depth)}: {message}"

    @pytest.mark.parametrize(
        "first",
        [
            "(app [Nat, Nat] (Succ) (nats{1}))",  # same arity and instantiation
            "(app [Bool, Nat] (abs [Bool, Nat] (nats{1})) (tttt))",  # other inst
        ],
    )
    def test_error_in_second_occurrence(self, first):
        pcf = get_language("PCF")
        lines = [
            "context ;",
            "(app [Nat, Nat]",
            f"  (abs [Nat, Nat] (app [Nat, Nat] (Pred) {first}))",
            "  (app [Nat, Nat] (Succ) (tttt)))",
        ]
        with pytest.raises(SourceError) as err:
            parse_term("\n".join(lines), pcf)
        got = (err.value.line, err.value.column, err.value.message)
        assert got == (4, lines[3].index("tttt") + 1, "expected Nat, found Bool")

    @pytest.mark.parametrize(
        "term, column, message",
        [
            ("(wrap{3} [o] (k) (kb))", 19, "expected o, found b"),
            ("(wrap{3} [o] (wrap{1} [o] #0 (kb)) (k))", 31, "expected o, found b"),
            ("(wrap{3} [o] (k) (wrap{1} [o] #0 #5))", 34, "unbound index 5"),
        ],
    )
    def test_error_under_a_family_literal(self, term, column, message):
        """The position skips a node's ``{n}`` on the way to its argument."""
        sig = parse_signature(
            "language W\ntypes { o : 0 b : 0 }\nterms {\n"
            "  family wrap [1] : ([] $1, [] $1) -> $1\n"
            "  k [0] : () -> o\n  kb [0] : () -> b\n}"
        )
        with pytest.raises(SourceError) as err:
            parse_term(f"context o ;\n{term}", sig)
        assert (err.value.line, err.value.column, err.value.message) == (2, column, message)


class TestPrintTerm:
    def test_paper_style_identity(self):
        ulc = get_language("ULC")
        term = Con("abs", None, (), (Var(0),))
        assert print_term(ulc, (), term, style="paper") == "Abs 1"

    def test_paper_style_rejects_non_ulc(self):
        pcf = get_language("PCF")
        term = Con("tttt", None, (), ())
        with pytest.raises(ValueError):
            print_term(pcf, (), term, style="paper")

    def test_unknown_style(self):
        ulc = get_language("ULC")
        with pytest.raises(ValueError):
            print_term(ulc, (), Var(0), style="fancy")

    def test_deep_chain_prints_without_recursion(self):
        """A 10 000-deep chain over a variable, and over a leaf in which one
        node occurs twice, at recursion limit 1 000."""
        ulc = get_language("ULC")
        depth = 10_000
        shared = Con("abs", None, (), (Var(0),))
        leaves = [
            (Var(0), "#0", "Abs (" * (depth - 1) + "Abs 1" + ")" * (depth - 1)),
            (
                Con("app", None, (), (shared, shared)),
                "(app (abs #0) (abs #0))",
                "Abs (" * depth + "Abs 1 @ Abs 1" + ")" * depth,
            ),
        ]
        for leaf, leaf_text, expected_paper in leaves:
            term = leaf
            for _ in range(depth):
                term = Con("abs", None, (), (term,))
            saved = sys.getrecursionlimit()
            sys.setrecursionlimit(1000)
            try:
                canonical = str(term)
                paper = print_term(ulc, (), term, style="paper")
            finally:
                sys.setrecursionlimit(saved)
            assert canonical == "(abs " * depth + leaf_text + ")" * depth
            assert paper == expected_paper

    def test_printers_match_recursive_references(self):
        """Both printers against the recursive ones they replaced, on
        random terms of every builtin language, on each builtin
        translation's output on such terms, and on a term in which one
        node occurs at several depths (paper style on ULC)."""

        def canonical(t):
            if isinstance(t, Var):
                return f"#{t.index}"
            head = t.name if t.lit is None else f"{t.name}{{{t.lit}}}"
            if t.inst:
                head += " [" + ", ".join(str(ty) for ty in t.inst) + "]"
            return "(" + " ".join([head] + [canonical(a) for a in t.args]) + ")"

        def paper(t):
            if isinstance(t, Var):
                return str(t.index + 1)
            if t.name == "abs":
                (body,) = t.args
                inner = paper(body)
                return f"Abs {inner}" if isinstance(body, Var) else f"Abs ({inner})"
            fun, arg = t.args
            right = paper(arg)
            if isinstance(arg, Con) and arg.name == "app":
                right = f"({right})"
            return f"{paper(fun)} @ {right}"

        cases = []
        for name in list_builtins()[0]:
            sig = get_language(name)
            rng = random.Random(4)
            for _ in range(60):
                cases.append((sig, _case_term(sig, GenConfig(seed=4, cases=1), rng)[1]))
        for name in list_builtins()[1]:
            x = get_translation(name)
            rng = random.Random(4)
            for _ in range(60):
                ctx, term = _case_term(x.source, GenConfig(seed=4, cases=1), rng)
                cases.append((x.target, translate_term(x, ctx, term)))
        ulc = get_language("ULC")
        inner = Con("app", None, (), (Var(0), Con("abs", None, (), (Var(1),))))
        outer = Con("app", None, (), (inner, inner))
        body = Con("app", None, (), (outer, Con("abs", None, (), (Con("app", None, (), (inner, outer)),))))
        cases.append((ulc, Con("abs", None, (), (body,))))
        for sig, term in cases:
            assert str(term) == canonical(term)
            if sig.name == "ULC":
                assert print_term(sig, (), term, style="paper") == paper(term)

    def test_canonical_round_trip_samples(self):
        for name in list_builtins()[0]:
            sig = get_language(name)
            cfg = GenConfig(seed=21, cases=1)
            rng = random.Random(21)
            for _ in range(60):
                ctx, term = _case_term(sig, cfg, rng)
                text = print_termfile(sig, ctx, term)
                assert parse_term(text, sig) == (ctx, term)


_MACROS = (  # a translation whose second macro is left to each test
    "translation t from PCF to ULC\nmacros {\n  I = (abs #0)\n  SECOND\n}\n"
    "types { Nat -> * Bool -> * arr -> * }\nterms { app -> (app ?1 ?2) "
    "abs -> (abs ?1) rec -> (app <I> ?1) nats -> (abs (abs (__iter (app #1 (__hole)) #0))) "
    "tttt -> (abs (abs #1)) ffff -> (abs (abs #0)) Succ -> <I> Pred -> <I> Zero -> <I> "
    "CondN -> <I> CondB -> <I> bottom -> <I> }\n"
)


class TestParseTranslation:
    def test_duplicate_macro_points_at_the_second(self):
        pcf, ulc = get_language("PCF"), get_language("ULC")
        with pytest.raises(SourceError) as err:
            parse_translation(_MACROS.replace("SECOND", "I = (abs #0)"), pcf, ulc)
        got = (err.value.line, err.value.column, err.value.message)
        assert got == (4, 3, "duplicate macro 'I'")

    def test_a_macro_that_uses_an_earlier_one_is_inlined(self):
        pcf, ulc = get_language("PCF"), get_language("ULC")
        x = parse_translation(_MACROS.replace("SECOND", "II = (app <I> <I>)"), pcf, ulc)
        body = Con("abs", None, (), (Var(0),))
        assert x.macros["II"] == Con("app", None, (), (body, body))
        assert "  II = (app (abs #0) (abs #0))\n" in print_translation(x)
        assert parse_translation(print_translation(x), pcf, ulc).macros == x.macros
    def test_rec_template_parses(self):
        pcf, ulc = get_language("PCF"), get_language("ULC")
        turing = get_translation("pcf2ulc-turing")
        text = print_translation(turing)
        x = parse_translation(text, pcf, ulc)
        assert x.term_map["rec"] == Con(
            "app", None, (), (TplMacro("Theta"), TplMeta(1))
        )

    def test_missing_template_is_flagged(self):
        gg = get_translation("cpc2ipc-godel-gentzen")
        text = print_translation(gg)
        text = "\n".join(
            line for line in text.splitlines() if not line.strip().startswith("andE1 ->")
        )
        with pytest.raises(SourceError) as err:
            parse_translation(text, gg.source, gg.target)
        assert "no template for andE1" in err.value.message

    def test_header_names_must_match(self):
        gg = get_translation("cpc2ipc-godel-gentzen")
        text = print_translation(gg)
        with pytest.raises(SourceError):
            parse_translation(text, gg.target, gg.target)

    @pytest.mark.parametrize(
        "image, error",
        [
            ("impl(impl(Foo(bot,bot,bot),bot),bot)", "unknown type constructor 'Foo'"),
            ("impl(impl(p),bot)", "impl expects 2 arguments, got 1"),
            ("impl($1,bot)", "variable 1 exceeds degree 0"),
        ],
    )
    def test_type_templates_are_checked_against_the_target(self, image, error):
        gg = get_translation("cpc2ipc-godel-gentzen")
        good = "  p -> impl(impl(p,bot),bot)"
        lines = print_translation(gg).splitlines()
        line = lines.index(good) + 1
        lines[line - 1] = f"  p -> {image}"
        with pytest.raises(SourceError) as err:
            parse_translation("\n".join(lines), gg.source, gg.target)
        got = (err.value.line, err.value.column, err.value.message)
        assert got == (line, 3, f"invalid translation: types: type template for 'p': {error}")

    @pytest.mark.parametrize(
        "body, message",
        [
            ("(app ?1 #0)", "macros cannot contain argument placeholders"),
            ("(app <J> #0)", "macro 'J' is not defined yet"),
            ("(abs (__hole))", "'__hole' is not allowed in a macro"),
            ("(abs [$1] #0)", "macro type parameters must be closed"),
            # the first error in text order: a node before its arguments, an
            # argument before the next one
            ("(app ?1 <J>)", "macros cannot contain argument placeholders"),
            ("(__iter <J> ?1)", "'__iter' is not allowed in a macro"),
        ],
    )
    def test_macro_errors_point_at_the_macro_name(self, body, message):
        pcf, ulc = get_language("PCF"), get_language("ULC")
        text = print_translation(get_translation("pcf2ulc-turing")).replace(
            "\n\nmacros {\n", f"\nmacros {{ M = {body}\n"
        )
        with pytest.raises(SourceError) as err:
            parse_translation(text, pcf, ulc)
        assert (err.value.line, err.value.column, err.value.message) == (2, 10, message)

    @pytest.mark.parametrize(
        "body, message",
        [
            (
                "(implE [impl(Foo,Foo), top] (implI [impl(Foo,Foo), top] (topI)) (implI [Foo, Foo] #0))",
                "type expression impl(Foo,Foo): unknown type constructor 'Foo'",
            ),
            # reported before the wrong parameter count of the same node
            (
                "(implE [impl(Foo,Foo)] (implI [impl(Foo,Foo), top] (topI)) (implI [Foo, Foo] #0))",
                "type expression impl(Foo,Foo): unknown type constructor 'Foo'",
            ),
            (
                "(implE [impl(top), top] (implI [impl(top), top] (topI)) (implI [top, top] #0))",
                "type expression impl(top): impl expects 2 arguments, got 1",
            ),
        ],
        ids=["unknown", "unknown-and-count", "argument-count"],
    )
    def test_macro_types_are_checked_against_the_target(self, body, message):
        gg = get_translation("cpc2ipc-godel-gentzen")
        text = print_translation(gg).replace("\n\ntypes {", f"\nmacros {{ K = {body} }}\n\ntypes {{")
        text = text.replace(
            "topI -> (implI [impl(top,bot), bot] (implE [top, bot] #0 (topI)))",
            "topI -> (implI [impl(top,bot), bot] (implE [top, bot] #0 <K>))",
        )
        with pytest.raises(SourceError) as err:
            parse_translation(text, gg.source, gg.target)
        assert (err.value.line, err.value.column, err.value.message) == (2, 10, message)

    def test_macro_forward_reference_rejected(self):
        pcf, ulc = get_language("PCF"), get_language("ULC")
        text = print_translation(get_translation("pcf2ulc-turing")).replace(
            "Theta = ", "Theta = <Later> "
        )
        with pytest.raises(SourceError):
            parse_translation(text, pcf, ulc)


def test_signature_round_trip_all_builtins():
    for name in list_builtins()[0]:
        sig = get_language(name)
        assert parse_signature(print_signature(sig)) == sig


def test_translation_round_trip_all_builtins():
    for name in list_builtins()[1]:
        x = get_translation(name)
        assert parse_translation(print_translation(x), x.source, x.target) == x


def _random_text(rng: random.Random) -> str:
    n = rng.randint(0, 60)
    alphabet = "abcdefgh ()[]{}<>,;:$#?*->=0123456789\n\t_"
    if rng.random() < 0.3:
        return bytes(rng.randrange(256) for _ in range(n)).decode("latin-1")
    return "".join(rng.choice(alphabet) for _ in range(n))


def test_parsers_never_crash_on_fuzz_input():
    pcf = get_language("PCF")
    ulc = get_language("ULC")
    rng = random.Random(99)
    for _ in range(1500):
        text = _random_text(rng)
        for run in (
            lambda: parse_signature(text),
            lambda: parse_term(text, pcf),
            lambda: parse_translation(text, pcf, ulc),
        ):
            try:
                run()
            except SourceError:
                pass


# The alphabet check that ``surface._split`` made with a regex before it
# deleted its plain bytes in one pass: '-', and control characters other
# than the whitespace that ``surface._TOKEN`` skips.
ODD = re.compile(r"[^ -~\t\r\n]|-")


@pytest.mark.parametrize("code", range(128))
def test_split_declines_exactly_the_characters_the_regex_finds(code):
    """Each ASCII character, placed in a term file as a word of its own,
    makes ``_split`` decline exactly when the regex finds it; a lone '#'
    starts a comment, which ``_split`` leaves to ``findall`` as well."""
    c = chr(code)
    text = f"context Nat ; (app [Nat, Nat] {c} #0)\n"
    declined = _split(text) is None
    assert declined == (bool(ODD.search(text)) or c == "#")
    if not declined:
        assert _split(text) == [t for t in _TOKEN.findall(text) if t]
