import random

import pytest

from initsyn.languages import get_language, get_translation, list_builtins
from initsyn.laws import GenConfig, _case_term
from initsyn.objtypes import ObjType
from initsyn.signatures import ArgSpec, TApp, TVar
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
from initsyn.terms import Con, TypeCheckError, Var, infer
from initsyn.translate import TplCon, TplMacro, TplMeta


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
        assert ar.result == TApp("arr", (TVar(1), TVar(2)))

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

    def test_canonical_round_trip_samples(self):
        for name in list_builtins()[0]:
            sig = get_language(name)
            cfg = GenConfig(seed=21, cases=1)
            rng = random.Random(21)
            for _ in range(60):
                ctx, term = _case_term(sig, cfg, rng)
                text = print_termfile(sig, ctx, term)
                assert parse_term(text, sig) == (ctx, term)


class TestParseTranslation:
    def test_rec_template_parses(self):
        pcf, ulc = get_language("PCF"), get_language("ULC")
        turing = get_translation("pcf2ulc-turing")
        text = print_translation(turing)
        x = parse_translation(text, pcf, ulc)
        assert x.term_map["rec"] == TplCon(
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
