"""Pins on scanning: the token strings every parser reads, the errors the
parsers raise, and the nesting limit.

``data/parser_outcomes.txt`` records, for each text of ``corpus()``, a
digest of what the four parsers did with it before scanning produced token
strings (when a tokenizer built one tuple per token and raised on a bad
character as soon as it was read); the parsers must still do exactly that.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from initsyn import languages, surface
from initsyn.languages import get_language, get_translation, list_builtins
from initsyn.laws import GenConfig, GenFailure, gen_context, gen_term
from initsyn.terms import Con
from initsyn.surface import (
    _TOKEN,
    SourceError,
    _scan,
    _split,
    _tokenize,
    parse_signature,
    parse_term,
    parse_translation,
    print_signature,
    print_termfile,
    print_translation,
    translation_header,
)

# the alphabet of the positions test in test_surface.py
ALPHABET = "ab_*'-#$?09²¹٣é \t\r\n()[]{},;:=<>!"

SEEDS = [
    "language L\natoms { p q }\ntypes { arr : 2 }\nterms {\n"
    "  family nats [0] : () -> p\n  abs [2] : ([$1] $2) -> arr($1,$2)\n}\n",
    "translation t from PCF to ULC\nmacros { I = (abs #0) }\n"
    "types { Nat -> * Bool -> * arr -> * }\nterms { app -> (app ?1 ?2) "
    "abs -> (abs ?1) rec -> (app <I> ?1) nats -> (abs (abs (__iter (app #1 (__hole)) #0))) }\n",
    "context ; (abs [Bool, Bool]\n  (app [Bool, Bool] (app [Bool, arr(Bool,Bool)] (CondB) #0) (ffff)))\n",
    "context Nat arr(Nat,Bool) ; (app [Nat, Bool] #1 (nats{3}))\n",
    "context ;\n(app [Nat, Nat] (Succ)\n(app [Nat, Nat] (Succ) (nats{2})))",
    "# c\ncontext arr(arr(Nat,Nat),Bool) ; (rec [Nat] (abs [Nat, Nat] #0)) # end\n",
]
PIECES = [
    "#²", "#٣", "²", "!", "$", "?", "-", "'", "é", "#", "# x\n", "\n", "(", ")", "[", "]",
    "{", "}", ",", "#0", "$1", "?1", "?0", "9", "->", "Nat", "(nats{1})", "arr(", "\x0b",
]


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(text) + 1)
        r = rng.random()
        if r < 0.45:
            text = text[:k] + rng.choice(PIECES) + text[k:]
        elif r < 0.65:
            text = text[:k] + text[k + rng.randint(1, 8) :]
        elif r < 0.8:
            text = text[:k]
        else:
            j = rng.randrange(len(text) + 1)
            text = text[:k] + text[min(k, j) : max(k, j)] + text[k:]
    return text


def corpus(n: int = 2000) -> list[str]:
    """Random strings over ``ALPHABET`` and mutated snippets of every format."""
    rng = random.Random(2024)
    out = []
    for i in range(n):
        if i % 4 == 0:
            out.append("".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 40))))
        else:
            out.append(_mutate(rng, rng.choice(SEEDS)))
    return out


def outcomes(text: str) -> list:
    """What each parser does with ``text``: None or (line, column, message,
    expected) of its SourceError."""
    pcf, ulc = get_language("PCF"), get_language("ULC")
    out = []
    for run in (
        lambda: parse_signature(text),
        lambda: parse_term(text, pcf),
        lambda: parse_translation(text, pcf, ulc),
        lambda: translation_header(text),
    ):
        try:
            run()
            out.append(None)
        except SourceError as err:
            out.append([err.line, err.column, err.message, err.expected])
    return out


def digest(results: list) -> str:
    text = json.dumps(results, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def test_parsers_fail_as_recorded():
    recorded = (Path(__file__).parent / "data" / "parser_outcomes.txt").read_text().split()
    texts = corpus()
    assert len(recorded) == len(texts)
    for text, expected in zip(texts, recorded):
        results = outcomes(text)
        assert digest(results) == expected, (text, results)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet=ALPHABET, max_size=40))
def test_scan_is_the_positional_scan(text):
    """The token strings the parsers read are those of ``_tokenize``, on
    the text and on its ASCII characters (scanned by ``findall`` alone), and
    an unexpected character is reported at a bad token that starts with it."""
    for t in (text, "".join(c for c in text if c.isascii())):
        toks = list(_tokenize(t))
        assert _scan(t) == [tok.text for tok in toks]
        bad = {(tok.line, tok.column): tok.text[0] for tok in toks if tok.kind == "bad"}
        for result in outcomes(t):
            if result is not None and result[2].startswith("unexpected character"):
                assert result[2] == f"unexpected character {bad[result[0], result[1]]!r}"


def _findall(text: str) -> list[str]:
    return list(filter(None, _TOKEN.findall(text)))


# no '-' and no control character, so that ``_split`` reads every text
# whose words are single tokens
SPLIT_ALPHABET = "ab_*'#$?09 \t\r\n()[]{},;:=<>!@"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet=SPLIT_ALPHABET, max_size=40))
def test_split_scan_is_the_findall_scan(text):
    assert _scan(text) == _findall(text) + [""]


@pytest.mark.parametrize(
    "piece",
    ["# x", "#", "#1a", "a#1", "'a", "12ab", "$1x", "@@", "a->b", "a-b", "\x0b", "\x0c", "\x1c", "\x7f"],
)
def test_split_declines_what_it_could_read_otherwise(piece):
    """A word that is not one token (a comment's '#' starts one), '-' and
    the control characters at which ``str.split`` splits or ``findall``
    reads a bad token are left to ``findall``."""
    text = f"context Nat ; (app [Nat, Nat] {piece} #0)\n"
    assert _split(text) is None
    assert _scan(text) == _findall(text) + [""]


@pytest.mark.parametrize("piece", ["$", "?", "!"])
def test_split_reads_a_lone_bad_character(piece):
    """A word of one character that no token starts with is one bad token,
    as ``findall`` reads it, so ``_split`` need not decline it."""
    text = f"context Nat ; (app [Nat, Nat] {piece} #0)\n"
    assert _split(text) == _findall(text)
    assert piece in _split(text)


def _seeded_term_files() -> list[str]:
    """``print_termfile`` of seeded terms in seeded contexts, for every
    builtin language."""
    out = []
    for name in list_builtins()[0]:
        sig, cfg, rng = get_language(name), GenConfig(seed=14), random.Random(14)
        for _ in range(20):
            ctx = gen_context(sig, cfg, rng, max_len=3)
            try:
                out.append(print_termfile(sig, ctx, gen_term(sig, ctx, None, cfg, rng=rng)))
            except GenFailure:
                pass
    return out


def test_split_reads_term_files_and_declines_builtin_sources():
    """Where the split path runs: canonical term files take it, so a change
    cannot switch it off unseen, and the builtin ``.sig`` and ``.xlat``
    files, which have arrows, decline at their first '-'."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    neg = readme.split("the boolean negation program\n\n```\n", 1)[1].split("```", 1)[0]
    files = _seeded_term_files()
    assert len(files) > 50 and any("[" in f for f in files) and any("{" in f for f in files)
    for text in [neg, *files]:
        assert _split(text) == _findall(text), text
    sigs, xlats = list_builtins()
    data = Path(languages.__file__).parent / "data"
    for stem in [*(f"{s}.sig" for s in sigs), *(f"{x}.xlat" for x in xlats)]:
        assert _split((data / stem).read_text(encoding="utf-8")) is None, stem


def _nested_apps(depth: int) -> str:
    return "context ;\n" + "(app [Nat, Nat] (Succ)\n" * depth + "(nats{1})" + ")" * depth


def _arrows(depth: int) -> str:
    """A context type ``depth`` constructors deep."""
    return "context " + "arr(Nat," * (depth - 1) + "Nat" + ")" * (depth - 1) + " ; #0"


def _deep_xlat(kind: str, depth: int) -> tuple[str, str]:
    """``pcf2ulc-turing`` with either the template of ``rec`` (on line 15)
    or a new first macro ``M`` (on line 2) nesting ``depth`` levels deep,
    and the text of that template or macro."""
    text = print_translation(get_translation("pcf2ulc-turing"))
    text = text.replace("\n\nmacros {\n", "\nmacros { M = (abs #0)\n")
    if kind == "template":
        deep = "(app " + "(abs " * (depth - 2) + "#0" + ")" * (depth - 2) + " ?1)"
        return text.replace("rec -> (app <Theta> ?1)", f"rec -> {deep}"), deep
    deep = "(abs " * (depth - 1) + "#0" + ")" * (depth - 1)
    return text.replace("M = (abs #0)", f"M = {deep}"), deep


def _deep_signature(depth: int) -> str:
    """A signature whose one arity has a result ``depth`` constructors
    deep over ``$1``, on line 4."""
    result = "arr(" * depth + "$1" + ",Nat)" * depth
    return f"language L\ntypes {{ Nat : 0 arr : 2 }}\nterms {{\n  f [1] : () -> {result}\n}}\n"


class TestNestingLimit:
    """The limit as measured before the parsers read token strings; every
    case runs at the default recursion limit."""

    @pytest.fixture(autouse=True)
    def default_limit(self):
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        yield
        sys.setrecursionlimit(saved)

    def test_499_nested_terms_parse(self):
        _, term = parse_term(_nested_apps(499), get_language("PCF"))
        assert term.name == "app"

    def test_500_nested_terms_are_too_deep(self):
        with pytest.raises(SourceError) as err:
            parse_term(_nested_apps(500), get_language("PCF"))
        got = (err.value.line, err.value.column, err.value.message)
        assert got == (501, 7, "nesting too deep")

    def test_500_deep_context_type_parses(self):
        ctx, _ = parse_term(_arrows(500), get_language("PCF"))
        assert ctx[0].name == "arr"

    def test_501_deep_context_type_is_too_deep(self):
        with pytest.raises(SourceError) as err:
            parse_term(_arrows(501), get_language("PCF"))
        got = (err.value.line, err.value.column, err.value.message)
        assert got == (1, 4005, "nesting too deep")

    @pytest.mark.parametrize("depth, error", [(497, None), (498, (2, 12967)), (499, (2, 3995))])
    def test_deep_instantiations_decline_the_canonical_path(self, depth, error):
        """An instantiation whose types may nest past the limit where it
        stands is left to the token scanner, which reads or rejects it."""
        ty = "arr(Nat," * depth + "Nat" + ")" * depth
        text = f"context {ty} ;\n(app [{ty}, {ty}] (abs [{ty}, {ty}] #0) #0)"
        assert not _takes_canonical_path(text, get_language("PCF"))
        got = _outcome(text, get_language("PCF"))
        assert got[:2] == error if error else got[0][0].name == "arr"
        if error:
            assert got[2] == "nesting too deep"

    @pytest.mark.parametrize("kind", ["template", "macro"])
    def test_500_level_templates_and_macros_load(self, kind):
        text, deep = _deep_xlat(kind, 500)
        x = parse_translation(text, get_language("PCF"), get_language("ULC"))
        assert str(x.term_map["rec"] if kind == "template" else x.macros["M"]) == deep

    @pytest.mark.parametrize(
        "kind, at", [("template", (15, 2510)), ("macro", (2, 2514))], ids=["template", "macro"]
    )
    def test_501_level_templates_and_macros_are_too_deep(self, kind, at):
        text, _ = _deep_xlat(kind, 501)
        with pytest.raises(SourceError) as err:
            parse_translation(text, get_language("PCF"), get_language("ULC"))
        assert (err.value.line, err.value.column, err.value.message) == (*at, "nesting too deep")

    def test_499_level_type_expressions_print_and_round_trip(self):
        sig = parse_signature(_deep_signature(499))
        text = print_signature(sig)
        assert "arr(" * 499 + "$1" + ",Nat)" * 499 in text
        assert parse_signature(text) == sig

    def test_500_level_type_expressions_are_too_deep(self):
        with pytest.raises(SourceError) as err:
            parse_signature(_deep_signature(500))
        assert (err.value.line, err.value.column, err.value.message) == (4, 2017, "nesting too deep")


# Variants of canonical term files that the canonical path declines, each a
# (old, new) replacement: spaces inside an instantiation, its types not
# separated by ', ', a space inside a type, a comment, a tab, a non-ASCII letter.
VARIANTS = [
    ("[", "[ "),
    (", ", ","),
    (",", ", "),
    (" ;", " # c\n;"),
    (" ", "\t"),
    ("context", "context é"),
]


def _general(text: str, sig):
    """What the token scanner alone makes of ``text``: a value or the
    (line, column, message) of its SourceError."""
    saved = surface._read_canonical
    surface._read_canonical = _declined
    try:
        return _outcome(text, sig)
    finally:
        surface._read_canonical = saved


def _declined(text, sig):
    raise surface._Decline


def _outcome(text: str, sig):
    try:
        return surface._parse_typed_term(text, sig)
    except SourceError as err:
        return (err.line, err.column, err.message)


def _takes_canonical_path(text: str, sig) -> bool:
    try:
        surface._read_canonical(text, sig)
    except surface._Decline:
        return False
    return True


def _sharing(value) -> list[int]:
    """The first-visit numbering of the objects in a parse result: equal
    lists for equal results mean the same objects are shared."""
    ids: dict[int, int] = {}
    out = []
    stack = [value]
    while stack:
        x = stack.pop()
        out.append(ids.setdefault(id(x), len(ids)))
        if isinstance(x, tuple):
            stack.extend(x)
        elif isinstance(x, Con):
            stack.extend((x.inst, *x.args))
    return out


def _term_files() -> list[tuple[str, object]]:
    """The seeded term files, and longer printed ``gen_term`` files, each
    with its language."""
    out = []
    for name in list_builtins()[0]:
        sig, rng = get_language(name), random.Random(30)
        cfg = GenConfig(seed=30, max_depth=9)
        for _ in range(12):
            ctx = gen_context(sig, cfg, rng, max_len=4)
            try:
                out.append((print_termfile(sig, ctx, gen_term(sig, ctx, None, cfg, rng=rng)), sig))
            except GenFailure:
                pass
    for text in _seeded_term_files():
        for name in list_builtins()[0]:
            sig = get_language(name)
            if _takes_canonical_path(text, sig):
                out.append((text, sig))
    return out


def test_canonical_path_reads_term_files_as_the_token_scanner_does():
    files = _term_files()
    assert len(files) > 80
    for text, sig in files:
        assert _takes_canonical_path(text, sig), text
        got, want = _outcome(text, sig), _general(text, sig)
        assert got == want, text
        assert _sharing(got) == _sharing(want), text


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mutated_term_files_have_the_token_scanners_outcome(data):
    files = _term_files()
    text, sig = data.draw(st.sampled_from(files))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    if data.draw(st.booleans()):
        old, new = data.draw(st.sampled_from(VARIANTS))
        text = text.replace(old, new, 1) if old in text else text
    else:
        text = _mutate(rng, text)
    got, want = _outcome(text, sig), _general(text, sig)
    assert got == want, text
    if type(got) is tuple and len(got) == 3 and type(got[2]) is not str:
        assert _sharing(got) == _sharing(want), text


def test_canonical_path_guard():
    """Where the canonical path runs: README's ``neg.term`` and the seeded
    files take it, and the variants of them do not."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    neg = readme.split("the boolean negation program\n\n```\n", 1)[1].split("```", 1)[0]
    pcf = get_language("PCF")
    assert _takes_canonical_path(neg, pcf)
    files = _term_files()
    for old, new in VARIANTS:
        changed = [(t.replace(old, new), sig) for t, sig in files if old in t and "[" in t]
        assert changed, old
        for text, sig in changed:
            assert not _takes_canonical_path(text, sig), text
            assert _outcome(text, sig) == _general(text, sig), text


@pytest.mark.parametrize(
    "make",
    [
        lambda n: ("term", f"context Nat ; #{n}", (1, 15)),
        lambda n: ("term", f"context Nat ;\n (nats{{{n}}})", (2, 8)),
        lambda n: ("sig", f"language L\ntypes {{ Nat : {n} }}\nterms {{ }}\n", (2, 15)),
        lambda n: ("sig", f"language L\ntypes {{ Nat : 0 }}\nterms {{\n  f [{n}] : () -> Nat\n}}\n", (4, 6)),
        lambda n: ("sig", f"language L\ntypes {{ Nat : 0 }}\nterms {{\n  f [1] : () -> ${n}\n}}\n", (4, 17)),
        lambda n: ("xlat", print_translation(get_translation("pcf2ulc-turing")).replace(
            "app -> (app ?1 ?2)", f"app -> (app ?1 ?{n})"), (14, 18)),
    ],
    ids=["variable", "literal", "constructor-count", "degree", "type-parameter", "placeholder"],
)
def test_numbers_past_the_int_limit_are_source_errors(make):
    """A number with more digits than ``int`` converts is an error at its
    token, not a bare ValueError."""
    kind, text, at = make("7" * (sys.get_int_max_str_digits() + 1))
    with pytest.raises(SourceError) as err:
        if kind == "term":
            parse_term(text, get_language("PCF"))
        elif kind == "sig":
            parse_signature(text)
        else:
            parse_translation(text, get_language("PCF"), get_language("ULC"))
    assert (err.value.line, err.value.column) == at
    assert err.value.message.startswith("number too long")
