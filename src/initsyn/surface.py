"""Parsers and printers for the signature, term, and translation formats.

Formats are UTF-8 text; ``#`` starts a comment running to the end of the
line unless immediately followed by a digit (``#3`` is a de Bruijn
variable).  Whitespace is insignificant.  The canonical term style is
fully parenthesized and round-trips exactly; the paper style renders
untyped lambda terms with ``Abs``, an infixed ``@`` and 1-based
innermost-first indices.

Context files list types outermost last: ``context Nat Bool ; t`` binds
``#0`` to Nat and ``#1`` to Bool.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Iterator, NamedTuple, NoReturn

from .objtypes import ObjType, TypeTranslation, eval_type_expr
from .signatures import (
    ArgSpec,
    TApp,
    TVar,
    TermArity,
    TypeExpr,
    TypedSignature,
    TypeSignature,
    type_expr_errors,
    validate_signature,
)
from .terms import Con, Context, Term, TypeCheckError, Var, infer
from .translate import (
    Template,
    TplCon,
    TplMacro,
    TplMeta,
    TplVar,
    Translation,
    validate_translation,
)

_MAX_NESTING = 500


class SourceError(Exception):
    """Syntax or validation failure, pointing into the offending input."""

    def __init__(self, line: int, column: int, message: str, expected: str = ""):
        super().__init__(message)
        self.line = line
        self.column = column
        self.message = message
        self.expected = expected

    def __str__(self) -> str:
        tail = f" (expected {self.expected})" if self.expected else ""
        return f"line {self.line}, column {self.column}: {self.message}{tail}"


# One pattern scans every format.  A match is either skipped text, for
# which group 1 is empty -- whitespace, or a comment: '#' not followed by
# an ASCII digit, to the end of the line -- or one token in group 1: '#',
# '$' or '?' followed by ASCII digits, a number, an identifier, '->', a
# punctuation character, or else any one character, which is a bad token.
# Identifiers start with a letter, '_' or '*' (``_tokenize`` checks the
# letter) and continue with letters, digits, '_', '*', "'" and inner '-', so
# that 'a ->' lexes as an identifier and an arrow.
_TOKEN = re.compile(
    r"""[ \t\r\n]+ | \#(?![0-9])[^\n]*
    | ( [\#$?][0-9]+ | [0-9]+ | [\w*](?:[\w*'-]*[\w*'])? | -> | [()\[\]{},;:=<>] | . )""",
    re.VERBOSE,
)

_DIGITS = frozenset("0123456789")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_*")
_SIGILS = {"#": "hashnat", "$": "dollarnat", "?": "qnat"}
_PUNCT = frozenset(["->", *"()[]{},;:=<>"])


class _Token(NamedTuple):
    kind: str  # ident nat hashnat dollarnat qnat punct bad eof
    text: str
    line: int
    column: int


def _is_ident(t: str) -> bool:
    c = t[:1]
    return c in _IDENT_START or (c > "\x7f" and c.isalpha())


def _kind(t: str) -> str:
    c = t[0]
    if c in _SIGILS:
        return _SIGILS[c] if len(t) > 1 else "bad"
    if c in _DIGITS:
        return "nat"
    if t in _PUNCT:
        return "punct"
    return "ident" if _is_ident(t) else "bad"


def _scan(text: str) -> list[str]:
    """The token strings of ``text`` in order, then ``""`` for its end.

    ASCII text is scanned by ``findall`` alone.  Other text goes through
    ``_tokenize``, since which characters are letters and digits there takes
    ``str`` methods that the pattern cannot express.
    """
    if not text.isascii():
        return [t.text for t in _tokenize(text)]
    toks = list(filter(None, _TOKEN.findall(text)))
    toks.append("")
    return toks


def _tokenize(text: str) -> Iterator[_Token]:
    """The tokens of ``_scan(text)`` with their kinds and positions, then
    one ``eof`` token.  A bad token is one whose first character the parser
    reports as unexpected when it reaches it: a character no token starts
    with, an identifier that does not start with a letter, '_' or '*', or a
    comment's first character when it is a non-ASCII digit."""
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        tok, pos = m.group(1), m.start()
        if tok is None:
            skipped = m.group()
            if skipped[0] == "#":
                if skipped[1:2].isdigit():  # '#' then a digit other than 0-9
                    yield _Token("bad", skipped[1:], line, pos - line_start + 2)
            elif "\n" in skipped:
                line += skipped.count("\n")
                line_start = pos + skipped.rindex("\n") + 1
            continue
        yield _Token(_kind(tok), tok, line, pos - line_start + 1)
    yield _Token("eof", "", line, len(text) - line_start + 1)


def _token_at(text: str, k: int) -> _Token:
    return next(islice(_tokenize(text), k, None))


def _shown(t: str) -> str:
    """A token as error messages quote it: numbers without their sigil."""
    return t[1:] if len(t) > 1 and t[0] in _SIGILS else t


class _Parser:
    """Recursive descent over the token strings of one text, one token of
    lookahead (``toks[i]``).

    No position is kept on the way: an error looks its token up by index in
    ``_tokenize`` of the text.  A bad token never passes a check, so a
    parser stops at it at the latest, and an error raised while it is the
    lookahead reports it as an unexpected character instead: the first
    error of a scan that raised as soon as a bad token became the lookahead.
    """

    def __init__(self, text: str):
        self.text = text
        self.toks = _scan(text)
        self.i = 0
        self.depth = 0

    def fail(self, message: str, expected: str = "", at: int | None = None) -> NoReturn:
        """Raise at token ``at``, by default the lookahead."""
        look = _token_at(self.text, self.i)
        if look.kind == "bad":
            message, expected = f"unexpected character {look.text[0]!r}", ""
        else:
            look = look if at is None else _token_at(self.text, at)
        raise SourceError(look.line, look.column, message, expected)

    def found(self, expected: str) -> NoReturn:
        """Raise: the lookahead is not what ``expected`` names."""
        t = self.toks[self.i]
        self.fail(f"found {_shown(t)!r}" if t else "unexpected end of input", expected)

    def peek(self) -> str:
        return self.toks[self.i]

    def next(self) -> str:
        t = self.toks[self.i]
        if t:
            self.i += 1
        return t

    def expect_punct(self, s: str) -> None:
        if self.toks[self.i] != s:
            self.found(f"'{s}'")
        self.i += 1

    def expect_ident(self, expected: str = "identifier") -> str:
        t = self.toks[self.i]
        if not _is_ident(t):
            self.found(expected)
        self.i += 1
        return t

    def expect_keyword(self, word: str) -> None:
        if self.expect_ident(f"'{word}'") != word:
            self.fail(f"found {self.toks[self.i - 1]!r}", f"'{word}'", at=self.i - 1)

    def expect_nat(self) -> int:
        t = self.toks[self.i]
        if t[:1] not in _DIGITS:
            self.found("a number")
        self.i += 1
        return int(t)

    def at_punct(self, s: str) -> bool:
        return self.toks[self.i] == s

    def at_ident(self, s: str | None = None) -> bool:
        t = self.toks[self.i]
        return _is_ident(t) and (s is None or t == s)

    def expect_eof(self) -> None:
        t = self.toks[self.i]
        if t:
            self.fail(f"trailing input {_shown(t)!r}", "end of input")

    def enter(self) -> None:
        self.depth += 1
        if self.depth > _MAX_NESTING:
            self.fail("nesting too deep")

    def leave(self) -> None:
        self.depth -= 1


# ---------------------------------------------------------------------------
# Type expressions and ground types


def _parse_tyexpr(p: _Parser) -> tuple[TypeExpr, int]:
    """A type expression and the index of its head token."""
    p.enter()
    try:
        at = p.i
        t = p.peek()
        if t[:1] == "$" and len(t) > 1:
            p.next()
            return TVar(int(t[1:])), at
        name = p.expect_ident("a type expression")
        args: list[TypeExpr] = []
        if p.at_punct("("):
            p.next()
            args.append(_parse_tyexpr(p)[0])
            while p.at_punct(","):
                p.next()
                args.append(_parse_tyexpr(p)[0])
            p.expect_punct(")")
        return TApp(name, tuple(args)), at
    finally:
        p.leave()


def _parse_groundty(p: _Parser, sig: TypedSignature) -> ObjType:
    """A ground type from the lookahead on, without recursion: ``stack``
    holds the constructors whose arguments are being read, each with the
    index of its name and the arguments read so far."""
    toks, i = p.toks, p.i
    room = _MAX_NESTING - p.depth
    declared = sig.all_types.constructors
    stack: list[tuple[str, int, list[ObjType]]] = []
    while True:
        if len(stack) >= room:
            p.i = i
            p.fail("nesting too deep")
        name = toks[i]
        if not _is_ident(name):
            p.i = i
            p.found("a ground type")
        i += 1
        if toks[i] == "(":
            stack.append((name, i - 1, []))
            i += 1
            continue
        if declared.get(name) != 0:
            p.i = i
            _ground_error(p, sig, name, i - 1, 0)
        ty = ObjType(name)
        while True:
            if not stack:
                p.i = i
                return ty
            name, at, args = stack[-1]
            args.append(ty)
            if toks[i] == ",":
                i += 1
                break
            if toks[i] != ")":
                p.i = i
                p.found("')'")
            i += 1
            stack.pop()
            if declared.get(name) != len(args):
                p.i = i
                _ground_error(p, sig, name, at, len(args))
            ty = ObjType(name, tuple(args))


def _ground_error(p: _Parser, sig: TypedSignature, name: str, at: int, count: int) -> NoReturn:
    """Raise: ``sig`` has no type constructor ``name`` of ``count``
    arguments.  The error points at the name, the token at index ``at``."""
    declared = sig.type_arity(name)
    if declared is None:
        p.fail(f"unknown type constructor '{name}'", at=at)
    p.fail(
        f"{name} expects {declared} argument{'s' if declared != 1 else ''}, got {count}",
        at=at,
    )


# ---------------------------------------------------------------------------
# Signature files


def parse_signature(text: str) -> TypedSignature:
    """Parse and validate a ``.sig`` file."""
    p = _Parser(text)
    p.expect_keyword("language")
    name_at = p.i
    name = p.expect_ident("language name")

    # the token index of each declared name, for the validator's entries
    atoms: list[str] = []
    atom_at: dict[str, int] = {}
    if p.at_ident("atoms"):
        p.next()
        p.expect_punct("{")
        while p.at_ident():
            atom_at[p.peek()] = p.i
            atoms.append(p.next())
        p.expect_punct("}")

    p.expect_keyword("types")
    p.expect_punct("{")
    constructors: dict[str, int] = {}
    type_at: dict[str, int] = {}
    while p.at_ident():
        at = p.i
        cname = p.next()
        p.expect_punct(":")
        count = p.expect_nat()
        # a dict cannot show the validator a duplicate key
        if cname in constructors:
            p.fail(f"duplicate type constructor '{cname}'", at=at)
        constructors[cname] = count
        type_at[cname] = at
    p.expect_punct("}")
    all_types = {**dict.fromkeys(atoms, 0), **constructors}

    p.expect_keyword("terms")
    p.expect_punct("{")
    arities: list[TermArity] = []
    arity_at: dict[str, int] = {}
    while p.at_ident():
        at = p.i
        first = p.next()
        family = False
        if first == "family" and p.at_ident():
            family = True
            at = p.i
            first = p.next()
        arity_at[first] = at
        p.expect_punct("[")
        degree = p.expect_nat()
        p.expect_punct("]")
        p.expect_punct(":")
        p.expect_punct("(")
        specs: list[ArgSpec] = []
        if not p.at_punct(")"):
            specs.append(_parse_argspec(p, all_types, degree))
            while p.at_punct(","):
                p.next()
                specs.append(_parse_argspec(p, all_types, degree))
        p.expect_punct(")")
        p.expect_punct("->")
        result = _parse_checked_tyexpr(p, all_types, degree)
        arities.append(TermArity(first, degree, tuple(specs), result, family_index=family))
    p.expect_punct("}")
    p.expect_eof()

    sig = TypedSignature(
        types=TypeSignature(name, constructors),
        terms=tuple(arities),
        atoms=tuple(atoms),
    )
    report = validate_signature(sig)
    if not report.ok:
        tables = (
            ("type constructor ", type_at),
            ("atom ", atom_at),
            ("arity ", arity_at),
        )
        _invalid(p, "signature", report.entries[0], tables, name_at)
    return sig


def _parse_argspec(p: _Parser, types: dict[str, int], degree: int) -> ArgSpec:
    p.expect_punct("[")
    binders: list[TypeExpr] = []
    while not p.at_punct("]"):
        binders.append(_parse_checked_tyexpr(p, types, degree))
    p.expect_punct("]")
    return ArgSpec(tuple(binders), _parse_checked_tyexpr(p, types, degree))


def _parse_checked_tyexpr(p: _Parser, types: dict[str, int], degree: int) -> TypeExpr:
    """A type expression, with its first error raised at its head token."""
    e, at = _parse_tyexpr(p)
    error = next(type_expr_errors(types, e, degree), None)
    if error is not None:
        p.fail(error, at=at)
    return e


def _invalid(
    p: _Parser,
    kind: str,
    entry: str,
    tables: tuple[tuple[str, dict[str, int]], ...],
    default: int,
) -> NoReturn:
    """Raise a validator's ``entry`` at the token of the name it cites: its
    first quoted name, looked up in the table for the words the entry opens
    with (token ``default`` when none applies)."""
    at = default
    for prefix, table in tables:
        if entry.startswith(prefix):
            at = table.get(entry.split("'", 2)[1], default)
    p.fail(f"invalid {kind}: {entry}", at=at)


def print_signature(sig: TypedSignature) -> str:
    lines = [f"language {sig.name}", ""]
    if sig.atoms:
        lines.append("atoms { " + " ".join(sig.atoms) + " }")
        lines.append("")
    lines.append("types {")
    for name, count in sig.types.constructors.items():
        lines.append(f"  {name} : {count}")
    lines.append("}")
    lines.append("")
    lines.append("terms {")
    for ar in sig.terms:
        family = "family " if ar.family_index else ""
        args = ", ".join(
            "[" + " ".join(str(b) for b in spec.binders) + "] " + str(spec.body)
            for spec in ar.args
        )
        lines.append(f"  {family}{ar.name} [{ar.degree}] : ({args}) -> {ar.result}")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Term files


def parse_term(text: str, sig: TypedSignature) -> tuple[Context, Term]:
    """Parse a ``.term`` file and typecheck the term in its context."""
    ctx, term, _ = _parse_typed_term(text, sig)
    return ctx, term


def _parse_typed_term(
    text: str, sig: TypedSignature
) -> tuple[Context, Term, ObjType]:
    """``parse_term`` that also returns the type found by the check."""
    p = _Parser(text)
    p.expect_keyword("context")
    ctx: list[ObjType] = []
    while p.at_ident():
        ctx.append(_parse_groundty(p, sig))
    p.expect_punct(";")
    start = p.i
    term = _parse_term_node(p, sig)
    p.expect_eof()
    del p  # the token list is not needed for the check
    try:
        ty = infer(sig, tuple(ctx), term)
    except TypeCheckError as exc:
        tok = _token_at(text, _node_token(_scan(text), start, exc.path))
        raise SourceError(tok.line, tok.column, exc.message) from exc
    return tuple(ctx), term, ty


def _node_token(toks: list[str], k: int, path: tuple[int, ...]) -> int:
    """Index of the token that names the node at argument ``path`` from the
    node starting at token ``k``: its arity name, or its variable."""
    for j in path:
        k += 2  # '(' and the arity name
        if toks[k] == "{":
            k += 3
        if toks[k] == "[":
            k = toks.index("]", k) + 1
        for _ in range(j):  # skip an earlier sibling
            depth = 0
            while True:
                depth += {"(": 1, ")": -1}.get(toks[k], 0)
                k += 1
                if depth == 0:
                    break
    return k + 1 if toks[k] == "(" else k


def _parse_term_node(p: _Parser, sig: TypedSignature) -> Term:
    """A term from the lookahead on, without recursion: ``stack`` holds the
    constructor nodes whose arguments are being read, each with its name,
    literal, instantiation and the arguments read so far.  Variables and
    instantiations are read once per distinct token text and then shared."""
    toks, i = p.toks, p.i
    room = _MAX_NESTING - p.depth
    variables: dict[str, Var] = {}
    instantiations: dict[tuple[str, ...], tuple[ObjType, ...]] = {}
    stack: list[tuple[str, int | None, tuple[ObjType, ...], list[Term]]] = []
    while True:
        if len(stack) >= room:
            p.i = i
            p.fail("nesting too deep")
        t = toks[i]
        if t[:1] == "#":
            node = variables.get(t)
            if node is None:
                node = variables[t] = Var(int(t[1:]))
            i += 1
        else:
            if t != "(":
                p.i = i
                p.found("'('")
            i += 1
            name = toks[i]
            if not _is_ident(name):
                p.i = i
                p.found("an arity name")
            i += 1
            lit: int | None = None
            if toks[i] == "{":
                p.i = i + 1
                lit = p.expect_nat()
                p.expect_punct("}")
                i = p.i
            inst: tuple[ObjType, ...] = ()
            if toks[i] == "[":
                # an instantiation whose tokens were read before in this file
                # is that one again, unless it may nest too deep here
                try:
                    end = toks.index("]", i)
                    span = tuple(toks[i + 1 : end])
                except ValueError:
                    end = span = None
                known = instantiations.get(span)
                if known is not None and len(stack) + 1 + span.count("(") < room:
                    i, inst = end + 1, known
                else:
                    p.i, p.depth = i + 1, p.depth + len(stack) + 1
                    types = [_parse_groundty(p, sig)]
                    while p.at_punct(","):
                        p.i += 1
                        types.append(_parse_groundty(p, sig))
                    p.expect_punct("]")
                    p.depth -= len(stack) + 1
                    i, inst = p.i, tuple(types)
                    if i - 1 == end:
                        instantiations[span] = inst
            stack.append((name, lit, inst, []))
            if toks[i] != ")":
                continue
            node = None
        # close every node whose last argument has been read
        while True:
            if node is not None:
                if not stack:
                    p.i = i
                    return node
                stack[-1][3].append(node)
                if toks[i] != ")":
                    break
            i += 1
            name, lit, inst, args = stack.pop()
            node = Con(name, lit, inst, tuple(args))


def print_term(
    sig: TypedSignature, ctx: Context, term: Term, style: str = "canonical"
) -> str:
    """Render a term; ``canonical`` round-trips, ``paper`` is ULC-only."""
    if style == "canonical":
        return str(term)
    if style == "paper":
        return _paper(term)
    raise ValueError(f"unknown style '{style}'")


def _paper(term: Term) -> str:
    """The paper style, with an explicit stack of terms still to render
    and of the text that closes them, so that depth costs no recursion."""
    out: list[str] = []
    stack: list[Term | str] = [term]
    while stack:
        t = stack.pop()
        if type(t) is str:
            out.append(t)
            continue
        match t:
            case Var(index=i):
                out.append(str(i + 1))
                continue
            case Con(name="abs", lit=None, inst=(), args=(body,)):
                if isinstance(body, Var):
                    out.append("Abs ")
                else:
                    out.append("Abs (")
                    stack.append(")")
                stack.append(body)
                continue
            case Con(name="app", lit=None, inst=(), args=(fun, arg)):
                if isinstance(arg, Con) and arg.name == "app":
                    stack.extend((")", arg, " @ ("))
                else:
                    stack.extend((arg, " @ "))
                stack.append(fun)
                continue
        raise ValueError("paper style renders untyped lambda terms only")
    return "".join(out)


def print_termfile(sig: TypedSignature, ctx: Context, term: Term) -> str:
    types = " ".join(str(t) for t in ctx)
    head = f"context {types} ;" if ctx else "context ;"
    return f"{head} {term}\n"


# ---------------------------------------------------------------------------
# Translation files


def translation_header(text: str) -> tuple[str, str, str]:
    """The translation name and the source and target language names that
    a ``.xlat`` file declares in its header.  Of the rest only the first
    token is read: a bad character there is an error, as in
    ``parse_translation``."""
    p = _Parser(text)
    name, src, tgt = _parse_header(p)
    if p.peek() and _kind(p.peek()) == "bad":
        p.fail("")  # reports the bad character
    return p.toks[name], p.toks[src], p.toks[tgt]


def _parse_header(p: _Parser) -> tuple[int, ...]:
    """The token indices of the translation name and the source and target
    language names."""
    at = []
    for keyword, what in (
        ("translation", "translation name"),
        ("from", "source language name"),
        ("to", "target language name"),
    ):
        p.expect_keyword(keyword)
        at.append(p.i)
        p.expect_ident(what)
    return tuple(at)


def parse_translation(
    text: str, source: TypedSignature, target: TypedSignature
) -> Translation:
    """Parse a ``.xlat`` file against the source and target signatures
    that its header names (see ``translation_header``)."""
    p = _Parser(text)
    name_at, src_at, tgt_at = _parse_header(p)
    name, src, tgt = p.toks[name_at], p.toks[src_at], p.toks[tgt_at]
    if src != source.name:
        p.fail(f"file is from '{src}' but the source signature is '{source.name}'", at=src_at)
    if tgt != target.name:
        p.fail(f"file is to '{tgt}' but the target signature is '{target.name}'", at=tgt_at)

    macros: dict[str, Term] = {}
    macro_at: dict[str, int] = {}
    if p.at_ident("macros"):
        p.next()
        p.expect_punct("{")
        while p.at_ident():
            at = p.i
            mname = p.next()
            if mname in macros:
                p.fail(f"duplicate macro '{mname}'", at=at)
            p.expect_punct("=")
            tpl = _parse_template(p)
            macros[mname] = _template_to_term(p, tpl, macros, at)
            macro_at[mname] = at
        p.expect_punct("}")

    p.expect_keyword("types")
    p.expect_punct("{")
    type_templates: dict[str, TypeExpr] = {}
    type_at: dict[str, int] = {}
    while p.at_ident():
        at = p.i
        cname = p.next()
        if cname in type_templates:
            p.fail(f"duplicate type template for '{cname}'", at=at)
        p.expect_punct("->")
        e, _ = _parse_tyexpr(p)
        type_templates[cname] = e
        type_at[cname] = at
    p.expect_punct("}")

    p.expect_keyword("terms")
    p.expect_punct("{")
    term_map: dict[str, Template] = {}
    term_at: dict[str, int] = {}
    while p.at_ident():
        at = p.i
        aname = p.next()
        if aname in term_map:
            p.fail(f"duplicate template for '{aname}'", at=at)
        p.expect_punct("->")
        term_map[aname] = _parse_template(p)
        term_at[aname] = at
    p.expect_punct("}")
    p.expect_eof()

    x = Translation(
        name=name,
        source=source,
        target=target,
        type_map=TypeTranslation(source.all_types, target.all_types, type_templates),
        term_map=term_map,
        macros=macros,
    )
    report = validate_translation(x)
    if not report.ok:
        tables = (
            ("types: ", type_at),
            ("arity ", term_at),
            ("macro ", macro_at),
        )
        _invalid(p, "translation", report.entries[0], tables, name_at)
    return x


def _parse_template(p: _Parser) -> Template:
    p.enter()
    try:
        at = p.i
        t = p.peek()
        if t[:1] == "?" and len(t) > 1:
            p.next()
            j = int(t[1:])
            if j < 1:
                p.fail("placeholder index must be positive", at=at)
            return TplMeta(j)
        if t[:1] == "#" and len(t) > 1:
            p.next()
            return TplVar(int(t[1:]))
        if p.at_punct("<"):
            p.next()
            mname = p.expect_ident("a macro name")
            p.expect_punct(">")
            return TplMacro(mname)
        p.expect_punct("(")
        name = p.expect_ident("an arity name")
        lit: int | None = None
        if p.at_punct("{"):
            p.next()
            lit = p.expect_nat()
            p.expect_punct("}")
        inst: list[TypeExpr] = []
        if p.at_punct("["):
            p.next()
            inst.append(_parse_tyexpr(p)[0])
            while p.at_punct(","):
                p.next()
                inst.append(_parse_tyexpr(p)[0])
            p.expect_punct("]")
        args: list[Template] = []
        while not p.at_punct(")"):
            args.append(_parse_template(p))
        p.expect_punct(")")
        return TplCon(name, lit, tuple(inst), tuple(args))
    finally:
        p.leave()


def _template_to_term(
    p: _Parser, tpl: Template, macros: dict[str, Term], at: int
) -> Term:
    """Macros are ground terms; earlier macros may be referenced and are
    inlined.  Errors point at the macro's name, the token at index ``at``."""
    match tpl:
        case TplVar(index=i):
            return Var(i)
        case TplMeta():
            p.fail("macros cannot contain argument placeholders", at=at)
        case TplMacro(name=mname):
            if mname not in macros:
                p.fail(f"macro '{mname}' is not defined yet", at=at)
            return macros[mname]
        case TplCon(name=cname, lit=lit, inst=inst, args=args):
            if cname.startswith("__"):
                p.fail(f"'{cname}' is not allowed in a macro", at=at)
            ground = []
            for e in inst:
                try:
                    ground.append(eval_type_expr((), e))
                except ValueError:
                    p.fail("macro type parameters must be closed", at=at)
            return Con(
                cname,
                lit,
                tuple(ground),
                tuple(_template_to_term(p, a, macros, at) for a in args),
            )
    raise AssertionError(f"not a template: {tpl!r}")


def _template_str(tpl: Template) -> str:
    match tpl:
        case TplMeta(index=j):
            return f"?{j}"
        case TplVar(index=i):
            return f"#{i}"
        case TplMacro(name=name):
            return f"<{name}>"
        case TplCon(name=name, lit=lit, inst=inst, args=args):
            head = name if lit is None else f"{name}{{{lit}}}"
            if inst:
                head += " [" + ", ".join(str(e) for e in inst) + "]"
            parts = [head] + [_template_str(a) for a in args]
            return "(" + " ".join(parts) + ")"
    raise AssertionError(f"not a template: {tpl!r}")


def print_translation(x: Translation) -> str:
    lines = [f"translation {x.name} from {x.source.name} to {x.target.name}", ""]
    if x.macros:
        lines.append("macros {")
        for mname, body in x.macros.items():
            lines.append(f"  {mname} = {body}")
        lines.append("}")
        lines.append("")
    lines.append("types {")
    for cname, e in x.type_map.templates.items():
        lines.append(f"  {cname} -> {e}")
    lines.append("}")
    lines.append("")
    lines.append("terms {")
    for aname, tpl in x.term_map.items():
        lines.append(f"  {aname} -> {_template_str(tpl)}")
    lines.append("}")
    return "\n".join(lines) + "\n"
