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
from typing import Iterator, NamedTuple

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
    term_to_template,
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


class _Token(NamedTuple):
    kind: str  # ident nat hashnat dollarnat qnat punct eof
    text: str
    line: int
    column: int


# Identifiers start with a letter, '_' or '*' (``_tokenize`` checks the
# letter) and continue with letters, digits, '_', '*', "'" and inner '-', so
# that 'a ->' lexes as an identifier and an arrow.  Numbers are ASCII.
_TOKEN = re.compile(
    r"""(?P<space>[ \t\r\n]+)
    | (?P<comment>\#(?![0-9])[^\n]*)
    | \#(?P<hashnat>[0-9]+) | \$(?P<dollarnat>[0-9]+) | \?(?P<qnat>[0-9]+)
    | (?P<nat>[0-9]+)
    | (?P<ident>[\w*](?:[\w*'-]*[\w*'])?)
    | (?P<punct>->|[()\[\]{},;:=<>])""",
    re.VERBOSE,
)


def _tokenize(text: str) -> Iterator[_Token]:
    """Tokens in order, then one ``eof`` token."""
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        kind = m.lastgroup if m else None
        if kind == "comment" and text[pos + 1 : pos + 2].isdigit():
            kind, pos = None, pos + 1  # '#' then a digit other than 0-9
        if kind is None or (
            kind == "ident" and not (text[pos].isalpha() or text[pos] in "_*")
        ):
            raise SourceError(
                line, pos - line_start + 1, f"unexpected character {text[pos]!r}"
            )
        if kind == "space":
            space = m.group()
            if "\n" in space:
                line += space.count("\n")
                line_start = pos + space.rindex("\n") + 1
        elif kind != "comment":
            yield _Token(kind, m.group(kind), line, pos - line_start + 1)
        pos = m.end()
    yield _Token("eof", "", line, pos - line_start + 1)


class _Parser:
    """Recursive descent over the tokens, one token of lookahead."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.tok = next(self.toks)
        self.depth = 0

    def peek(self) -> _Token:
        return self.tok

    def next(self) -> _Token:
        t = self.tok
        if t.kind != "eof":
            self.tok = next(self.toks)
        return t

    def error(self, message: str, expected: str = "", tok: _Token | None = None):
        t = tok or self.peek()
        raise SourceError(t.line, t.column, message, expected)

    def expect_punct(self, s: str) -> _Token:
        t = self.peek()
        if t.kind != "punct" or t.text != s:
            self.error(f"found {t.text!r}" if t.kind != "eof" else "unexpected end of input", f"'{s}'")
        return self.next()

    def expect_ident(self, expected: str = "identifier") -> _Token:
        t = self.peek()
        if t.kind != "ident":
            self.error(f"found {t.text!r}" if t.kind != "eof" else "unexpected end of input", expected)
        return self.next()

    def expect_keyword(self, word: str) -> _Token:
        t = self.expect_ident(f"'{word}'")
        if t.text != word:
            self.error(f"found {t.text!r}", f"'{word}'", tok=t)
        return t

    def expect_nat(self) -> int:
        t = self.peek()
        if t.kind != "nat":
            self.error(f"found {t.text!r}" if t.kind != "eof" else "unexpected end of input", "a number")
        self.next()
        return int(t.text)

    def at_punct(self, s: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == s

    def at_ident(self, s: str | None = None) -> bool:
        t = self.peek()
        return t.kind == "ident" and (s is None or t.text == s)

    def expect_eof(self) -> None:
        t = self.peek()
        if t.kind != "eof":
            self.error(f"trailing input {t.text!r}", "end of input")

    def enter(self) -> None:
        self.depth += 1
        if self.depth > _MAX_NESTING:
            self.error("nesting too deep")

    def leave(self) -> None:
        self.depth -= 1


# ---------------------------------------------------------------------------
# Type expressions and ground types


def _parse_tyexpr(p: _Parser) -> tuple[TypeExpr, _Token]:
    p.enter()
    try:
        t = p.peek()
        if t.kind == "dollarnat":
            p.next()
            return TVar(int(t.text)), t
        name = p.expect_ident("a type expression")
        args: list[TypeExpr] = []
        if p.at_punct("("):
            p.next()
            args.append(_parse_tyexpr(p)[0])
            while p.at_punct(","):
                p.next()
                args.append(_parse_tyexpr(p)[0])
            p.expect_punct(")")
        return TApp(name.text, tuple(args)), name
    finally:
        p.leave()


def _parse_groundty(p: _Parser, sig: TypedSignature) -> ObjType:
    p.enter()
    try:
        name = p.expect_ident("a ground type")
        args: list[ObjType] = []
        if p.at_punct("("):
            p.next()
            args.append(_parse_groundty(p, sig))
            while p.at_punct(","):
                p.next()
                args.append(_parse_groundty(p, sig))
            p.expect_punct(")")
        declared = sig.type_arity(name.text)
        if declared is None:
            p.error(f"unknown type constructor '{name.text}'", tok=name)
        if declared != len(args):
            p.error(
                f"{name.text} expects {declared} argument{'s' if declared != 1 else ''}, got {len(args)}",
                tok=name,
            )
        return ObjType(name.text, tuple(args))
    finally:
        p.leave()


# ---------------------------------------------------------------------------
# Signature files


def parse_signature(text: str) -> TypedSignature:
    """Parse and validate a ``.sig`` file."""
    p = _Parser(text)
    p.expect_keyword("language")
    name = p.expect_ident("language name")

    # the token of each declared name, for the validator's entries
    atoms: list[str] = []
    atom_toks: dict[str, _Token] = {}
    if p.at_ident("atoms"):
        p.next()
        p.expect_punct("{")
        while p.at_ident():
            tok = p.next()
            atoms.append(tok.text)
            atom_toks[tok.text] = tok
        p.expect_punct("}")

    p.expect_keyword("types")
    p.expect_punct("{")
    constructors: dict[str, int] = {}
    type_toks: dict[str, _Token] = {}
    while p.at_ident():
        tok = p.next()
        p.expect_punct(":")
        count = p.expect_nat()
        # a dict cannot show the validator a duplicate key
        if tok.text in constructors:
            p.error(f"duplicate type constructor '{tok.text}'", tok=tok)
        constructors[tok.text] = count
        type_toks[tok.text] = tok
    p.expect_punct("}")
    all_types = {**dict.fromkeys(atoms, 0), **constructors}

    p.expect_keyword("terms")
    p.expect_punct("{")
    arities: list[TermArity] = []
    arity_toks: dict[str, _Token] = {}
    while p.at_ident():
        first = p.next()
        family = False
        if first.text == "family" and p.at_ident():
            family = True
            first = p.next()
        arity_toks[first.text] = first
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
        arities.append(
            TermArity(first.text, degree, tuple(specs), result, family_index=family)
        )
    p.expect_punct("}")
    p.expect_eof()

    sig = TypedSignature(
        types=TypeSignature(name.text, constructors),
        terms=tuple(arities),
        atoms=tuple(atoms),
    )
    report = validate_signature(sig)
    if not report.ok:
        tables = (
            ("type constructor ", type_toks),
            ("atom ", atom_toks),
            ("arity ", arity_toks),
        )
        raise _invalid("signature", report.entries[0], tables, name)
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
    e, tok = _parse_tyexpr(p)
    error = next(type_expr_errors(types, e, degree), None)
    if error is not None:
        p.error(error, tok=tok)
    return e


def _invalid(
    kind: str,
    entry: str,
    tables: tuple[tuple[str, dict[str, _Token]], ...],
    default: _Token,
) -> SourceError:
    """A validator's ``entry`` as an error at the token of the name it
    cites: its first quoted name, looked up in the table for the words the
    entry opens with (``default`` when none applies)."""
    tok = default
    for prefix, table in tables:
        if entry.startswith(prefix):
            tok = table.get(entry.split("'", 2)[1], default)
    return SourceError(tok.line, tok.column, f"invalid {kind}: {entry}")


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
    # pre-order: the token of each node and the size of its subtree
    tokens: list[_Token] = []
    sizes: list[int] = []
    term = _parse_term_node(p, sig, tokens, sizes)
    p.expect_eof()
    try:
        ty = infer(sig, tuple(ctx), term)
    except TypeCheckError as exc:
        tok = tokens[_preorder_index(exc.path, sizes)]
        raise SourceError(tok.line, tok.column, exc.message) from exc
    return tuple(ctx), term, ty


def _preorder_index(path: tuple[int, ...], sizes: list[int]) -> int:
    """Pre-order position of the node at argument ``path`` from the root."""
    k = 0
    for j in path:
        k += 1  # first argument
        for _ in range(j):
            k += sizes[k]  # skip an earlier sibling's subtree
    return k


def _parse_term_node(
    p: _Parser, sig: TypedSignature, tokens: list[_Token], sizes: list[int]
) -> Term:
    p.enter()
    try:
        t = p.peek()
        k = len(tokens)
        tokens.append(t)
        sizes.append(1)
        if t.kind == "hashnat":
            p.next()
            return Var(int(t.text))
        p.expect_punct("(")
        name = p.expect_ident("an arity name")
        tokens[k] = name
        lit: int | None = None
        if p.at_punct("{"):
            p.next()
            lit = p.expect_nat()
            p.expect_punct("}")
        inst: list[ObjType] = []
        if p.at_punct("["):
            p.next()
            inst.append(_parse_groundty(p, sig))
            while p.at_punct(","):
                p.next()
                inst.append(_parse_groundty(p, sig))
            p.expect_punct("]")
        args: list[Term] = []
        while not p.at_punct(")"):
            args.append(_parse_term_node(p, sig, tokens, sizes))
        p.expect_punct(")")
        sizes[k] = len(tokens) - k
        return Con(name.text, lit, tuple(inst), tuple(args))
    finally:
        p.leave()


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
    match term:
        case Var(index=i):
            return str(i + 1)
        case Con(name="abs", lit=None, inst=(), args=(body,)):
            inner = _paper(body)
            if isinstance(body, Var):
                return f"Abs {inner}"
            return f"Abs ({inner})"
        case Con(name="app", lit=None, inst=(), args=(fun, arg)):
            left = _paper(fun)
            right = _paper(arg)
            if isinstance(arg, Con) and arg.name == "app":
                right = f"({right})"
            return f"{left} @ {right}"
    raise ValueError("paper style renders untyped lambda terms only")


def print_termfile(sig: TypedSignature, ctx: Context, term: Term) -> str:
    types = " ".join(str(t) for t in ctx)
    head = f"context {types} ;" if ctx else "context ;"
    return f"{head} {term}\n"


# ---------------------------------------------------------------------------
# Translation files


def translation_header(text: str) -> tuple[str, str, str]:
    """The translation name and the source and target language names that
    a ``.xlat`` file declares in its header; the rest is not read."""
    name, src, tgt = _parse_header(_Parser(text))
    return name.text, src.text, tgt.text


def _parse_header(p: _Parser) -> tuple[_Token, _Token, _Token]:
    p.expect_keyword("translation")
    name = p.expect_ident("translation name")
    p.expect_keyword("from")
    src = p.expect_ident("source language name")
    p.expect_keyword("to")
    return name, src, p.expect_ident("target language name")


def parse_translation(
    text: str, source: TypedSignature, target: TypedSignature
) -> Translation:
    """Parse a ``.xlat`` file against the source and target signatures
    that its header names (see ``translation_header``)."""
    p = _Parser(text)
    name, src, tgt = _parse_header(p)
    if src.text != source.name:
        p.error(f"file is from '{src.text}' but the source signature is '{source.name}'", tok=src)
    if tgt.text != target.name:
        p.error(f"file is to '{tgt.text}' but the target signature is '{target.name}'", tok=tgt)

    macros: dict[str, Term] = {}
    macro_positions: dict[str, _Token] = {}
    if p.at_ident("macros"):
        p.next()
        p.expect_punct("{")
        while p.at_ident():
            mname = p.next()
            if mname.text in macros:
                p.error(f"duplicate macro '{mname.text}'", tok=mname)
            p.expect_punct("=")
            tpl = _parse_template(p)
            macros[mname.text] = _template_to_term(p, tpl, macros, mname)
            macro_positions[mname.text] = mname
        p.expect_punct("}")

    p.expect_keyword("types")
    p.expect_punct("{")
    type_templates: dict[str, TypeExpr] = {}
    type_positions: dict[str, _Token] = {}
    while p.at_ident():
        cname = p.next()
        if cname.text in type_templates:
            p.error(f"duplicate type template for '{cname.text}'", tok=cname)
        p.expect_punct("->")
        e, _ = _parse_tyexpr(p)
        type_templates[cname.text] = e
        type_positions[cname.text] = cname
    p.expect_punct("}")

    p.expect_keyword("terms")
    p.expect_punct("{")
    term_map: dict[str, Template] = {}
    term_positions: dict[str, _Token] = {}
    while p.at_ident():
        aname = p.next()
        if aname.text in term_map:
            p.error(f"duplicate template for '{aname.text}'", tok=aname)
        p.expect_punct("->")
        term_map[aname.text] = _parse_template(p)
        term_positions[aname.text] = aname
    p.expect_punct("}")
    p.expect_eof()

    x = Translation(
        name=name.text,
        source=source,
        target=target,
        type_map=TypeTranslation(source.all_types, target.all_types, type_templates),
        term_map=term_map,
        macros=macros,
    )
    report = validate_translation(x)
    if not report.ok:
        tables = (
            ("types: ", type_positions),
            ("arity ", term_positions),
            ("macro ", macro_positions),
        )
        raise _invalid("translation", report.entries[0], tables, name)
    return x


def _parse_template(p: _Parser) -> Template:
    p.enter()
    try:
        t = p.peek()
        if t.kind == "qnat":
            p.next()
            j = int(t.text)
            if j < 1:
                p.error("placeholder index must be positive", tok=t)
            return TplMeta(j)
        if t.kind == "hashnat":
            p.next()
            return TplVar(int(t.text))
        if p.at_punct("<"):
            p.next()
            mname = p.expect_ident("a macro name")
            p.expect_punct(">")
            return TplMacro(mname.text)
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
        return TplCon(name.text, lit, tuple(inst), tuple(args))
    finally:
        p.leave()


def _template_to_term(
    p: _Parser, tpl: Template, macros: dict[str, Term], tok: _Token
) -> Term:
    """Macros are ground terms; earlier macros may be referenced and are
    inlined."""
    match tpl:
        case TplVar(index=i):
            return Var(i)
        case TplMeta():
            p.error("macros cannot contain argument placeholders", tok=tok)
        case TplMacro(name=mname):
            if mname not in macros:
                p.error(f"macro '{mname}' is not defined yet", tok=tok)
            return macros[mname]
        case TplCon(name=cname, lit=lit, inst=inst, args=args):
            if cname.startswith("__"):
                p.error(f"'{cname}' is not allowed in a macro", tok=tok)
            ground = []
            for e in inst:
                try:
                    ground.append(eval_type_expr((), e))
                except ValueError:
                    p.error("macro type parameters must be closed", tok=tok)
            return Con(
                cname,
                lit,
                tuple(ground),
                tuple(_template_to_term(p, a, macros, tok) for a in args),
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
            lines.append(f"  {mname} = {_template_str(term_to_template(body))}")
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
